package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"

	"davide/internal/accounting"
	"davide/internal/tsdb"
	"davide/internal/workload"
)

// The checks below are independent computations or properties the
// program's outputs must have. Each takes plain values, so the tests can
// hand them a deliberately corrupted output.

// energyRelTol is the relative tolerance for comparing two sums of the
// same store integrals taken in a different order.
const energyRelTol = 1e-9

// checkCell verifies one control-loop cell run.
func checkCell(o cellOutcome, nodes int) error {
	jobs := o.cell.jobs
	if err := checkJobsOnce(jobs, o); err != nil {
		return err
	}
	if err := checkNoOverlap(jobs, o.assignments, o.records, nodes); err != nil {
		return err
	}
	if err := checkPhaseEnergy(o.store, o.assignments, o.records); err != nil {
		return err
	}
	if o.ooDropped != 0 {
		return fmt.Errorf("store dropped %d samples behind the sealed horizon", o.ooDropped)
	}
	return nil
}

// checkJobsOnce: every submitted job started, ended and was accounted
// exactly once, and nothing else was.
func checkJobsOnce(jobs []workload.Job, o cellOutcome) error {
	if len(o.ends) != len(jobs) || len(o.starts) != len(jobs) || len(o.records) != len(jobs) || o.ledgerLen != len(jobs) {
		return fmt.Errorf("%d jobs: %d started, %d ended, %d records, ledger holds %d",
			len(jobs), len(o.starts), len(o.ends), len(o.records), o.ledgerLen)
	}
	for _, j := range jobs {
		s, okS := o.starts[j.ID]
		e, okE := o.ends[j.ID]
		rec, okR := o.records[j.ID]
		if !okS || !okE || !okR {
			return fmt.Errorf("job %d: started %v, ended %v, accounted %v", j.ID, okS, okE, okR)
		}
		if !(e > s) || rec.StartAt != s || rec.EndAt != e {
			return fmt.Errorf("job %d: run [%g, %g) but ledger [%g, %g)", j.ID, s, e, rec.StartAt, rec.EndAt)
		}
	}
	return nil
}

// checkNoOverlap: each job ran on as many distinct in-range nodes as it
// asked for, and no node ran two jobs at once, judged from the
// assignments and the ledger's start and end times.
func checkNoOverlap(jobs []workload.Job, assign map[int][]int, recs map[int]accounting.Record, nodes int) error {
	type span struct {
		t0, t1 float64
		job    int
	}
	perNode := make([][]span, nodes)
	for _, j := range jobs {
		nn := assign[j.ID]
		if len(nn) != j.Nodes {
			return fmt.Errorf("job %d asked for %d nodes, ran on %d", j.ID, j.Nodes, len(nn))
		}
		seen := map[int]bool{}
		for _, n := range nn {
			if n < 0 || n >= nodes || seen[n] {
				return fmt.Errorf("job %d: bad or repeated node %d in %v", j.ID, n, nn)
			}
			seen[n] = true
			perNode[n] = append(perNode[n], span{recs[j.ID].StartAt, recs[j.ID].EndAt, j.ID})
		}
	}
	for n, spans := range perNode {
		sort.Slice(spans, func(a, b int) bool { return spans[a].t0 < spans[b].t0 })
		for i := 1; i < len(spans); i++ {
			if spans[i].t0 < spans[i-1].t1 {
				return fmt.Errorf("node %d ran jobs %d [%g, %g) and %d [%g, %g) at once", n,
					spans[i-1].job, spans[i-1].t0, spans[i-1].t1, spans[i].job, spans[i].t0, spans[i].t1)
			}
		}
	}
	return nil
}

// checkPhaseEnergy: each job's energy, integrated here from the store
// over its nodes and run interval, equals its ledger record.
func checkPhaseEnergy(db *tsdb.DB, assign map[int][]int, recs map[int]accounting.Record) error {
	ids := make([]int, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rec := recs[id]
		total := 0.0
		for _, n := range assign[id] {
			e, err := db.Energy(n, rec.StartAt, rec.EndAt)
			if err != nil {
				return fmt.Errorf("job %d node %d: %w", id, n, err)
			}
			total += e
		}
		if math.Abs(total-rec.EnergyJ) > energyRelTol*math.Max(1, math.Abs(total)) {
			return fmt.Errorf("job %d: store energy %.6f J != ledger %.6f J", id, total, rec.EnergyJ)
		}
	}
	return nil
}

// checkOvershoot: power-aware policies hold their axis's documented
// overshoot bound, and power-blind ones overshoot by more than
// powerBlindMinOverPct on clean transport. It gates correctness on the
// reference workload (refSeed) and is reported on the seeded cells.
func checkOvershoot(powerAware bool, axis string, maxOverPct float64) error {
	if !powerAware {
		if axis == "clean" && maxOverPct <= powerBlindMinOverPct {
			return fmt.Errorf("power-blind overshoot only %.2f%% on clean, want > %d%%", maxOverPct, powerBlindMinOverPct)
		}
		return nil
	}
	bound, err := axisOverBound(axis)
	if err != nil {
		return err
	}
	if maxOverPct > bound {
		return fmt.Errorf("power-aware overshoot %.2f%% exceeds the documented %g%% bound", maxOverPct, bound)
	}
	return nil
}

// checkRepeat: a repeated cell reproduces the schedule, the tick count
// and the measured energy exactly.
func checkRepeat(a, b cellOutcome) error {
	if a.ticks != b.ticks {
		return fmt.Errorf("ticks %d then %d", a.ticks, b.ticks)
	}
	if a.measuredJ != b.measuredJ {
		return fmt.Errorf("measured energy %v then %v J", a.measuredJ, b.measuredJ)
	}
	if len(a.starts) != len(b.starts) {
		return errors.New("different job sets")
	}
	for id, s := range a.starts {
		if b.starts[id] != s || b.ends[id] != a.ends[id] {
			return fmt.Errorf("job %d ran [%g, %g) then [%g, %g)", id, s, a.ends[id], b.starts[id], b.ends[id])
		}
		na, nb := a.assignments[id], b.assignments[id]
		if len(na) != len(nb) {
			return fmt.Errorf("job %d on %v then %v", id, na, nb)
		}
		for i := range na {
			if na[i] != nb[i] {
				return fmt.Errorf("job %d on %v then %v", id, na, nb)
			}
		}
	}
	return nil
}

// checkCachedEqual: a cached window answer is byte-identical to the
// nocache recompute, and both equal the direct store computation.
func checkCachedEqual(cached, bypass *httptest.ResponseRecorder, want []byte) error {
	if cached.Code != http.StatusOK || bypass.Code != http.StatusOK {
		return fmt.Errorf("status %d cached, %d bypass", cached.Code, bypass.Code)
	}
	if !bytes.Equal(cached.Body.Bytes(), bypass.Body.Bytes()) {
		return errors.New("cached body differs from the nocache recompute")
	}
	if !bytes.Equal(bypass.Body.Bytes(), want) {
		return errors.New("window answer differs from the direct store query")
	}
	return nil
}

// checkUserTotals: every user's served total equals the sum of that
// user's ledger records, and the served users cover the whole ledger.
func checkUserTotals(sums []accounting.UserSummary, ledgerLen int, records func(user int) []accounting.Record) error {
	jobs := 0
	for _, s := range sums {
		recs := records(s.User)
		total := 0.0
		for _, r := range recs {
			total += r.EnergyJ
		}
		if s.Jobs != len(recs) || math.Abs(s.EnergyJ-total) > energyRelTol*math.Max(1, total) {
			return fmt.Errorf("user %d: served %d jobs, %.6f J; ledger %d jobs, %.6f J", s.User, s.Jobs, s.EnergyJ, len(recs), total)
		}
		jobs += s.Jobs
	}
	if jobs != ledgerLen {
		return fmt.Errorf("served users cover %d jobs, ledger holds %d", jobs, ledgerLen)
	}
	return nil
}
