package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"davide/internal/accounting"
	"davide/internal/fleet"
	"davide/internal/tournament"
)

// Each check must accept the program's real output and reject a
// deliberately corrupted copy of it.

func TestFleetCheckRejectsCorruption(t *testing.T) {
	const nodes, windows = 8, 3
	waves := fleetWaves(1, nodes)
	p, err := fleet.NewPlane(fleet.PlaneSpec{
		Racks: 2, NodesHint: nodes,
		Gateway: fleet.GatewaySpec{SampleRate: fleetRate, BatchSamples: fleetBatch},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for k := 0; k < windows; k++ {
		t0 := float64(k * fleetWindowS)
		if _, err := p.Stream(context.Background(), fleetStreams(waves), t0, t0+fleetWindowS); err != nil {
			t.Fatal(err)
		}
	}
	db := p.Store()
	perWindow := fleetWindowS * fleetRate
	if err := checkFleet(waves, windows, perWindow, db.IngestedSamples, db.Energy); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}

	swapped := func(n int, t0, t1 float64) (float64, error) { return db.Energy(n^1, t0, t1) }
	biased := func(n int, t0, t1 float64) (float64, error) {
		e, err := db.Energy(n, t0, t1)
		return e * 1.03, err
	}
	short := func(n int) int { return db.IngestedSamples(n) - 1 }
	for name, err := range map[string]error{
		"nodes swapped":  checkFleet(waves, windows, perWindow, db.IngestedSamples, swapped),
		"energy +3%":     checkFleet(waves, windows, perWindow, db.IngestedSamples, biased),
		"sample missing": checkFleet(waves, windows, perWindow, short, db.Energy),
	} {
		if err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestEnergyIntegral(t *testing.T) {
	w := nodeWave{Base: 100, High: 50, Period: 2, Duty: 0.25, Phase: 0.5}
	// High over [0.5, 1.0) and [2.5, 3.0) within [0, 4): 1 s at +50 W.
	if got, want := w.energy(0, 4), 100*4+50*1.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy %v, want %v", got, want)
	}
}

// cellFor runs one live control-loop cell for seed 1.
func cellFor(t *testing.T, policy, axis string) cellOutcome {
	t.Helper()
	in, err := newControlInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tournament.GetPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	c := cell{p, axis, 0, in.sets[0]}
	res, db, err := in.runLive(c, in.liveConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	return newCellOutcome(c, res, db)
}

// clone copies the outcome's maps so a corruption does not leak.
func (o cellOutcome) clone() cellOutcome {
	c := o
	c.starts, c.ends = map[int]float64{}, map[int]float64{}
	c.assignments, c.records = map[int][]int{}, map[int]accounting.Record{}
	for k, v := range o.starts {
		c.starts[k] = v
	}
	for k, v := range o.ends {
		c.ends[k] = v
	}
	for k, v := range o.assignments {
		c.assignments[k] = append([]int(nil), v...)
	}
	for k, v := range o.records {
		c.records[k] = v
	}
	return c
}

func TestControlChecksRejectCorruption(t *testing.T) {
	o := cellFor(t, "power", "clean")
	if err := checkCell(o, ctlNodes); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	if err := checkRepeat(o, o.clone()); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	first, second := o.cell.jobs[0].ID, o.cell.jobs[1].ID

	corrupt := map[string]func(c *cellOutcome){
		"job never ended": func(c *cellOutcome) { delete(c.ends, first) },
		"ledger interval": func(c *cellOutcome) {
			r := c.records[first]
			r.EndAt += ctlTickS
			c.records[first] = r
		},
		"ledger energy": func(c *cellOutcome) {
			r := c.records[first]
			r.EnergyJ += 1
			c.records[first] = r
		},
		"two jobs on one node": func(c *cellOutcome) {
			// Move the second job onto the first's nodes over the
			// first's interval.
			c.assignments[second] = append([]int(nil), c.assignments[first]...)
			for len(c.assignments[second]) > o.cell.jobs[1].Nodes {
				c.assignments[second] = c.assignments[second][1:]
			}
			for len(c.assignments[second]) < o.cell.jobs[1].Nodes {
				c.assignments[second] = append(c.assignments[second], (c.assignments[second][0]+len(c.assignments[second]))%ctlNodes)
			}
			r := c.records[second]
			r.StartAt, r.EndAt = c.records[first].StartAt, c.records[first].EndAt
			c.records[second] = r
			c.starts[second], c.ends[second] = r.StartAt, r.EndAt
		},
		"sealed-horizon drop": func(c *cellOutcome) { c.ooDropped = 1 },
	}
	for name, f := range corrupt {
		c := o.clone()
		f(&c)
		if err := checkCell(c, ctlNodes); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}

	rep := o.clone()
	rep.ends[first] += ctlTickS
	if checkRepeat(o, rep) == nil {
		t.Error("diverged repeat accepted")
	}
	rep = o.clone()
	rep.ticks++
	if checkRepeat(o, rep) == nil {
		t.Error("repeat with another tick count accepted")
	}
}

func TestOvershootCheck(t *testing.T) {
	fifo := cellFor(t, "fifo", "clean")
	power := cellFor(t, "power", "clean")
	for _, c := range []struct {
		aware bool
		axis  string
		over  float64
		ok    bool
	}{
		{false, "clean", fifo.maxOverPct, true}, // seed 1's real runs
		{true, "clean", power.maxOverPct, true},
		{true, "clean", 50, false},
		{true, "scenario/ramp-chaos", 11, false},
		{false, "clean", 10, false},
		{false, "chaos/lossy-rack", 10, true},
	} {
		if err := checkOvershoot(c.aware, c.axis, c.over); (err == nil) != c.ok {
			t.Errorf("%+v: got %v", c, err)
		}
	}
}

func TestReferenceHoldsBounds(t *testing.T) {
	if err := checkReference(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryChecksRejectCorruption(t *testing.T) {
	w := &queryLoad{}
	if err := w.setup(1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := w.check(); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}

	// A response differing from the direct computation.
	w.wantSum[w.clients[0].ids[0]]++
	w.clients[0].next = 0
	w.clients[0].do(w.srv.Handler(), w.wantSum)
	if w.check() == nil {
		t.Error("response differing from the direct computation accepted")
	}
	w.wantSum[w.clients[0].ids[0]]--
	w.clients[0].wrong = 0

	// A failed response.
	w.clients[0].failed++
	if w.check() == nil {
		t.Error("failed response accepted")
	}
	w.clients[0].failed--

	// Cached bytes differing from the nocache recompute.
	var hot query
	for _, q := range w.distinct {
		if q.kind == qHot {
			hot = q
			break
		}
	}
	h := w.srv.Handler()
	cached, bypass := get(h, hot.path), get(h, hot.path+"&nocache=1")
	if err := checkCachedEqual(cached, bypass, hot.want); err != nil {
		t.Fatalf("real window rejected: %v", err)
	}
	stale := httptest.NewRecorder()
	stale.Body.Write(cached.Body.Bytes()[:cached.Body.Len()-2])
	stale.Body.WriteString("}")
	if checkCachedEqual(stale, bypass, hot.want) == nil {
		t.Error("cached body differing from the recompute accepted")
	}

	// A per-user total differing from the ledger.
	rec := get(h, "/v1/users")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/users: %d", rec.Code)
	}
	var sums []accounting.UserSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sums); err != nil {
		t.Fatal(err)
	}
	ledger := w.qp.plant.Ledger
	if err := checkUserTotals(sums, ledger.Len(), ledger.UserRecords); err != nil {
		t.Fatalf("real totals rejected: %v", err)
	}
	sums[0].EnergyJ *= 1.001
	if checkUserTotals(sums, ledger.Len(), ledger.UserRecords) == nil {
		t.Error("wrong user total accepted")
	}
	sums[0].EnergyJ /= 1.001
	if checkUserTotals(sums[1:], ledger.Len(), ledger.UserRecords) == nil {
		t.Error("missing user accepted")
	}
}

func TestProfileAttribution(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300e6)
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(samples)
	if got["bench"] <= 0 {
		t.Fatalf("benchmark spin not attributed to bench: %v", got)
	}
	for stack, want := range map[string]string{
		"davide/internal/tsdb.(*DB).AppendBatch":                     "tsdb",
		"strconv.AppendFloat encoding/json.floatEncoder.encode":      "encoding_json",
		"internal/runtime/syscall.Syscall6 syscall.Syscall":          "syscall",
		"runtime.memmove davide/internal/mqtt.(*Broker).route":       "mqtt",
		"runtime.futex runtime.stopm runtime.schedule runtime.mcall": "runtime",
		"math.Round davide/internal/sensor.(*ADC).Convert":           "sensor",
		"runtime.scanobject runtime.gcDrain runtime.gcBgMarkWorker":  "runtime.gc",
		"davide/internal/obs.(*Counter).Inc":                         "other",
	} {
		if g := groupOf(strings.Fields(stack)); g != want {
			t.Errorf("%s: group %s, want %s", stack, g, want)
		}
	}
}

var spinSink float64

// spin burns CPU in this package for about ns nanoseconds.
func spin(ns float64) {
	x := 1.0
	for i := 0; i < int(ns/2); i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink = x
}

func TestBenchmarkJSONDeclaresPerLayer(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(bench.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		if got := bench.PerLayer[i]; got.Name != pl.name || got.Unit != pl.unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, got.Name, got.Unit, pl.name, pl.unit)
		}
	}
}
