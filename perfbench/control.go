package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"davide/internal/accounting"
	"davide/internal/core"
	"davide/internal/fleet"
	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/tournament"
	"davide/internal/tsdb"
	"davide/internal/workload"
)

// The control-loop geometry is the E19/E22 reference: 12 nodes in two
// 6-node capping racks, a 14 kW cap, 15 s ticks, 4 Hz telemetry and 24
// hot jobs per set, drawn after a 600-job predictor training batch.
const (
	ctlNodes      = 12
	ctlRackSize   = 6
	ctlCapW       = 14000
	ctlTickS      = 15
	ctlRate       = 4
	ctlTrainJobs  = 600
	ctlJobs       = 24
	ctlChaosBatch = 16
)

// The fixed slice of the tournament grid the workload cycles through,
// policies outermost. Each cell schedules one of ctlJobSets job sets
// drawn from the seed (cell i takes set i mod ctlJobSets), so one run
// averages over several draws of the job mix.
var (
	ctlPolicies = []string{"fifo", "easy", "power", "weighted"}
	ctlAxes     = []string{"clean", "chaos/" + fleet.ChaosLossyRack, "scenario/" + scenario.ScenarioRampChaos}
)

const ctlJobSets = 8

// axisOverBound is the documented worst true-power overshoot (percent)
// a power-aware policy may reach on an axis: E19's clean and lossy-rack
// bounds, and the scenario registry's own bound.
func axisOverBound(axis string) (float64, error) {
	switch axis {
	case "clean":
		return 5, nil
	case "chaos/" + fleet.ChaosLossyRack:
		return 8, nil
	case "scenario/" + scenario.ScenarioRampChaos:
		sc, err := scenario.Get(scenario.ScenarioRampChaos)
		if err != nil {
			return 0, err
		}
		return sc.MaxOverPct, nil
	}
	return 0, fmt.Errorf("no overshoot bound for axis %q", axis)
}

// powerBlindMinOverPct is the overshoot every power-blind policy must
// exceed on clean transport: the workload oversubscribes the cap.
const powerBlindMinOverPct = 15

// refSeed draws the E19/E22 reference workload (its first job set), the
// inputs on which E19, E22 and the tournament assert the overshoot
// bounds. Every run checks the bounds there and fails its correctness
// on a breach. On the run's own seeded cells a breach is only reported:
// the bounds fail on some seeds (see README.md), and a correctness that
// depends on the seed tells nothing about the code under test.
const refSeed = 7

type cell struct {
	policy tournament.Policy
	axis   string
	set    int            // index of the job set
	jobs   []workload.Job // the job set the cell schedules
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/set%d", c.policy.Name, c.axis, c.set) }

func (in *controlInputs) cells() ([]cell, error) {
	var out []cell
	for _, name := range ctlPolicies {
		p, err := tournament.GetPolicy(name)
		if err != nil {
			return nil, err
		}
		for _, axis := range ctlAxes {
			set := len(out) % len(in.sets)
			out = append(out, cell{p, axis, set, in.sets[set]})
		}
	}
	return out, nil
}

// refPowerClean is the power/clean cell of the reference workload: the
// control-loop warm-up and the replay the query service fronts. Its
// cost does not depend on the run's seed; a replay's cost grows with
// the square of its horizon, which a seeded job set draws, and setup_s
// would vary with the seed rather than with the code.
func refPowerClean() (*controlInputs, cell, error) {
	in, err := newControlInputs(refSeed)
	if err != nil {
		return nil, cell{}, err
	}
	p, err := tournament.GetPolicy("power")
	return in, cell{p, "clean", 0, in.sets[0]}, err
}

// controlInputs are the seeded job sets the cells schedule.
type controlInputs struct {
	seed  int64
	train []workload.Job
	sets  [][]workload.Job
}

// newControlInputs draws the E19 hot short-job mix: 1-4 nodes, ~5 min
// runtimes, 60 s interarrivals, each set's submits rebased to zero.
func newControlInputs(seed int64) (*controlInputs, error) {
	cfg := workload.DefaultGeneratorConfig(seed)
	cfg.MaxNodes = 4
	cfg.MeanInterarrival = 60
	cfg.MeanRuntime = 300
	cfg.RuntimeSigma = 0.6
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	train, err := gen.Batch(ctlTrainJobs)
	if err != nil {
		return nil, err
	}
	in := &controlInputs{seed: seed, train: train}
	for k := 0; k < ctlJobSets; k++ {
		work, err := gen.Batch(ctlJobs)
		if err != nil {
			return nil, err
		}
		base := work[0].SubmitAt
		for i := range work {
			work[i].SubmitAt -= base
		}
		in.sets = append(in.sets, work)
	}
	return in, nil
}

// liveConfig is the RunLive configuration of one cell.
func (in *controlInputs) liveConfig(c cell) core.LiveConfig {
	return core.LiveConfig{
		Nodes:      ctlNodes,
		SampleRate: ctlRate,
		RackSize:   ctlRackSize,
		Sched: sched.ControllerConfig{
			Strategy: c.policy.New(),
			Config:   sched.Config{PowerCapW: ctlCapW, ReactiveCapping: c.policy.Reactive},
			TickS:    ctlTickS,
		},
	}
}

// runLive runs one cell on the live plane the way the tournament does.
// cfg carries the cell's LiveConfig with the caller's hooks set.
func (in *controlInputs) runLive(c cell, cfg core.LiveConfig) (*core.LiveResult, *tsdb.DB, error) {
	sys, err := core.NewSystem(in.train)
	if err != nil {
		return nil, nil, err
	}
	var live *core.LiveResult
	kind, name, _ := strings.Cut(c.axis, "/")
	switch kind {
	case "clean":
		live, err = sys.RunLive(c.jobs, cfg)
	case "chaos":
		plan, perr := fleet.ChaosPreset(name, in.seed)
		if perr != nil {
			return nil, nil, perr
		}
		sys.StreamFaults = plan
		sys.StreamBatchSamples = ctlChaosBatch
		live, err = sys.RunLive(c.jobs, cfg)
	case "scenario":
		sc, serr := scenario.Get(name)
		if serr != nil {
			return nil, nil, serr
		}
		var res *core.ScenarioResult
		res, err = sys.RunScenario(sc, in.seed, c.jobs, cfg)
		if err == nil {
			live = &res.LiveResult
		}
	default:
		return nil, nil, fmt.Errorf("unknown axis %q", c.axis)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c, err)
	}
	return live, sys.Store(), nil
}

// cellOutcome is what the checks need from one cell run.
type cellOutcome struct {
	cell        cell
	ticks       int
	maxOverPct  float64
	measuredJ   float64
	ooDropped   int
	starts      map[int]float64
	ends        map[int]float64
	assignments map[int][]int
	records     map[int]accounting.Record
	ledgerLen   int
	store       *tsdb.DB
}

func newCellOutcome(c cell, res *core.LiveResult, db *tsdb.DB) cellOutcome {
	out := cellOutcome{
		cell:        c,
		ticks:       res.Ticks,
		maxOverPct:  res.MaxOverPct,
		measuredJ:   res.MeasuredEnergyJ,
		ooDropped:   res.StoreOutOfOrderDropped,
		starts:      res.Starts,
		ends:        res.Ends,
		assignments: res.Assignments,
		records:     map[int]accounting.Record{},
		ledgerLen:   res.Ledger.Len(),
		store:       db,
	}
	for id := range res.Assignments {
		if rec, err := res.Ledger.Job(id); err == nil {
			out.records[id] = rec
		}
	}
	return out
}

// controlLoad is the control-loop workload: closed-loop capped
// scheduling cycling through the grid slice, one op per control tick.
// Each cell's first run is checked as soon as it ends (and its store
// dropped, so memory does not grow with the run); later runs of the
// cell must repeat it exactly.
type controlLoad struct {
	in       *controlInputs
	cells    []cell
	next     int                    // next cell of the grid to run
	first    map[string]cellOutcome // each cell's first run, store dropped
	errs     []error
	dropped  int64           // broker queue-overflow drops, summed
	liveTick []time.Duration // every timed tick, for the layer split
}

// tailPct is 90, not 99, though a run has the ops for p99: the slowest
// 1% of ticks are those the hypervisor preempted, and p99 spread 0.48
// across five seeds on a shared 2-vCPU host against 0.21 for p90.
func (w *controlLoad) tailPct() float64 { return 90 }

// procs is 1, so its figures are single-CPU figures: the plane's
// broker, gateway and aggregator goroutines share the CPU with the
// controller, and a change that overlaps transport with control cannot
// show a gain here. A tick is one sequential chain (stream, deliver, read,
// admit), and on a shared 2-vCPU host, handing it between CPUs idles and
// wakes them every tick, which the hypervisor charges as steal (13–34%
// per run against 1–12% for query-mix run alongside), and the run-to-run
// spread follows it. On one CPU the chain runs without those wake-ups.
func (w *controlLoad) procs() int { return 1 }

func (w *controlLoad) setup(seed int64) error {
	in, err := newControlInputs(seed)
	if err != nil {
		return err
	}
	cells, err := in.cells()
	if err != nil {
		return err
	}
	w.in, w.cells, w.first = in, cells, map[string]cellOutcome{}
	// Warm-up: the reference power/clean cell, untimed.
	ref, c, err := refPowerClean()
	if err != nil {
		return err
	}
	_, _, err = ref.runLive(c, ref.liveConfig(c))
	return err
}

// runCell runs one cell, timing each tick between successive calls of
// the Perturb hook, and checks its outcome.
func (w *controlLoad) runCell(c cell, ticks *[]time.Duration) (*core.LiveResult, error) {
	cfg := w.in.liveConfig(c)
	var last time.Time
	cfg.Perturb = func(_, _ float64, _ []float64) {
		now := time.Now()
		if ticks != nil && !last.IsZero() {
			*ticks = append(*ticks, now.Sub(last))
		}
		last = now
	}
	res, db, err := w.in.runLive(c, cfg)
	if err != nil {
		return nil, err
	}
	w.dropped += res.BrokerDropped
	o := newCellOutcome(c, res, db)
	ref, repeat := w.first[c.String()]
	switch {
	case repeat:
		if err := checkRepeat(ref, o); err != nil {
			w.errs = append(w.errs, fmt.Errorf("%s repeat: %w", c, err))
		}
	default:
		if err := checkCell(o, ctlNodes); err != nil {
			w.errs = append(w.errs, fmt.Errorf("%s: %w", c, err))
		}
		if err := checkOvershoot(c.policy.PowerAware(), c.axis, o.maxOverPct); err != nil {
			fmt.Printf("note: seed %d %s: %v\n", w.in.seed, c, err)
		}
		o.store, o.records = nil, nil
		w.first[c.String()] = o
	}
	return res, nil
}

func (w *controlLoad) run(d time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	for time.Since(start) < d {
		c := w.cells[w.next]
		w.next = (w.next + 1) % len(w.cells)
		res, err := w.runCell(c, &p.lat)
		if err != nil {
			return p, err
		}
		p.units += int64(res.Ticks)
	}
	p.ops = len(p.lat)
	w.liveTick = append(w.liveTick, p.lat...)
	return p, nil
}

func (w *controlLoad) check() error {
	return errors.Join(errors.Join(w.errs...), checkReference())
}

// checkReference runs the slice's cells on the reference workload, once
// and untimed: each power-aware policy on every axis and each
// power-blind one on clean, where the bounds are documented.
func checkReference() error {
	in, err := newControlInputs(refSeed)
	if err != nil {
		return err
	}
	var errs []error
	for _, name := range ctlPolicies {
		p, err := tournament.GetPolicy(name)
		if err != nil {
			return err
		}
		for _, axis := range ctlAxes {
			if !p.PowerAware() && axis != "clean" {
				continue
			}
			c := cell{p, axis, 0, in.sets[0]}
			res, _, err := in.runLive(c, in.liveConfig(c))
			if err != nil {
				return err
			}
			if err := checkOvershoot(p.PowerAware(), axis, res.MaxOverPct); err != nil {
				errs = append(errs, fmt.Errorf("reference %s: %w", c, err))
			}
		}
	}
	return errors.Join(errs...)
}

func (w *controlLoad) layers(m map[string]float64) error {
	m["mqtt.broker_dropped"] = float64(w.dropped)
	m["mqtt.bridge_forwarded"] = 0 // the control plane has one broker and no bridge
	return sharedLayers(m, w.in.seed, layerPlan{in: w.in, cells: w.cells, liveTicks: w.liveTick})
}

func (w *controlLoad) close() {}
