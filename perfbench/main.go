// Command perfbench is the repository benchmark: it runs one named
// workload against the D.A.V.I.D.E. telemetry and control plane, checks
// the program's outputs, and prints its metrics as one JSON line.
//
//	perfbench --workload fleet-1k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run (see
// README.md for every metric, workload and tolerance).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// phase is what one measured run of a workload produced.
type phase struct {
	ops    int             // ops attempted
	lat    []time.Duration // latency of every op, or of an even sample of them
	units  int64           // work units completed
	failed int             // ops that failed
}

func (p *phase) merge(o phase) {
	p.ops += o.ops
	p.lat = append(p.lat, o.lat...)
	p.units += o.units
	p.failed += o.failed
}

// benchLoad is one named benchmark workload.
type benchLoad interface {
	// setup generates the inputs from the seed, builds the plant and runs
	// one untimed warm-up op. A later setup replaces the earlier plant.
	setup(seed int64) error
	// run drives whole rounds of ops until d has elapsed.
	run(d time.Duration) (phase, error)
	// check verifies every output the runs since setup produced.
	check() error
	// layers measures the workload's per-layer costs from outside,
	// adding them to m.
	layers(m map[string]float64) error
	// tailPct is the fixed tail percentile reported as op_tail_ms.
	tailPct() float64
	// procs is the GOMAXPROCS the workload runs under.
	procs() int
	close()
}

var workloads = map[string]func() benchLoad{
	"fleet-1k":     func() benchLoad { return &fleetLoad{} },
	"control-loop": func() benchLoad { return &controlLoad{} },
	"query-mix":    func() benchLoad { return &queryLoad{} },
}

// setupRounds is how many times a run builds its plant; setup_s is
// their median, so a set-up that a preemption or a GC cycle slowed does
// not move the figure.
const setupRounds = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-1k, control-loop or query-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	var (
		res result
		err error
	)
	d := time.Duration(*seconds) * time.Second
	runtime.GOMAXPROCS(mk().procs())
	if *trace == 0 {
		res, err = untraced(mk, *seed, d)
	} else {
		res, err = traced(mk, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("seed=%d GOMAXPROCS=%d of %d CPUs workload=%s\n", *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), *name)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timed runs one measured phase, from a collected heap, and reports its
// wall and CPU time and the host steal over it.
func timed(w benchLoad, d time.Duration) (p phase, wall, cpu time.Duration, steal float64, err error) {
	runtime.GC()
	s0, okSteal := readSteal()
	c0 := cpuTime()
	t0 := time.Now()
	p, err = w.run(d)
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	if s1, ok := readSteal(); ok && okSteal {
		steal = stealPct(s0, s1)
	}
	return p, wall, cpu, steal, err
}

// report prints the run report: ops, op-time quartiles and tail, and
// steal.
func report(label string, p phase, wall time.Duration, steal float64) {
	ms := msOf(p.lat)
	fmt.Printf("%s: ops attempted=%d failed=%d units=%d wall=%.3fs op_ms q1=%.4f q2=%.4f q3=%.4f p90=%.4f p99=%.4f steal=%.2f%%\n",
		label, p.ops, p.failed, p.units, wall.Seconds(),
		quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.75), quantile(ms, 0.9), quantile(ms, 0.99), steal)
}

// untraced measures the end-to-end metrics.
func untraced(mk func() benchLoad, seed int64, d time.Duration) (result, error) {
	var (
		w      benchLoad
		setups []float64
	)
	for i := 0; i < setupRounds; i++ {
		if w != nil {
			w.close()
			// Free the earlier plant and return its pages, so peak RSS
			// is one plant's, not whatever the scavenger had not yet
			// returned of the earlier ones.
			debug.FreeOSMemory()
		}
		w = mk()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	fmt.Printf("setup_s rounds=%v max_rss_mb after set-up=%.1f\n", setups, maxRSSMB())

	p, wall, cpu, steal, err := timed(w, d)
	if err != nil {
		return result{}, err
	}
	report("untraced", p, wall, steal)
	if p.ops == 0 {
		return result{}, fmt.Errorf("no op completed in %v", d)
	}
	correct := true
	if err := w.check(); err != nil {
		fmt.Printf("check failed: %v\n", err)
		correct = false
	}
	ms := msOf(p.lat)
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {float64(p.units) / wall.Seconds(), "1/s"},
		"op_p50_ms":        {quantile(ms, 0.5), "ms"},
		"op_tail_ms":       {quantile(ms, w.tailPct()/100), "ms"},
		"cpu_ms_per_op":    {float64(cpu) / 1e6 / float64(p.ops), "ms"},
		"max_rss_mb":       {maxRSSMB(), "MB"},
	}
	fmt.Printf("op_tail_ms is p%g over %d latencies of %d ops\n", w.tailPct(), len(p.lat), p.ops)
	return result{Correct: correct, Attempted: p.ops, Failed: p.failed, Metrics: m}, nil
}

// traced measures the per-layer metrics: half the run untraced, half
// under the CPU profiler, then the layer costs timed from outside.
func traced(mk func() benchLoad, seed int64, d time.Duration) (result, error) {
	w := mk()
	if err := w.setup(seed); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer w.close()

	// Quarters alternate untraced and traced (U T U T), so drift over the
	// run (a growing store, a busier host) does not read as overhead.
	var (
		pa, pb              phase
		wallA, wallB, cpuB  time.Duration
		samples             []stackSample
		allocBytes, gcCount uint64
	)
	for q := 0; q < 4; q++ {
		if q%2 == 0 {
			p, wall, _, steal, err := timed(w, d/4)
			if err != nil {
				return result{}, err
			}
			report("untraced", p, wall, steal)
			pa.merge(p)
			wallA += wall
			continue
		}
		prof, err := startProfile()
		if err != nil {
			return result{}, err
		}
		a0, _, g0 := heapStats()
		p, wall, cpu, steal, err := timed(w, d/4)
		a1, _, g1 := heapStats()
		s, perr := prof.stop()
		if err := errors.Join(err, perr); err != nil {
			return result{}, err
		}
		report("traced", p, wall, steal)
		pb.merge(p)
		wallB += wall
		cpuB += cpu
		samples = append(samples, s...)
		allocBytes += a1 - a0
		gcCount += g1 - g0
	}
	if pa.ops == 0 || pb.ops == 0 {
		return result{}, fmt.Errorf("no op completed in %v", d/4)
	}
	correct := true
	if err := w.check(); err != nil {
		fmt.Printf("check failed: %v\n", err)
		correct = false
	}

	vals := map[string]float64{}
	ops := float64(pb.ops)
	for group, cpu := range attribute(samples) {
		vals[group+".self_cpu_ms_per_op"] = float64(cpu) / 1e6 / ops
	}
	fmt.Printf("traced cpu: %.1f ms/op over %d ops\n", float64(cpuB)/1e6/ops, pb.ops)
	vals["runtime.alloc_kb_per_op"] = float64(allocBytes) / 1024 / ops
	vals["runtime.gc_cycles_per_op"] = float64(gcCount) / ops
	tputA := float64(pa.units) / wallA.Seconds()
	tputB := float64(pb.units) / wallB.Seconds()
	vals["bench.trace_overhead_pct"] = 100 * (tputA - tputB) / tputA

	if err := w.layers(vals); err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	m := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = metric{vals[pl.name], pl.unit}
	}
	for k := range vals {
		if _, ok := m[k]; !ok {
			return result{}, fmt.Errorf("layer metric %q is not declared", k)
		}
	}
	attempted := pa.ops + pb.ops
	return result{Correct: correct, Attempted: attempted, Failed: pa.failed + pb.failed, Metrics: m}, nil
}
