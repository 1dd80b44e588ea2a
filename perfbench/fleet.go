package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"davide/internal/fleet"
	"davide/internal/sensor"
)

// The fleet-1k geometry is E20's 1k-node tier: 1024 nodes on an 8-rack
// plane, 50 Hz telemetry in 64-sample batches, 4 s windows.
const (
	fleetNodes   = 1024
	fleetRacks   = 8
	fleetRate    = 50
	fleetBatch   = 64
	fleetWindowS = 4
)

// The gateway sampling chain the plane builds by default (fleet
// GatewaySpec defaults): 16x oversampled 12-bit ADC over a 20 kW full
// scale with 0.5 LSB noise and a 5 us RMS clock offset.
const (
	gwOversample = 16
	gwBits       = 12
	gwFullScale  = 20000
	gwNoiseLSB   = 0.5
	gwClockSigma = 5e-6
)

// nodeWave is one node's synthetic draw: a constant base plus a square
// wave between 0 and High.
type nodeWave struct {
	Base, High, Period, Duty, Phase float64
}

// fleetWaves draws distinct per-node waveforms from the seed, so a
// cross-node mix-up cannot cancel out.
func fleetWaves(seed int64, n int) []nodeWave {
	rng := rand.New(rand.NewSource(seed))
	out := make([]nodeWave, n)
	for i := range out {
		period := 0.5 + 2.5*rng.Float64()
		out[i] = nodeWave{
			Base:   200 + 300*rng.Float64(),
			High:   300 + 600*rng.Float64(),
			Period: period,
			Duty:   0.2 + 0.6*rng.Float64(),
			Phase:  period * rng.Float64(),
		}
	}
	return out
}

func (w nodeWave) signal() sensor.Signal {
	return sensor.Sum{
		sensor.Const(w.Base),
		sensor.Square{Low: 0, High: w.High, Period: w.Period, Duty: w.Duty, Phase: w.Phase},
	}
}

func fleetStreams(waves []nodeWave) []fleet.NodeStream {
	out := make([]fleet.NodeStream, len(waves))
	for i, w := range waves {
		out[i] = fleet.NodeStream{Node: i, Signal: w.signal()}
	}
	return out
}

// energy is the closed-form integral of the waveform over [t0, t1].
func (w nodeWave) energy(t0, t1 float64) float64 {
	// highTime is the time spent high in [phase, phase+t].
	highTime := func(t float64) float64 {
		full := math.Floor(t / w.Period)
		rem := t - full*w.Period
		return full*w.Duty*w.Period + math.Min(rem, w.Duty*w.Period)
	}
	return w.Base*(t1-t0) + w.High*(highTime(t1-w.Phase)-highTime(t0-w.Phase))
}

// energyTol bounds |stored − exact| window energy for one node. The
// gateway averages 16 raw conversions per output sample and the store
// integrates left rectangles:
//   - quantisation rounds every conversion to the LSB grid: at most
//     LSB/2 watts over the whole window;
//   - conversion noise (0.5 LSB RMS per conversion) averages down over
//     the window's conversions; six standard deviations;
//   - each square edge falls between two conversions, misplacing up to
//     High/rawRate joules;
//   - each output sample is stamped at the centre of its averaging
//     interval, (N−1)/2 raw periods late, plus the clock offset (six RMS),
//     which shifts a window boundary by that much: up to (Base+High)
//     times the shift.
func (w nodeWave) energyTol(t0, t1 float64) float64 {
	rawRate := float64(fleetRate * gwOversample)
	lsb := gwFullScale / math.Exp2(gwBits)
	span := t1 - t0
	quant := span * lsb / 2
	noise := 6 * gwNoiseLSB * lsb * math.Sqrt(span*rawRate) / rawRate
	edges := 2*math.Ceil(span/w.Period) + 2
	shift := (gwOversample-1)/(2*rawRate) + 6*gwClockSigma
	return quant + noise + edges*w.High/rawRate + (w.Base+w.High)*shift
}

// fleetLoad is the fleet-1k workload: the whole fleet streamed one 4 s
// window per op through the tiered plane, in advancing virtual time.
type fleetLoad struct {
	seed    int64
	waves   []nodeWave
	streams []fleet.NodeStream
	plane   *fleet.Plane
	windows int // windows streamed since setup, warm-up included
	// Per-window transport accounting, summed.
	bridgeDropped, forwarded int64
	undelivered              int
}

func (w *fleetLoad) tailPct() float64 { return 75 }
func (w *fleetLoad) procs() int       { return runtime.NumCPU() }

func (w *fleetLoad) setup(seed int64) error {
	w.seed = seed
	w.waves = fleetWaves(seed, fleetNodes)
	w.streams = fleetStreams(w.waves)
	p, err := fleet.NewPlane(fleet.PlaneSpec{
		Racks:     fleetRacks,
		NodesHint: fleetNodes,
		Gateway:   fleet.GatewaySpec{SampleRate: fleetRate, BatchSamples: fleetBatch, ClientPrefix: "bench"},
	})
	if err != nil {
		return err
	}
	w.plane = p
	_, err = w.window() // warm-up: dials every gateway
	return err
}

// window streams the next window of the whole fleet.
func (w *fleetLoad) window() (int, error) {
	t0 := float64(w.windows * fleetWindowS)
	st, err := w.plane.Stream(context.Background(), w.streams, t0, t0+fleetWindowS)
	if err != nil {
		return 0, err
	}
	w.windows++
	w.bridgeDropped += st.Bridge.Dropped
	w.forwarded += st.Bridge.Forwarded
	for _, ns := range st.PerNode {
		if !ns.Delivered {
			w.undelivered++
		}
	}
	return st.Samples, nil
}

func (w *fleetLoad) run(d time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		n, err := w.window()
		if err != nil {
			return p, err
		}
		p.ops++
		p.lat = append(p.lat, time.Since(t0))
		p.units += int64(n)
	}
	return p, nil
}

// brokerDropped sums the rack and spine brokers' queue-overflow drops.
func (w *fleetLoad) brokerDropped() int64 {
	n := w.plane.SpineBroker().Stats.Dropped.Load()
	for r := 0; r < w.plane.Racks(); r++ {
		n += w.plane.RackBroker(r).Stats.Dropped.Load()
	}
	return n
}

func (w *fleetLoad) check() error {
	if n := w.brokerDropped() + w.bridgeDropped; n != 0 || w.undelivered != 0 {
		return fmt.Errorf("transport lost data: %d broker/bridge drops, %d undelivered node windows", n, w.undelivered)
	}
	db := w.plane.Store()
	if st := db.Stats(); st.Duplicates != 0 || st.OutOfOrderDropped != 0 {
		return fmt.Errorf("store saw %d duplicates and %d out-of-order drops", st.Duplicates, st.OutOfOrderDropped)
	}
	perWindow := fleetWindowS * fleetRate
	return checkFleet(w.waves, w.windows, perWindow, db.IngestedSamples, db.Energy)
}

// checkFleet verifies each node's sample count and each node window's
// stored energy against the closed-form integral.
func checkFleet(waves []nodeWave, windows, perWindow int,
	samples func(node int) int, energy func(node int, t0, t1 float64) (float64, error)) error {
	for n, wave := range waves {
		if got, want := samples(n), windows*perWindow; got != want {
			return fmt.Errorf("node %d: %d samples stored, want %d", n, got, want)
		}
		for k := 0; k < windows; k++ {
			t0 := float64(k * fleetWindowS)
			t1 := t0 + fleetWindowS
			got, err := energy(n, t0, t1)
			if err != nil {
				return fmt.Errorf("node %d window %d: %w", n, k, err)
			}
			want := wave.energy(t0, t1)
			if tol := wave.energyTol(t0, t1); math.Abs(got-want) > tol {
				return fmt.Errorf("node %d window [%g, %g): stored %.3f J, exact %.3f J, tolerance %.3f J", n, t0, t1, got, want, tol)
			}
		}
	}
	return nil
}

func (w *fleetLoad) layers(m map[string]float64) error {
	m["mqtt.broker_dropped"] = float64(w.brokerDropped())
	m["mqtt.bridge_forwarded"] = float64(w.forwarded)
	return sharedLayers(m, w.seed, layerPlan{})
}

func (w *fleetLoad) close() {
	if w.plane != nil {
		_ = w.plane.Close()
	}
}
