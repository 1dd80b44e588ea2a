package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/predictor"
	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/telemetry"
	"davide/internal/tsdb"
)

// Every traced run reports every per-layer metric. Each layer is timed
// from outside, by calls into its public functions: the telemetry
// stages over fleet-1k's waveforms drawn from the run's seed, the tick
// split over the control-loop cells, and the query service over the
// reference power/clean replay. A workload passes its own cells or
// plant where it has them; elsewhere the figures are stand-ins, not that
// workload's own.

// stageBudget bounds each stage measurement's timed loop.
const stageBudget = 150 * time.Millisecond

// stageNodes is how many of fleet-1k's nodes the stage costs sample.
const stageNodes = 64

// layerPlan carries what the workload already built for the suite.
type layerPlan struct {
	in        *controlInputs  // inputs of cells
	cells     []cell          // control cells to split (nil: the replay's cell)
	liveTicks []time.Duration // their live ticks
	query     *queryPlant     // plant to query (nil: the reference replay)
}

func sharedLayers(m map[string]float64, seed int64, plan layerPlan) error {
	if err := stageCosts(m, fleetWaves(seed, stageNodes)); err != nil {
		return fmt.Errorf("stages: %w", err)
	}
	if err := routeCosts(m); err != nil {
		return fmt.Errorf("mqtt: %w", err)
	}
	if plan.query == nil {
		var err error
		if plan.query, err = replayPlant(); err != nil {
			return err
		}
	}
	if plan.cells == nil {
		plan.in, plan.cells, plan.liveTicks = plan.query.in, []cell{plan.query.cell}, plan.query.ticks
	}
	if err := tickSplit(m, plan.in, plan.cells, plan.liveTicks); err != nil {
		return fmt.Errorf("tick split: %w", err)
	}
	if err := serveCosts(m, plan.query, seed); err != nil {
		return fmt.Errorf("query service: %w", err)
	}
	return nil
}

// perSample repeats fn (which processes n samples per call) until the
// budget is spent and returns ns and heap allocations per sample.
func perSample(n int, fn func() error) (ns, allocs float64, err error) {
	calls := 0
	a0 := allocCount()
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < stageBudget {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		calls++
	}
	el := time.Since(t0)
	total := float64(calls * n)
	return float64(el.Nanoseconds()) / total, float64(allocCount()-a0) / total, nil
}

// gatewayMonitor builds the sampling chain a plane gateway uses (the
// fleet GatewaySpec defaults at fleet-1k's rate).
func gatewayMonitor(seed int64) (*monitors.Monitor, error) {
	return monitors.New(monitors.Spec{
		Class:        monitors.EnergyGateway,
		RawRate:      fleetRate * gwOversample,
		OutputRate:   fleetRate,
		Averaged:     true,
		Bits:         gwBits,
		NoiseLSB:     gwNoiseLSB,
		ClockOffsetS: gwClockSigma,
		FullScale:    gwFullScale,
	}, seed)
}

// stageCosts measures synthesis, encode, decode, ingest and tsdb append
// over fleet-1k's waveforms.
func stageCosts(m map[string]float64, waves []nodeWave) error {
	mons := make([]*monitors.Monitor, len(waves))
	for i := range mons {
		var err error
		if mons[i], err = gatewayMonitor(int64(1000 + i)); err != nil {
			return err
		}
	}
	perWindow := fleetRate * fleetWindowS

	// sensor/monitors: one window of every sampled node per call.
	var batches []gateway.Batch
	ns, allocs, err := perSample(len(waves)*perWindow, func() error {
		batches = batches[:0]
		for i, w := range waves {
			s, err := mons[i].Observe(w.signal(), 0, fleetWindowS)
			if err != nil {
				return err
			}
			for k := 0; k < len(s); k += fleetBatch {
				b := gateway.Batch{Node: i, T0: s[k].T, Dt: 1.0 / fleetRate}
				for _, x := range s[k:min(k+fleetBatch, len(s))] {
					b.Samples = append(b.Samples, x.P)
				}
				batches = append(batches, b)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sensor.synth_ns_per_sample"], m["sensor.synth_allocs_per_sample"] = ns, allocs
	samples := len(waves) * perWindow

	// gateway encode.
	payloads := make([][]byte, len(batches))
	var buf []byte
	ns, allocs, err = perSample(samples, func() error {
		wire := 0
		for i, b := range batches {
			var err error
			if buf, err = b.AppendEncode(buf[:0], gateway.CodecBinary); err != nil {
				return err
			}
			payloads[i] = append(payloads[i][:0], buf...)
			wire += len(buf)
		}
		m["gateway.wire_bytes_per_sample"] = float64(wire) / float64(samples)
		return nil
	})
	if err != nil {
		return err
	}
	m["gateway.encode_ns_per_sample"], m["gateway.encode_allocs_per_sample"] = ns, allocs

	// gateway decode.
	var scratch []float64
	ns, allocs, err = perSample(samples, func() error {
		for _, p := range payloads {
			b, err := gateway.DecodeBatchInto(p, scratch)
			if err != nil {
				return err
			}
			scratch = b.Samples
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["gateway.decode_ns_per_sample"], m["gateway.decode_allocs_per_sample"] = ns, allocs

	// telemetry ingest: the subscriber handler (decode + aggregate +
	// store commit) into a fresh store per call.
	topics := make([]string, len(batches))
	for i, b := range batches {
		topics[i] = gateway.PowerTopic(b.Node)
	}
	var ingestNs time.Duration
	calls := 0
	a0 := allocCount()
	for calls == 0 || ingestNs < stageBudget {
		h := telemetry.NewAggregatorOn(tsdb.New(tsdb.Options{})).Handler()
		t0 := time.Now()
		for i, p := range payloads {
			h(mqtt.Message{Topic: topics[i], Payload: p})
		}
		ingestNs += time.Since(t0)
		calls++
	}
	m["telemetry.ingest_ns_per_sample"] = float64(ingestNs.Nanoseconds()) / float64(calls*samples)
	m["telemetry.ingest_allocs_per_sample"] = float64(allocCount()-a0) / float64(calls*samples)

	// tsdb append over a short and a long horizon.
	for _, h := range []struct {
		name    string
		horizon float64
	}{{"short", 300}, {"long", 2800}} {
		ns, bps, err := appendCost(waves[:appendNodes], h.horizon)
		if err != nil {
			return err
		}
		m["tsdb.append_ns_per_sample."+h.name] = ns
		if h.name == "short" {
			m["tsdb.bytes_per_sample"] = bps
		}
	}
	return nil
}

// appendNodes is how many series the tsdb append cost fills.
const appendNodes = 8

// appendCost fills a fresh store with every node's quantised waveform
// over [0, horizon) in fleet-sized batches and returns ns per sample and
// stored bytes per sample, repeating short fills until the budget.
func appendCost(waves []nodeWave, horizon float64) (ns, bytesPerSample float64, err error) {
	lsb := gwFullScale / math.Exp2(gwBits)
	dt := 1.0 / fleetRate
	n := int(horizon * fleetRate)
	series := make([][]float64, len(waves))
	for i, w := range waves {
		sig := w.signal()
		series[i] = make([]float64, n)
		for k := range series[i] {
			series[i][k] = math.Round(sig.PowerAt(float64(k)*dt)/lsb) * lsb
		}
	}
	var el time.Duration
	calls := 0
	for calls == 0 || el < stageBudget {
		db := tsdb.New(tsdb.Options{})
		t0 := time.Now()
		for k := 0; k < n; k += fleetBatch {
			for i := range series {
				db.AppendBatch(i, float64(k)*dt, dt, series[i][k:min(k+fleetBatch, n)])
			}
		}
		el += time.Since(t0)
		calls++
		bytesPerSample = db.Stats().BytesPerSample
	}
	return float64(el.Nanoseconds()) / float64(calls*n*len(waves)), bytesPerSample, nil
}

// routeCosts times publishes through one broker with 1, 128 and 1024
// subscriber sessions, and forwards over a bridge between two brokers.
func routeCosts(m map[string]float64) error {
	payload, err := gateway.Batch{Node: 0, T0: 0, Dt: 0.02, Samples: make([]float64, fleetBatch)}.EncodeWith(gateway.CodecBinary)
	if err != nil {
		return err
	}
	for _, s := range []int{1, 128, 1024} {
		ns, err := routeCost(s, payload)
		if err != nil {
			return fmt.Errorf("%d sessions: %w", s, err)
		}
		m[fmt.Sprintf("mqtt.route_ns_per_publish.s%d", s)] = ns
	}
	ns, err := bridgeCost(payload)
	if err != nil {
		return fmt.Errorf("bridge: %w", err)
	}
	m["mqtt.bridge_ns_per_msg"] = ns
	return nil
}

// burst is how many messages are published before waiting for their
// delivery; it stays below the broker queue depth so nothing drops.
const burst = 256

// publishTimed publishes bursts on topic until the budget is spent,
// waiting for each burst to arrive, and returns ns per message.
func publishTimed(pub *mqtt.Client, topic string, payload []byte, got *atomic.Int64) (float64, error) {
	sent := int64(0)
	wait := func() error {
		deadline := time.Now().Add(10 * time.Second)
		for got.Load() < sent {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d of %d messages delivered", got.Load(), sent)
			}
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}
	// One untimed burst settles subscriptions and connections.
	for k := 0; k < burst; k++ {
		if err := pub.Publish(topic, payload, 0, false); err != nil {
			return 0, err
		}
	}
	sent += burst
	if err := wait(); err != nil {
		return 0, err
	}
	start, base := time.Now(), sent
	for time.Since(start) < stageBudget {
		for k := 0; k < burst; k++ {
			if err := pub.Publish(topic, payload, 0, false); err != nil {
				return 0, err
			}
		}
		if err := pub.Flush(); err != nil {
			return 0, err
		}
		sent += burst
		if err := wait(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(sent-base), nil
}

// routeCost: sessions subscribers each on its own node topic, one
// publisher on node 0's topic — one delivery per publish, so the time
// is the broker's route over all sessions.
func routeCost(sessions int, payload []byte) (float64, error) {
	b, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	b.QueueDepth = 4 * burst
	var got atomic.Int64
	var clients []*mqtt.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		opts := mqtt.ClientOptions{ClientID: fmt.Sprintf("sub%d", i)}
		if i == 0 {
			opts.OnMessage = func(mqtt.Message) { got.Add(1) }
		}
		c, err := mqtt.Dial(b.Addr(), opts)
		if err != nil {
			return 0, err
		}
		clients = append(clients, c)
		if err := c.Subscribe(mqtt.Subscription{Filter: gateway.PowerTopic(i)}); err != nil {
			return 0, err
		}
	}
	pub, err := mqtt.Dial(b.Addr(), mqtt.ClientOptions{ClientID: "pub"})
	if err != nil {
		return 0, err
	}
	clients = append(clients, pub)
	return publishTimed(pub, gateway.PowerTopic(0), payload, &got)
}

// bridgeCost: publisher → source broker → bridge → target broker →
// subscriber, per message.
func bridgeCost(payload []byte) (float64, error) {
	src, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer src.Close()
	dst, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer dst.Close()
	src.QueueDepth, dst.QueueDepth = 4*burst, 4*burst
	br, err := mqtt.NewBridge(src.Addr(), dst.Addr(), mqtt.BridgeOptions{
		Name:       "bench",
		Filters:    []mqtt.Subscription{{Filter: gateway.TopicPrefix + "/#"}},
		QueueDepth: 4 * burst,
	})
	if err != nil {
		return 0, err
	}
	defer br.Close()
	var got atomic.Int64
	sub, err := mqtt.Dial(dst.Addr(), mqtt.ClientOptions{ClientID: "sub", OnMessage: func(mqtt.Message) { got.Add(1) }})
	if err != nil {
		return 0, err
	}
	defer sub.Close()
	if err := sub.Subscribe(mqtt.Subscription{Filter: gateway.TopicPrefix + "/#"}); err != nil {
		return 0, err
	}
	pub, err := mqtt.Dial(src.Addr(), mqtt.ClientOptions{ClientID: "pub"})
	if err != nil {
		return 0, err
	}
	defer pub.Close()
	return publishTimed(pub, gateway.PowerTopic(0), payload, &got)
}

// timedSource is the controller's telemetry source with every read
// timed.
type timedSource struct {
	db   *tsdb.DB
	read time.Duration
}

func (s *timedSource) MeanPower(node int, t0, t1 float64) (float64, error) {
	start := time.Now()
	v, err := s.db.MeanPower(node, t0, t1)
	s.read += time.Since(start)
	return v, err
}

func (s *timedSource) Energy(node int, t0, t1 float64) (float64, error) {
	start := time.Now()
	v, err := s.db.Energy(node, t0, t1)
	s.read += time.Since(start)
	return v, err
}

func (s *timedSource) IngestedSamples(node int) int {
	start := time.Now()
	v := s.db.IngestedSamples(node)
	s.read += time.Since(start)
	return v
}

// tickSplit runs the cells through sched.NewController on a plain store
// with no transport: StreamTick commits each tick's levels straight into
// the store and the telemetry source times every read. The live tick
// minus this in-memory tick is the transport's share.
func tickSplit(m map[string]float64, in *controlInputs, cells []cell, liveTicks []time.Duration) error {
	var ticks []time.Duration
	var commitIn, readIn time.Duration
	for _, c := range cells {
		cfg := in.liveConfig(c).Sched
		cfg.Nodes = ctlNodes
		cfg.IdleNodePowerW = 360 // core.System's idle draw
		jobs := c.jobs
		if kind, name, _ := strings.Cut(c.axis, "/"); kind == "scenario" {
			sc, err := scenario.Get(name)
			if err != nil {
				return err
			}
			if jobs, err = sc.RetimeArrivals(jobs); err != nil {
				return err
			}
			cfg.CapSchedule = sc.CapSchedule(ctlCapW)
			cfg.CapRampWPerS = sc.RampWPerS
			cfg.BrownoutStaleFrac = sc.BrownoutStaleFrac
		}
		if cfg.PowerAware() {
			p := predictor.NewMeanPerKey()
			if err := p.Train(in.train); err != nil {
				return err
			}
			online, err := predictor.NewOnline(p, in.train, 8, 0)
			if err != nil {
				return err
			}
			cfg.Trainer = online
		}
		src := &timedSource{db: tsdb.New(tsdb.Options{})}
		perTick := int(ctlRate * ctlTickS)
		buf := make([]float64, perTick)
		// Only the commits and reads inside a timed tick (between two
		// Perturb calls) count toward it.
		var (
			last               time.Time
			commit, commitMark time.Duration
			readMark           time.Duration
		)
		hooks := sched.Hooks{
			Perturb: func(_, _ float64, _ []float64) {
				now := time.Now()
				if !last.IsZero() {
					ticks = append(ticks, now.Sub(last))
					commitIn += commit - commitMark
					readIn += src.read - readMark
				}
				last, commitMark, readMark = now, commit, src.read
			},
			StreamTick: func(t0, _ float64, levels []float64) error {
				start := time.Now()
				for n, l := range levels {
					for k := range buf {
						buf[k] = l
					}
					src.db.AppendBatch(n, t0, 1.0/ctlRate, buf)
				}
				commit += time.Since(start)
				return nil
			},
		}
		ctl, err := sched.NewController(cfg, jobs, src, hooks)
		if err != nil {
			return err
		}
		if _, err := ctl.Run(); err != nil {
			return err
		}
	}
	if len(ticks) == 0 || len(liveTicks) == 0 {
		return errors.New("no ticks to split")
	}
	n := float64(len(ticks))
	memTick := meanDur(ticks)
	m["tsdb.commit_us_per_tick"] = float64(commitIn.Nanoseconds()) / 1e3 / n
	m["tsdb.read_us_per_tick"] = float64(readIn.Nanoseconds()) / 1e3 / n
	m["sched.tick_self_us"] = memTick - m["tsdb.commit_us_per_tick"] - m["tsdb.read_us_per_tick"]
	m["fleet.transport_us_per_tick"] = meanDur(liveTicks) - memTick
	return nil
}

// meanDur is the mean of ds in microseconds.
func meanDur(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(len(ds))
}

// serveCosts times each query kind through the service from one client,
// cycling the seeded mix until the budget is spent, then the store reads
// a cold window costs.
func serveCosts(m map[string]float64, qp *queryPlant, seed int64) error {
	srv := qp.newServer()
	h := srv.Handler()
	distinct, mix, err := qp.buildQueries(seed)
	if err != nil {
		return err
	}
	var lat [qKinds][]float64
	hits, misses, bytes, n := 0, 0, 0, 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < 2*stageBudget; i = (i + 1) % len(mix) {
		q := distinct[mix[i]]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lat[q.kind] = append(lat[q.kind], float64(time.Since(t0).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", q.path, rec.Code)
		}
		switch rec.Header().Get("X-Cache") {
		case "hit":
			hits++
		case "miss":
			misses++
		}
		bytes += rec.Body.Len()
		n++
	}
	for k, name := range qKindNames {
		if len(lat[k]) == 0 {
			return fmt.Errorf("no %s query in the budget", name)
		}
		sort.Float64s(lat[k])
		m["energyserve."+name+"_us"] = quantile(lat[k], 0.5)
	}
	m["energyserve.cache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	m["energyserve.bytes_per_response"] = float64(bytes) / float64(n)

	// Store reads of the cold windows.
	var fetchNs, energyNs time.Duration
	points, energies := 0, 0
	db := qp.plant.Store
	for time.Since(start) < 3*stageBudget || energies == 0 {
		for _, q := range distinct {
			if q.kind != qCold {
				continue
			}
			t0 := time.Now()
			pts, err := db.Fetch(q.node, q.t0, q.t1, q.res)
			fetchNs += time.Since(t0)
			if err != nil {
				return err
			}
			points += len(pts)
			t0 = time.Now()
			if _, err := db.EnergyAt(q.node, q.t0, q.t1, q.res); err != nil {
				return err
			}
			energyNs += time.Since(t0)
			energies++
		}
	}
	m["tsdb.fetch_ns_per_point"] = float64(fetchNs.Nanoseconds()) / float64(max(1, points))
	m["tsdb.energy_query_us"] = float64(energyNs.Nanoseconds()) / 1e3 / float64(energies)
	return nil
}
