package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"davide/internal/accounting"
	"davide/internal/core"
	"davide/internal/energyapi"
	"davide/internal/energyserve"
)

// Query kinds of the mix, with their shares.
const (
	qHot    = iota // cached window (60%)
	qCold          // raw window with nocache=1 (20%)
	qUsers         // /v1/users (10%)
	qPhases        // /v1/jobs/{id}/phases (5%)
	qRack          // /v1/racks/{r}/power (5%)
	qKinds
)

var qKindNames = [qKinds]string{"window_hot", "window_cold", "users", "job_phases", "rack_power"}

const (
	queryTenants  = 16
	queryHotKeys  = 32   // distinct hot windows
	queryColdKeys = 128  // distinct cold windows
	queryMixLen   = 4096 // queries in one round of the mix
)

// query is one distinct request of the mix and the body it must return.
type query struct {
	kind int
	path string
	// Window parameters (hot and cold kinds).
	node        int
	t0, t1, res float64
	want        []byte // expected body, computed directly from the plant
}

// queryPlant is a completed power/clean replay the service fronts.
type queryPlant struct {
	in       *controlInputs
	cell     cell // the replayed cell
	plant    core.LivePlant
	makespan float64
	ticks    []time.Duration // the replay's live ticks
	// brokerDropped counts the replay broker's queue-overflow drops.
	brokerDropped int64
}

// replayPlant runs the reference power/clean cell live and keeps its
// plant.
func replayPlant() (*queryPlant, error) {
	in, c, err := refPowerClean()
	if err != nil {
		return nil, err
	}
	qp := &queryPlant{in: in, cell: c}
	cfg := in.liveConfig(c)
	cfg.OnPlant = func(lp core.LivePlant) { qp.plant = lp }
	var last time.Time
	cfg.Perturb = func(_, _ float64, _ []float64) {
		now := time.Now()
		if !last.IsZero() {
			qp.ticks = append(qp.ticks, now.Sub(last))
		}
		last = now
	}
	res, _, err := in.runLive(c, cfg)
	if err != nil {
		return nil, err
	}
	if qp.plant.Store == nil {
		return nil, fmt.Errorf("replay handed over no plant")
	}
	qp.makespan = res.Makespan
	qp.brokerDropped = res.BrokerDropped
	return qp, nil
}

// newServer fronts the plant with a fresh service whose quota never
// rejects: every tenant's bucket holds more tokens than a run can spend.
func (qp *queryPlant) newServer() *energyserve.Server {
	s := energyserve.NewServer(energyserve.Options{QuotaRate: 1e9, QuotaBurst: 1e9})
	s.Bind(energyserve.Backend{
		Store:       qp.plant.Store,
		Ledger:      qp.plant.Ledger,
		Assignments: qp.plant.Assignments,
		Nodes:       qp.plant.Nodes,
		RackSize:    qp.plant.RackSize,
	})
	return s
}

// buildQueries draws the distinct queries and one round of the mix
// (indices into the distinct set) from the seed, and computes every
// expected body directly from the store and ledger.
func (qp *queryPlant) buildQueries(seed int64) (distinct []query, mix []int, err error) {
	rng := rand.New(rand.NewSource(seed))
	db := qp.plant.Store
	// Window shapes cycle through fixed (length, resolution) strata, so
	// every seed queries the same mix of sizes; node and start are drawn.
	window := func(kind int, span, res float64) (query, error) {
		q := query{kind: kind, node: rng.Intn(qp.plant.Nodes), res: res}
		q.t0 = math.Floor(rng.Float64() * (qp.makespan - span))
		q.t1 = q.t0 + span
		q.path = fmt.Sprintf("/v1/nodes/%d/window?t0=%g&t1=%g&res=%g", q.node, q.t0, q.t1, q.res)
		if kind == qCold {
			q.path += "&nocache=1"
		}
		e, err := db.EnergyAt(q.node, q.t0, q.t1, q.res)
		if err != nil {
			return q, err
		}
		pts, err := db.Fetch(q.node, q.t0, q.t1, q.res)
		if err != nil {
			return q, err
		}
		q.want, err = json.Marshal(energyserve.WindowReport{
			Node: q.node, T0: q.t0, T1: q.t1, Res: q.res, EnergyJ: e, MeanW: e / (q.t1 - q.t0), Points: pts,
		})
		return q, err
	}
	byKind := [qKinds][]int{}
	add := func(q query) {
		byKind[q.kind] = append(byKind[q.kind], len(distinct))
		distinct = append(distinct, q)
	}
	for i := 0; i < queryHotKeys; i++ {
		q, err := window(qHot, []float64{60, 120, 240}[i%3], []float64{1, 60}[i/3%2])
		if err != nil {
			return nil, nil, err
		}
		add(q)
	}
	for i := 0; i < queryColdKeys; i++ {
		q, err := window(qCold, []float64{30, 60, 120, 240}[i%4], 0)
		if err != nil {
			return nil, nil, err
		}
		add(q)
	}
	users, err := json.Marshal(qp.plant.Ledger.PerUser())
	if err != nil {
		return nil, nil, err
	}
	add(query{kind: qUsers, path: "/v1/users", want: users})
	assign := qp.plant.Assignments()
	for _, j := range qp.cell.jobs {
		rec, err := qp.plant.Ledger.Job(j.ID)
		if err != nil {
			return nil, nil, err
		}
		ph, err := energyapi.JobPhase(db, rec.App, assign[j.ID], rec.StartAt, rec.EndAt)
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal([]energyapi.Phase{ph})
		if err != nil {
			return nil, nil, err
		}
		add(query{kind: qPhases, path: fmt.Sprintf("/v1/jobs/%d/phases", j.ID), want: body})
	}
	for r := 0; r*qp.plant.RackSize < qp.plant.Nodes; r++ {
		rp := energyserve.RackPower{Rack: r, FirstNode: r * qp.plant.RackSize}
		for n := rp.FirstNode; n < min(rp.FirstNode+qp.plant.RackSize, qp.plant.Nodes); n++ {
			t, pw, err := db.Latest(n)
			if err != nil {
				return nil, nil, err
			}
			if rp.Nodes == 0 || t < rp.AsOf {
				rp.AsOf = t
			}
			rp.Nodes++
			rp.PowerW += pw
		}
		body, err := json.Marshal(rp)
		if err != nil {
			return nil, nil, err
		}
		add(query{kind: qRack, path: fmt.Sprintf("/v1/racks/%d/power", r), want: body})
	}

	// One round holds each kind's exact share, each kind's keys taken in
	// turn, in seeded order.
	shares := [qKinds]float64{0.60, 0.20, 0.10, 0.05, 0.05}
	mix = make([]int, 0, queryMixLen)
	for kind := qKinds - 1; kind >= 0; kind-- {
		n := int(math.Round(shares[kind] * queryMixLen))
		if kind == 0 {
			n = queryMixLen - len(mix)
		}
		for k := 0; k < n; k++ {
			mix = append(mix, byKind[kind][k%len(byKind[kind])])
		}
	}
	rng.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
	return distinct, mix, nil
}

// hashRW is the load generator's ResponseWriter: it hashes the body
// instead of buffering it, so each response is checked cheaply.
type hashRW struct {
	h    http.Header
	code int
	sum  maphash.Hash
}

func newHashRW(seed maphash.Seed) *hashRW {
	w := &hashRW{h: make(http.Header, 4)}
	w.sum.SetSeed(seed)
	return w
}

func (w *hashRW) Header() http.Header         { return w.h }
func (w *hashRW) WriteHeader(c int)           { w.code = c }
func (w *hashRW) Write(p []byte) (int, error) { return w.sum.Write(p) }
func (w *hashRW) reset() {
	w.code = http.StatusOK
	w.sum.Reset()
	delete(w.h, "X-Cache")
}

// client is one closed-loop load generator goroutine's state.
type client struct {
	reqs []*http.Request // its share of the mix, prebuilt
	ids  []int           // distinct-query index of each request
	next int
	pass int // passes over reqs completed
	rw   *hashRW
	lat  []time.Duration // sampled latencies of the current run
	// Ops and outcome counts since setup.
	ops, failed, wrong int
}

// latencyStride: a client records the latency of one op in this many.
// With every op's latency the benchmark's own memory grew with the op
// count, so max_rss_mb rose with throughput and spread 0.25 across
// runs. The sampled positions shift by one each pass over the client's
// share, so every query of the mix is sampled equally often; a fixed
// stride would sample the same few queries every pass.
const latencyStride = 16

// do issues the client's next request, times it and checks the status
// and body.
func (cl *client) do(h http.Handler, want []uint64) {
	i := cl.next
	cl.rw.reset()
	t0 := time.Now()
	h.ServeHTTP(cl.rw, cl.reqs[i])
	if (i+cl.pass)%latencyStride == 0 {
		cl.lat = append(cl.lat, time.Since(t0))
	}
	cl.ops++
	if cl.next = i + 1; cl.next == len(cl.reqs) {
		cl.next, cl.pass = 0, cl.pass+1
	}
	switch {
	case cl.rw.code != http.StatusOK:
		cl.failed++
	case cl.rw.sum.Sum64() != want[cl.ids[i]]:
		cl.wrong++
	}
}

// queryLoad is the query-mix workload: closed-loop clients, one per CPU,
// querying the energy service in-process through its HTTP handler.
type queryLoad struct {
	seed     int64
	qp       *queryPlant
	srv      *energyserve.Server
	distinct []query
	wantSum  []uint64
	clients  []*client
}

// tailPct is 99, not 99.9, though a run has the ops for p99.9: over two
// sets of ten seeds on a shared 2-vCPU host p99.9 spread 0.25 (the
// queries a GC cycle or a preemption lands on), p99 about 0.10.
func (w *queryLoad) tailPct() float64 { return 99 }
func (w *queryLoad) procs() int       { return runtime.NumCPU() }

func (w *queryLoad) setup(seed int64) error {
	var err error
	w.seed = seed
	if w.qp, err = replayPlant(); err != nil {
		return err
	}
	w.srv = w.qp.newServer()
	distinct, mix, err := w.qp.buildQueries(seed)
	if err != nil {
		return err
	}
	w.distinct = distinct
	hseed := maphash.MakeSeed()
	w.wantSum = make([]uint64, len(distinct))
	for i, q := range distinct {
		w.wantSum[i] = maphash.Bytes(hseed, q.want)
	}
	n := runtime.NumCPU()
	w.clients = make([]*client, n)
	for c := range w.clients {
		cl := &client{rw: newHashRW(hseed)}
		for i := c; i < len(mix); i += n {
			req := httptest.NewRequest(http.MethodGet, distinct[mix[i]].path, nil)
			req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%02d", i%queryTenants))
			cl.reqs = append(cl.reqs, req)
			cl.ids = append(cl.ids, mix[i])
		}
		w.clients[c] = cl
	}
	// Warm-up: one untimed query.
	w.clients[0].do(w.srv.Handler(), w.wantSum)
	return nil
}

func (w *queryLoad) run(d time.Duration) (phase, error) {
	h := w.srv.Handler()
	var wg sync.WaitGroup
	opsBefore := make([]int, len(w.clients))
	failedBefore := make([]int, len(w.clients))
	start := time.Now()
	for c, cl := range w.clients {
		opsBefore[c], failedBefore[c] = cl.ops, cl.failed
		cl.lat = cl.lat[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				cl.do(h, w.wantSum)
			}
		}()
	}
	wg.Wait()
	var p phase
	for c, cl := range w.clients {
		p.ops += cl.ops - opsBefore[c]
		p.lat = append(p.lat, cl.lat...)
		p.failed += cl.failed - failedBefore[c]
	}
	p.units = int64(p.ops)
	return p, nil
}

func (w *queryLoad) check() error {
	failed, wrong := 0, 0
	for _, cl := range w.clients {
		failed += cl.failed
		wrong += cl.wrong
	}
	if failed != 0 || wrong != 0 {
		return fmt.Errorf("%d responses failed and %d differed from the direct computation", failed, wrong)
	}
	h := w.srv.Handler()
	for _, q := range w.distinct {
		if q.kind != qHot {
			continue
		}
		cached := get(h, q.path)
		bypass := get(h, q.path+"&nocache=1")
		if err := checkCachedEqual(cached, bypass, q.want); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
	}
	rec := get(h, "/v1/users")
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/v1/users: status %d", rec.Code)
	}
	var sums []accounting.UserSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sums); err != nil {
		return fmt.Errorf("/v1/users: %w", err)
	}
	return checkUserTotals(sums, w.qp.plant.Ledger.Len(), w.qp.plant.Ledger.UserRecords)
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func (w *queryLoad) layers(m map[string]float64) error {
	m["mqtt.broker_dropped"] = float64(w.qp.brokerDropped)
	m["mqtt.bridge_forwarded"] = 0 // the replay plant has one broker and no bridge
	return sharedLayers(m, w.seed, layerPlan{query: w.qp})
}

func (w *queryLoad) close() {}
