package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/benchmark/load"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// prefillChunk is the largest request the set-up and the final drain
	// make.
	prefillChunk = 8192
	// alg is the per-epoch algorithm inside every cell: the paper's Aheavy.
	alg = "aheavy"
	// groupCommit selects the cluster router's forwarding plane: one
	// group-commit writer per replica. It is the only plane setting the
	// cluster workload makes.
	groupCommit = true
)

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// stack is one serving workload's system under test, built in process:
// a serve.Service behind serve.NewHandler, or a cluster.Router behind
// serve.NewBackendHandler over replicas built with serve.New and served
// by serve.NewHandler; plus the load clients.
type stack struct {
	cfg      config
	services []*serve.Service // the service, or the replicas
	replicas []*server
	router   *cluster.Router // nil outside the cluster workload
	front    *server         // what the clients dial
	clients  []*load.Client

	// heapPerBall is the heap the standing population added, per ball.
	heapPerBall float64
	// firstMove is the round-robin position of this stack's first cell
	// move, so the moves of successive repetitions visit every cell.
	firstMove int
}

// buildStack builds the stack, prefills the standing population, and
// checks it.
func buildStack(cfg config, seed uint64, tr *tracer, ck *checks) (st *stack, err error) {
	st = &stack{cfg: cfg}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if cfg.Replicas == 0 {
		svc, err := serve.New(serve.Config{N: cfg.N, Shards: cfg.Shards, Alg: alg, Seed: seed})
		if err != nil {
			return st, err
		}
		st.services = append(st.services, svc)
		if st.front, err = listen(tr.wrap(spanServe, serve.NewHandler(svc, serve.HandlerConfig{}))); err != nil {
			return st, err
		}
	} else {
		var ups []string
		for i := 0; i < cfg.Replicas; i++ {
			svc, err := serve.New(serve.Config{N: cfg.N, Shards: cfg.Shards, Alg: alg, Seed: seed, Host: []int{}})
			if err != nil {
				return st, err
			}
			st.services = append(st.services, svc)
			srv, err := listen(tr.wrap(spanReplica, serve.NewHandler(svc, serve.HandlerConfig{})))
			if err != nil {
				return st, err
			}
			st.replicas = append(st.replicas, srv)
			ups = append(ups, "http://"+srv.addr)
		}
		st.router, err = cluster.New(cluster.Config{
			N: cfg.N, Cells: cfg.Shards, Alg: alg, Seed: seed, Upstreams: ups,
			Terse: true, UpstreamBatch: groupCommit,
		})
		if err != nil {
			return st, err
		}
		front := serve.NewBackendHandler(tracedBackend{st.router, tr}, st.router.Metrics(), serve.HandlerConfig{})
		if st.front, err = listen(tr.wrap(spanFront, front)); err != nil {
			return st, err
		}
	}
	proto := load.JSON
	if cfg.Binary {
		proto = load.Binary
	}
	for i := 0; i < cfg.Clients; i++ {
		c, err := load.Dial(st.front.addr, proto, i, seed, cfg.Standing/cfg.Clients+cfg.Batch, tr.base)
		if err != nil {
			return st, err
		}
		c.Tracing = &tr.on
		st.clients = append(st.clients, c)
	}
	return st, st.prefill(seed, ck)
}

// close tears the stack down, front to back; it tolerates a partly
// built stack.
func (st *stack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	if st.front != nil {
		st.front.close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.replicas {
		s.close()
	}
	for _, svc := range st.services {
		svc.Close()
	}
}

// prefill grows the standing population, half owned by each client, in
// sequential requests that alternate between the clients. On the cluster
// the same request sequence replays against one in-process service with
// the same topology: the determinism contract says every request grants
// the same IDs and the final fingerprints match.
func (st *stack) prefill(seed uint64, ck *checks) error {
	var single *serve.Service
	if st.router != nil {
		var err error
		single, err = serve.New(serve.Config{N: st.cfg.N, Shards: st.cfg.Shards, Alg: alg, Seed: seed})
		if err != nil {
			return err
		}
		defer single.Close() // Close is idempotent; the success path closes it before measuring the heap
	}
	runtime.GC()
	heap0 := heapAlloc()
	var rep serve.Report
	var want []int64
	per := st.cfg.Standing / st.cfg.Clients
	for done := 0; done < per; done += prefillChunk {
		k := min(prefillChunk, per-done)
		for _, c := range st.clients {
			got, err := c.Grow(k)
			if err != nil {
				return err
			}
			if single == nil {
				continue
			}
			if err := single.AllocateInto(k, &rep); err != nil {
				return err
			}
			want = rep.AppendIDs(want[:0])
			if err := ck.check("prefill.ids_match_single_process", slices.Equal(got, want),
				"request of %d balls granted different IDs than one process", k); err != nil {
				return err
			}
		}
	}
	if single != nil {
		fp, err := st.fingerprint()
		if err != nil {
			return err
		}
		if err := ck.check("prefill.fingerprint_matches_single_process", fp == single.Fingerprint(),
			"cluster %s, one process %s", fp, single.Fingerprint()); err != nil {
			return err
		}
		single.Close()
	}
	if err := st.checkCensus(ck, "prefill", int64(st.cfg.Standing)); err != nil {
		return err
	}
	runtime.GC()
	st.heapPerBall = float64(heapAlloc()-heap0) / float64(st.cfg.Standing)
	return nil
}

func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fingerprint reads the front's full-state fingerprint over HTTP.
func (st *stack) fingerprint() (string, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	res, err := client.Get("http://" + st.front.addr + "/stats?fingerprint=1")
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	var doc struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("/stats?fingerprint=1: %w", err)
	}
	if doc.Fingerprint == "" {
		return "", errors.New("/stats?fingerprint=1 carried no fingerprint")
	}
	return doc.Fingerprint, nil
}

// checkCensus gates conservation: the system holds exactly want live
// balls, none pending, and the clients own exactly those.
func (st *stack) checkCensus(ck *checks, phase string, want int64) error {
	var live, pending int64
	if st.router != nil {
		s, ok := st.router.StatsDoc(false).(cluster.Stats)
		if !ok {
			return errors.New("router stats: unexpected document")
		}
		live, pending = s.Live, s.Pending
	} else {
		s := st.services[0].StatsLite()
		live, pending = s.Live, s.Pending
	}
	var owned int64
	for _, c := range st.clients {
		owned += int64(c.Live())
	}
	if err := ck.check(phase+".live", live == want, "live %d, want %d", live, want); err != nil {
		return err
	}
	if err := ck.check(phase+".pending_zero", pending == 0, "%d balls pending", pending); err != nil {
		return err
	}
	return ck.check(phase+".clients_own_live", owned == want, "clients own %d, want %d", owned, want)
}

// migration is one cell move during the window.
type migration struct {
	pause, wall time.Duration
	err         error
}

// migrate moves one cell every cfg.MigrateEvery seconds until deadline,
// round-robin over the cells from firstMove, each to the replica after
// its owner.
func (st *stack) migrate(t0, deadline time.Time) []migration {
	every := time.Duration(st.cfg.MigrateEvery * float64(time.Second))
	var out []migration
	for i := 0; ; i++ {
		at := t0.Add(time.Duration(i+1) * every)
		if !at.Before(deadline) {
			return out
		}
		time.Sleep(time.Until(at))
		g := (st.firstMove + i) % st.cfg.Shards
		src, err := st.router.UpstreamIndex(st.router.Table()[g])
		if err != nil {
			return append(out, migration{err: err})
		}
		start := time.Now()
		pause, err := st.router.MigrateTimed(g, (src+1)%st.cfg.Replicas)
		out = append(out, migration{pause: pause, wall: time.Since(start), err: err})
		if err != nil {
			return out
		}
	}
}

// window is what one measured window of a serving workload saw.
type window struct {
	start, end    int64 // ns since the tracer's base
	elapsed, cpu  time.Duration
	mem           memDelta
	before, after scrapes // the services' (or replicas') registries
	rbefore       scrapes // the router's registry
	rafter        scrapes
	migrations    []migration
	samples       []cpuSample // every sliceLen, from the window's start to its end

	// The clients' tallies, summed (see load.Client); ends is in step
	// with lat until servingMetrics sorts lat.
	lat, ends, latTraced []int64
	steps                []load.Step
	balls, parseNs       int64
	replies              int64
	excessSum            int64
	roundsSum            int64
}

// drive plays the clients' steps until deadline and waits for them.
func (st *stack) drive(deadline time.Time) error {
	errs := make([]error, len(st.clients))
	var wg sync.WaitGroup
	for i, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.RunClosed(deadline, st.cfg.Batch)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// run plays one measured window of the given length: the clients'
// steps, the CPU samples that cut it into slices, the tracing toggle of a
// traced run, and the cluster's cell moves, all until the deadline.
// Warm-up traffic comes first: it lets the
// heap, the collector's pacing and the adaptive batch windows settle,
// which otherwise makes a run's first window slower than its later ones.
func (st *stack) run(seconds float64, tr *tracer, trace bool) (*window, error) {
	if err := st.drive(time.Now().Add(time.Duration(st.cfg.Warmup * float64(time.Second)))); err != nil {
		return nil, err
	}
	regs := make([]*obs.Registry, len(st.services))
	for i, svc := range st.services {
		regs[i] = svc.Metrics()
	}
	var routerRegs []*obs.Registry
	if st.router != nil {
		routerRegs = []*obs.Registry{st.router.Metrics()}
	}
	w := &window{}
	var err error
	if w.before, err = scrapeAll(regs); err != nil {
		return nil, err
	}
	if w.rbefore, err = scrapeAll(routerRegs); err != nil {
		return nil, err
	}
	for _, c := range st.clients {
		c.Reset()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	w.start = int64(t0.Sub(tr.base))
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var side sync.WaitGroup
	var samples []cpuSample
	side.Add(1)
	go func() {
		defer side.Done()
		samples = sampleCPU(tr.base, t0, deadline)
	}()
	if trace {
		side.Add(1)
		go func() {
			defer side.Done()
			tr.toggle(deadline, min(traceSlice, deadline.Sub(t0)/8))
		}()
	}
	if st.router != nil && st.cfg.MigrateEvery > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			w.migrations = st.migrate(t0, deadline)
		}()
	}
	driveErr := st.drive(deadline)
	w.elapsed = time.Since(t0)
	w.end = w.start + int64(w.elapsed)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.mem.add(&m0, &m1)
	side.Wait()
	if driveErr != nil {
		return nil, driveErr
	}
	w.samples = append(append([]cpuSample{{w.start, cpu0}}, samples...), cpuSample{w.end, cpu0 + w.cpu})

	if w.after, err = scrapeAll(regs); err != nil {
		return nil, err
	}
	if w.rafter, err = scrapeAll(routerRegs); err != nil {
		return nil, err
	}
	for _, c := range st.clients {
		w.lat = append(w.lat, c.Lat...)
		w.ends = append(w.ends, c.Ends...)
		w.latTraced = append(w.latTraced, c.LatTraced...)
		w.steps = append(w.steps, c.Steps...)
		w.balls += c.Balls
		w.parseNs += c.ParseNs
		w.replies += c.Replies
		w.excessSum += c.ExcessSum
		w.roundsSum += c.RoundsSum
	}
	return w, nil
}

// runServing is serve-heavy, serve-small and cluster-heavy. The run is
// cfg.Reps repetitions of: set up the stack, measure a window of
// cfg.Seconds/cfg.Reps, gate conservation, drain, tear down; then set-ups
// that are only checked and torn down, up to cfg.Setups in all. Throughput,
// latency and CPU per ball come from the quiet slices of all windows
// (quietMetrics); every other metric is its median over the repetitions
// (setup_s over all set-ups), so one slow set-up or a disturbed window
// moves it little.
func runServing(cfg config, seed uint64, trace bool, tr *tracer, ck *checks) (*outcome, error) {
	var reps []map[string]float64
	var setups, p999 []float64
	var steps []load.Step
	var cut []slice
	out := &outcome{diag: map[string]float64{}}
	moves := 0
	for r := 0; r < max(cfg.Setups, cfg.Reps); r++ {
		t := time.Now()
		st, err := buildStack(cfg, seed, tr, ck)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if r >= cfg.Reps {
			st.close()
			runtime.GC()
			continue
		}
		st.firstMove = moves
		w, err := st.measure(cfg.Seconds/float64(cfg.Reps), tr, trace, ck)
		if err != nil {
			st.close()
			return nil, err
		}
		cut = append(cut, cutSlices(w, cfg.Batch)...)
		reps = append(reps, servingMetrics(st, w, tr))
		st.close()
		runtime.GC()
		steps = append(steps, w.steps...)
		out.attempted += int64(len(w.lat) + len(w.latTraced))
		out.diag["window_s"] += w.elapsed.Seconds()
		out.diag["latency_samples"] += float64(len(w.lat))
		p999 = append(p999, float64(quantile(w.lat, 0.999))/1e6)
		moves += len(w.migrations)
	}
	out.metrics = medians(reps)
	quietMetrics(out.metrics, cut)
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.diag["migrations"] = float64(moves)
	out.diag["latency_p999_ms"] = median(p999)
	out.diag["spans_dropped"] = float64(tr.dropped.Load())
	if trace {
		out.spans = dumpSpans(tr, steps)
	}
	return out, nil
}

// measure runs one window on a built stack, then gates conservation and
// drains every ball.
func (st *stack) measure(seconds float64, tr *tracer, trace bool, ck *checks) (*window, error) {
	w, err := st.run(seconds, tr, trace)
	if err != nil {
		ck.check("window.ops_succeed", false, "%v", err)
		return nil, err
	}
	ck.passed("window.ops_succeed", len(w.lat)+len(w.latTraced))
	for _, mg := range w.migrations {
		if err := ck.check("window.migrate_succeeds", mg.err == nil, "%v", mg.err); err != nil {
			return nil, err
		}
	}
	if err := st.checkCensus(ck, "window", int64(st.cfg.Standing)); err != nil {
		return nil, err
	}
	for _, c := range st.clients {
		if err := c.Drain(prefillChunk); err != nil {
			ck.check("drain.releases_all", false, "%v", err)
			return nil, err
		}
	}
	return w, st.checkCensus(ck, "drain", 0)
}

// medians is, per metric, the median over repetitions; a repetition
// that could not measure a metric counts it as 0.
func medians(reps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, rep := range reps {
		for name := range rep {
			out[name] = 0
		}
	}
	for name := range out {
		vs := make([]float64, len(reps))
		for i, m := range reps {
			vs[i] = m[name]
		}
		out[name] = median(vs)
	}
	return out
}

// servingMetrics derives the end-to-end and per-layer metrics of a
// serving window.
func servingMetrics(st *stack, w *window, tr *tracer) map[string]float64 {
	balls := float64(w.balls)
	m := map[string]float64{
		"load.latency_p99_ms":             float64(quantile(w.lat, 0.99)) / 1e6,
		"excess_mean":                     ratio(float64(w.excessSum), float64(w.replies)),
		"rounds_mean":                     ratio(float64(w.roundsSum), float64(w.replies)),
		"wire.client_parse_ns_per_ball":   ratio(float64(w.parseNs), balls),
		"online.heap_bytes_per_live_ball": st.heapPerBall,
		"trace_overhead_pct":              overheadPct(w.latTraced, w.lat),
	}
	runtimeLayer(m, w.mem, balls)

	// Spans: the serve layer's handler is the service's own on serve-*
	// and the replicas' on the cluster, whose clients reach the router's
	// front handler instead.
	front, handlerName := spanServe, spanServe
	if st.router != nil {
		front, handlerName = spanFront, spanReplica
	}
	frontNs := map[uint64]int64{}
	var handler, router []int64
	for _, sp := range tr.collect() {
		if sp.Start < w.start || sp.Start > w.end {
			continue // another repetition's
		}
		d := sp.End - sp.Start
		if sp.Name == front && sp.Step != 0 {
			frontNs[sp.Step] += d
		}
		switch sp.Name {
		case handlerName:
			handler = append(handler, d)
		case spanRouter:
			router = append(router, d)
		}
	}
	var transport, joined float64
	for _, s := range w.steps {
		if ns, ok := frontNs[s.ID]; ok {
			transport += float64(s.Done - s.Sent - ns)
			joined++
		}
	}
	m["load.transport_us_mean"] = ratio(transport, joined) / 1e3
	m["serve.handler_us_p50"] = float64(quantile(handler, 0.50)) / 1e3
	m["serve.handler_us_p99"] = float64(quantile(handler, 0.99)) / 1e3

	// Registry deltas: the serve and online layers from the services (or
	// replicas), the cluster layer from the router.
	stage := func(sc0, sc1 scrapes, name string) obs.HistView {
		return histDelta(sc0, sc1, serve.StageMetricName, `stage="`+name+`"`)
	}
	decode, encode := stage(w.before, w.after, "decode"), stage(w.before, w.after, "encode")
	allocate, release := stage(w.before, w.after, "allocate"), stage(w.before, w.after, "release")
	batchWait, epochRun := stage(w.before, w.after, "batch_wait"), stage(w.before, w.after, "epoch_run")
	m["serve.decode_us_mean"] = meanUs(decode)
	m["serve.encode_us_mean"] = meanUs(encode)
	m["serve.route_us_mean"] = meanUs(stage(w.before, w.after, "route"))
	m["serve.commit_us_mean"] = meanUs(stage(w.before, w.after, "commit"))
	requests := valueDelta(w.before, w.after, "pba_http_requests_total", `path="/allocate"`) +
		valueDelta(w.before, w.after, "pba_http_requests_total", `path="/release"`)
	inside := float64(decode.Sum + encode.Sum + allocate.Sum + release.Sum)
	if len(handler) > 0 {
		m["serve.http_overhead_us_mean"] = (mean(handler) - ratio(inside, requests)) / 1e3
	}
	m["serve.batch_wait_us_p50"] = quantileUs(batchWait, 0.50)
	m["serve.batch_wait_us_p99"] = quantileUs(batchWait, 0.99)
	m["serve.release_us_p50"] = quantileUs(release, 0.50)
	m["serve.subs_per_epoch"] = ratio(float64(batchWait.Count), float64(epochRun.Count))
	epochs := histDelta(w.before, w.after, "pba_cell_epoch_run_seconds", "")
	m["online.epoch_run_us_p50"] = quantileUs(epochs, 0.50)
	m["online.epoch_run_us_p99"] = quantileUs(epochs, 0.99)
	m["online.epoch_ns_per_ball"] = ratio(float64(epochs.Sum), valueDelta(w.before, w.after, "pba_cell_admitted_total", ""))

	if st.router == nil {
		return m
	}
	m["cluster.router_us_p50"] = float64(quantile(router, 0.50)) / 1e3
	m["cluster.router_us_p99"] = float64(quantile(router, 0.99)) / 1e3
	m["cluster.split_us_mean"] = meanUs(stage(w.rbefore, w.rafter, "route"))
	m["cluster.merge_us_mean"] = meanUs(stage(w.rbefore, w.rafter, "commit"))
	rtt := histDelta(w.rbefore, w.rafter, "pba_router_upstream_seconds", "")
	m["cluster.upstream_rtt_us_p50"] = quantileUs(rtt, 0.50)
	m["cluster.replica_handler_us_p50"] = m["serve.handler_us_p50"]
	if len(handler) > 0 {
		m["cluster.hop_us_mean"] = meanUs(rtt) - mean(handler)/1e3
	}
	m["cluster.subs_per_frame"] = ratio(valueDelta(w.rbefore, w.rafter, "pba_upstream_batch_size_sum", ""),
		valueDelta(w.rbefore, w.rafter, "pba_upstream_batch_size_count", ""))
	routed := valueDelta(w.rbefore, w.rafter, "pba_http_requests_total", `path="/allocate"`) +
		valueDelta(w.rbefore, w.rafter, "pba_http_requests_total", `path="/release"`)
	m["cluster.frames_per_request"] = ratio(valueDelta(w.rbefore, w.rafter, "pba_upstream_frames_total", ""), routed)
	var pause, wall []int64
	for _, mg := range w.migrations {
		pause = append(pause, int64(mg.pause))
		wall = append(wall, int64(mg.wall))
	}
	m["cluster.migrate_pause_ms_p50"] = float64(quantile(pause, 0.50)) / 1e6
	m["cluster.migrate_ms_p50"] = float64(quantile(wall, 0.50)) / 1e6
	return m
}

// mean of int64 values (0 for none).
func mean(vs []int64) float64 {
	var s float64
	for _, v := range vs {
		s += float64(v)
	}
	return ratio(s, float64(len(vs)))
}
