// Package cluster is the scale-out tier of the balls-into-bins service:
// a front router that spreads the data plane over N pba-serve replicas.
//
// Cells are the unit of placement. The router owns the cell→replica
// assignment table, draws every request's multinomial split itself (the
// same SplitBalls spelling the single-process service uses, against the
// same admission sequence), and forwards each replica its hosted cells'
// shares as cell-addressed binary allocates through one group-commit
// writer per replica (batch.go). The writer owns that replica's one
// data-plane connection, upgraded at dial from HTTP to bare wire frames
// (conn.go); the control plane (bootstrap, health, migration) stays
// HTTP/JSON. Replicas reply in global IDs and bins, so merging their
// replies in global cell order reconstructs exactly the single-process
// reply — and replaying a fixed (seed, request sequence, topology,
// migration schedule) sequentially through the router is
// fingerprint-identical to the same trace against one process.
//
// The router implements serve.Backend, so serve.NewBackendHandler
// exposes it over the byte-identical /allocate, /release, /stats,
// /healthz, /metrics protocol — clients cannot tell a router from a
// replica.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Config describes the cluster topology the router fronts.
type Config struct {
	// N, Cells, Alg, Seed define the service topology and must match every
	// replica (verified against each replica's GET /cells during New).
	N     int
	Cells int
	Alg   string
	Seed  uint64
	// Upstreams lists the replica base URLs (http only).
	Upstreams []string
	// SelfURL, when set, is the router's own base URL, stamped as the
	// X-PBA-Router evacuation coordinate on every cell attach so replicas
	// know whom to ask for migration on shutdown.
	SelfURL string
	// Terse asks replicas to omit placements from forwarded allocate
	// replies. The spans still name every granted ID. pba-router turns it
	// off, so its clients get per-ball bin assignments when they ask.
	Terse bool
	// Deprecated: ignored; group commit is the only forwarding plane.
	UpstreamBatch bool
	// Logf, when set, receives one line per control-plane event the
	// router performs on its own initiative (per-cell migrations inside
	// an evacuation or rebalance, with their pause windows). Nil is
	// silent; the data plane never logs.
	Logf func(format string, args ...any)
}

// Router fronts the replica set. It is safe for concurrent use; every
// data-plane forward read-locks the gates of exactly the cells it
// touches, and a migration write-locks only the moving cell's gate, so a
// cell is never mid-flight and mid-move at once — and moving one cell no
// longer stalls traffic to the others.
type Router struct {
	cfg     Config
	weights []float64
	stride  int64

	met *metrics

	nextReq atomic.Uint64

	// migMu serializes migrations (and Close): one cell moves at a time,
	// so gate write-locks are only ever taken by a single goroutine — the
	// one lock-ordering discipline (ascending cell index, used by every
	// multi-gate path) can never deadlock against another writer.
	migMu sync.Mutex

	// gates are the per-cell forwarding gates. A forward involving cell g
	// holds gates[g].RLock for its full duration (through reply
	// collection); migration phase 2 takes gates[g].Lock, so acquiring it
	// means no forward touching g is in flight and the replica queue it
	// routed to has drained — while every other cell keeps serving.
	gates []sync.RWMutex

	// table maps cell -> upstream index. Entries flip atomically under the
	// cell's gate write lock; readers load them while holding the gate's
	// read side (data plane) or accept a racy-but-monotone view (stats).
	table []atomic.Int32
	ups   []*upstream

	// batchers hold one group-commit writer per upstream (batch.go); the
	// data plane submits to them.
	batchers []*upBatcher

	scratch sync.Pool

	// ctl is the control-plane client (bootstrap, snapshots, health);
	// control calls may allocate freely.
	ctl *http.Client

	closed atomic.Bool
}

// metrics is the router's instrument set (per-upstream instruments hang
// off each upstream).
type metrics struct {
	reg        *obs.Registry
	rebalances *obs.Counter
	splitStage *obs.Histogram
	mergeStage *obs.Histogram

	migTotal  *obs.Counter   // pba_migrations_total (shared name with replicas)
	migPause  *obs.Histogram // data-plane pause per migration, gate-lock to flip
	snapBytes *obs.Counter   // snapshot + delta bytes shipped between replicas
}

func newRouterMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:        reg,
		rebalances: reg.Counter("pba_router_rebalances_total", "Migrations initiated by the load rebalancer."),
		splitStage: reg.DurationHistogram(serve.StageMetricName, "Serving-pipeline stage durations; see serve.StageNames.", obs.L("stage", "route")),
		mergeStage: reg.DurationHistogram(serve.StageMetricName, "Serving-pipeline stage durations; see serve.StageNames.", obs.L("stage", "commit")),
		migTotal:   reg.Counter("pba_migrations_total", "Cell migrations completed by this router."),
		migPause:   reg.DurationHistogram("pba_migration_pause_seconds", "Data-plane pause per cell migration: gate write-lock to table flip."),
		snapBytes:  reg.Counter("pba_snapshot_bytes_total", "Cell snapshot and delta bytes shipped between replicas."),
	}
	obs.RegisterRuntime(reg)
	return m
}

// fwdScratch is one forward's complete workspace, pooled so the warm
// data path performs no allocations in the router.
type fwdScratch struct {
	rnd     rng.Rand
	counts  []int64
	perUp   [][]wire.CellCount // per-upstream (cell, count) shares
	relIDs  [][]int64          // per-upstream release partitions
	relMark []bool             // cells a release touches (gate set)
	reps    []serve.Report
	failed  []error
	cur     []int       // per-upstream span cursor during the merge
	plCur   []int       // per-upstream placement cursor
	bsubs   []*batchSub // per-upstream group-commit submissions (batch.go)
}

// New builds a router over cfg and bootstraps the assignment table:
// every replica's GET /cells is fetched and verified against the
// topology, cells the replicas already host are adopted (a restart of
// the router re-learns a running cluster instead of clobbering it), and
// unassigned cells are attached fresh, least-loaded first. New fails if
// two replicas claim the same cell or any replica disagrees on the
// topology.
func New(cfg Config) (*Router, error) {
	if cfg.N <= 0 || cfg.Cells <= 0 || cfg.Cells > cfg.N {
		return nil, fmt.Errorf("cluster: need 0 < cells <= n, got n=%d cells=%d", cfg.N, cfg.Cells)
	}
	if len(cfg.Upstreams) == 0 {
		return nil, fmt.Errorf("cluster: no upstreams")
	}
	met := newRouterMetrics()
	r := &Router{
		cfg:     cfg,
		weights: serve.CellWeights(cfg.N, cfg.Cells),
		stride:  int64(cfg.Cells),
		met:     met,
		gates:   make([]sync.RWMutex, cfg.Cells),
		table:   make([]atomic.Int32, cfg.Cells),
		ctl:     &http.Client{Timeout: 30 * time.Second},
	}
	for i := range r.table {
		r.table[i].Store(-1)
	}
	for _, raw := range cfg.Upstreams {
		up, err := newUpstream(raw, met)
		if err != nil {
			return nil, err
		}
		r.ups = append(r.ups, up)
	}
	nup := len(r.ups)
	r.scratch.New = func() any {
		sc := &fwdScratch{
			counts:  make([]int64, cfg.Cells),
			perUp:   make([][]wire.CellCount, nup),
			relIDs:  make([][]int64, nup),
			relMark: make([]bool, cfg.Cells),
			reps:    make([]serve.Report, nup),
			failed:  make([]error, nup),
			cur:     make([]int, nup),
			plCur:   make([]int, nup),
		}
		for u := 0; u < nup; u++ {
			sc.perUp[u] = make([]wire.CellCount, 0, cfg.Cells)
		}
		return sc
	}
	if err := r.bootstrap(); err != nil {
		return nil, err
	}
	for _, up := range r.ups {
		bt := newUpBatcher(up, met)
		r.batchers = append(r.batchers, bt)
		go bt.run()
	}
	return r, nil
}

// cellsDoc is the GET /cells topology handshake document.
type cellsDoc struct {
	N      int              `json:"n"`
	Shards int              `json:"shards"`
	Alg    string           `json:"alg"`
	Seed   uint64           `json:"seed"`
	Cells  []serve.CellInfo `json:"cells"`
}

// forEachUpstream runs fn(u) for every upstream concurrently and waits.
// Control-plane sweeps — bootstrap, stats, health, load probes — are
// dominated by O(replicas) sequential round trips otherwise; the
// control client is safe for concurrent use. fn must confine its writes
// to index-u state (or atomics).
func (r *Router) forEachUpstream(fn func(u int)) {
	var wg sync.WaitGroup
	wg.Add(len(r.ups))
	for u := range r.ups {
		go func() {
			defer wg.Done()
			fn(u)
		}()
	}
	wg.Wait()
}

func (r *Router) bootstrap() error {
	// Fetch every replica's topology concurrently; verify and adopt
	// sequentially (the table and hosted tallies are shared).
	docs := make([]cellsDoc, len(r.ups))
	errs := make([]error, len(r.ups))
	r.forEachUpstream(func(u int) {
		errs[u] = r.getJSON(r.ups[u].base, "/cells", &docs[u])
	})
	hosted := make([]int, len(r.ups)) // cells per upstream, for least-loaded placement
	for u, up := range r.ups {
		if errs[u] != nil {
			return fmt.Errorf("cluster: bootstrap %s: %w", up.base, errs[u])
		}
		doc := docs[u]
		if doc.N != r.cfg.N || doc.Shards != r.cfg.Cells || doc.Alg != r.cfg.Alg || doc.Seed != r.cfg.Seed {
			return fmt.Errorf("cluster: %s topology (n=%d cells=%d alg=%s seed=%d) does not match router (n=%d cells=%d alg=%s seed=%d)",
				up.base, doc.N, doc.Shards, doc.Alg, doc.Seed, r.cfg.N, r.cfg.Cells, r.cfg.Alg, r.cfg.Seed)
		}
		for _, ci := range doc.Cells {
			if ci.Cell < 0 || ci.Cell >= r.cfg.Cells {
				return fmt.Errorf("cluster: %s hosts out-of-range cell %d", up.base, ci.Cell)
			}
			if prev := r.table[ci.Cell].Load(); prev >= 0 {
				return fmt.Errorf("cluster: cell %d hosted by both %s and %s", ci.Cell, r.ups[prev].base, up.base)
			}
			r.table[ci.Cell].Store(int32(u))
			hosted[u]++
		}
	}
	for g := range r.table {
		if r.table[g].Load() >= 0 {
			continue
		}
		u := 0
		for v := 1; v < len(r.ups); v++ {
			if hosted[v] < hosted[u] {
				u = v
			}
		}
		if _, err := r.post(u, "/cells/attach", cellBody(g)); err != nil {
			return fmt.Errorf("cluster: attaching cell %d to %s: %w", g, r.ups[u].base, err)
		}
		r.table[g].Store(int32(u))
		hosted[u]++
	}
	return nil
}

// N, Cells, Alg, Seed expose the verified topology.
func (r *Router) N() int       { return r.cfg.N }
func (r *Router) Cells() int   { return r.cfg.Cells }
func (r *Router) Alg() string  { return r.cfg.Alg }
func (r *Router) Seed() uint64 { return r.cfg.Seed }

// Metrics returns the router's observability registry (serve /metrics
// over it via serve.NewBackendHandler).
func (r *Router) Metrics() *obs.Registry { return r.met.reg }

// Table returns a copy of the cell→upstream assignment, as base URLs.
// Each entry is an atomic read; a migration concurrent with the copy can
// show the cell at either end, never in between.
func (r *Router) Table() []string {
	out := make([]string, len(r.table))
	for g := range r.table {
		out[g] = r.ups[r.table[g].Load()].base
	}
	return out
}

// Close stops the upstream writers, which close their connections.
// In-flight forwards finish first (drain-by-gate: every cell gate is
// write-locked in ascending order); later ones fail with a closed-router
// error.
func (r *Router) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	r.migMu.Lock()
	defer r.migMu.Unlock()
	for g := range r.gates {
		r.gates[g].Lock()
	}
	defer func() {
		for g := range r.gates {
			r.gates[g].Unlock()
		}
	}()
	// Holding every gate means no forward is queued or awaiting a reply,
	// so the group-commit writers are idle.
	for _, bt := range r.batchers {
		close(bt.stop)
		<-bt.done
	}
}

// Allocate admits k balls cluster-wide (the allocating spelling used by
// in-process callers; the HTTP layer uses AllocateInto).
func (r *Router) Allocate(k int) (*serve.Report, error) {
	rep := new(serve.Report)
	err := r.AllocateInto(k, rep)
	return rep, err
}

// AllocateInto implements serve.Backend: draw the request's multinomial
// split against the router's admission sequence, submit each involved
// replica's share to its writer (submit-all-then-wait-all, so replicas
// run their epochs in parallel), and merge the replies in global cell
// order into rep.
//
// Partial failures keep the replica contract cluster-wide: if a replica
// fails, the spans granted by the replicas that succeeded are still
// merged into rep and the first error is returned — Admitted counts only
// granted balls, and those balls are live and releasable.
func (r *Router) AllocateInto(k int, rep *serve.Report) error {
	rep.Reset()
	if k < 0 || k > serve.MaxBatch {
		return fmt.Errorf("cluster: count must be in [0, %d], got %d", serve.MaxBatch, k)
	}
	start := time.Now()
	reqIdx := r.nextReq.Add(1) - 1
	sc := r.scratch.Get().(*fwdScratch)
	defer r.scratch.Put(sc)
	serve.SplitBalls(&sc.rnd, r.cfg.Seed, reqIdx, k, r.weights, sc.counts)

	// Gate exactly the cells this request touches, ascending (the global
	// gate order). Cells sitting this request out keep migrating freely.
	for g, c := range sc.counts {
		if c > 0 || k == 0 {
			r.gates[g].RLock()
		}
	}
	defer r.runlockAllocGates(sc, k)

	// Group the split by upstream. A zero-ball request offers every cell a
	// chance to retry pending balls, exactly like the single-process path.
	for u := range sc.perUp {
		sc.perUp[u] = sc.perUp[u][:0]
		sc.failed[u] = nil
	}
	for g, c := range sc.counts {
		if c > 0 || k == 0 {
			u := r.table[g].Load()
			sc.perUp[u] = append(sc.perUp[u], wire.CellCount{Cell: g, Count: int(c)})
		}
	}
	r.met.splitStage.ObserveDuration(time.Since(start))

	// Submit every share, then wait for every reply: the replicas' epochs
	// overlap, and the slowest upstream bounds the round, not the sum.
	r.batchAllocate(sc)

	// Merge in global cell order. Each reply's spans and placements are
	// already ordered by global cell (replicas collect hosted cells
	// ascending), so a per-upstream cursor walk reconstructs exactly the
	// single-process reply order.
	mergeStart := time.Now()
	var firstErr error
	for u := range sc.perUp {
		sc.cur[u], sc.plCur[u] = 0, 0
		if len(sc.perUp[u]) == 0 {
			continue
		}
		if err := sc.failed[u]; err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: %s: %w", r.ups[u].base, err)
			}
			// A partial replica failure still granted the spans its healthy
			// cells admitted; fold them in so the client can release them.
			var he *httpError
			if asHTTPError(err, &he) {
				rep.Spans = append(rep.Spans, he.Spans...)
				for _, sp := range he.Spans {
					rep.Admitted += sp.Count
				}
			}
			continue
		}
	}
	for g := range sc.counts {
		if !(sc.counts[g] > 0 || k == 0) {
			continue
		}
		u := r.table[g].Load()
		if sc.failed[u] != nil {
			continue
		}
		rrep := &sc.reps[u]
		for sc.cur[u] < len(rrep.Spans) && rrep.Spans[sc.cur[u]].Start%r.stride == int64(g) {
			rep.Spans = append(rep.Spans, rrep.Spans[sc.cur[u]])
			rep.Admitted += rrep.Spans[sc.cur[u]].Count
			sc.cur[u]++
		}
		for sc.plCur[u] < len(rrep.Placements) && rrep.Placements[sc.plCur[u]].ID%r.stride == int64(g) {
			rep.Placements = append(rep.Placements, rrep.Placements[sc.plCur[u]])
			sc.plCur[u]++
		}
	}
	for u := range sc.perUp {
		if len(sc.perUp[u]) == 0 || sc.failed[u] != nil {
			continue
		}
		rrep := &sc.reps[u]
		rep.Cells += rrep.Cells
		rep.Pending += rrep.Pending
		if rrep.Rounds > rep.Rounds {
			rep.Rounds = rrep.Rounds
		}
		if rrep.MaxLoad > rep.MaxLoad {
			rep.MaxLoad = rrep.MaxLoad
		}
		if rrep.Excess > rep.Excess {
			rep.Excess = rrep.Excess
		}
	}
	r.met.mergeStage.ObserveDuration(time.Since(mergeStart))
	return firstErr
}

// runlockAllocGates releases the gates an allocate's split involved; the
// involvement predicate must match the RLock loop exactly.
func (r *Router) runlockAllocGates(sc *fwdScratch, k int) {
	for g, c := range sc.counts {
		if c > 0 || k == 0 {
			r.gates[g].RUnlock()
		}
	}
}

// Release implements serve.Backend: partition ids by hosting replica
// (cell = id mod cells) and submit each partition as one binary release,
// submit-all-then-wait-all like the allocate path.
func (r *Router) Release(ids []int64) int {
	if len(ids) == 0 {
		return 0
	}
	sc := r.scratch.Get().(*fwdScratch)
	defer r.scratch.Put(sc)
	for u := range sc.relIDs {
		sc.relIDs[u] = sc.relIDs[u][:0]
	}
	// Mark the touched cells, then gate them ascending — the partition by
	// upstream must read a table no migration can flip mid-release.
	for g := range sc.relMark {
		sc.relMark[g] = false
	}
	for _, id := range ids {
		if id >= 0 {
			sc.relMark[int(id%r.stride)] = true
		}
	}
	for g, marked := range sc.relMark {
		if marked {
			r.gates[g].RLock()
		}
	}
	defer r.runlockReleaseGates(sc)
	for _, id := range ids {
		if id < 0 {
			continue
		}
		u := r.table[int(id%r.stride)].Load()
		sc.relIDs[u] = append(sc.relIDs[u], id)
	}
	return r.batchRelease(sc)
}

// runlockReleaseGates releases the gates a release marked.
func (r *Router) runlockReleaseGates(sc *fwdScratch) {
	for g, marked := range sc.relMark {
		if marked {
			r.gates[g].RUnlock()
		}
	}
}

// asHTTPError unwraps err into *httpError without errors.As's
// reflection allocation on the hot path.
func asHTTPError(err error, out **httpError) bool {
	he, ok := err.(*httpError)
	if ok {
		*out = he
	}
	return ok
}

// readError decodes the JSON error shape from an HTTP error body.
func readError(body io.Reader, status string) string {
	var doc struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(body).Decode(&doc) == nil && doc.Error != "" {
		return fmt.Sprintf("%s (%s)", status, doc.Error)
	}
	return status
}

// getJSON fetches base+path and decodes the JSON reply into v.
func (r *Router) getJSON(base, path string, v any) error {
	res, err := r.ctl.Get(base + path)
	if err != nil {
		return err
	}
	defer func() { _, _ = io.Copy(io.Discard, res.Body); res.Body.Close() }()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, readError(res.Body, res.Status))
	}
	return json.NewDecoder(res.Body).Decode(v)
}

// post issues one control-plane POST to upstream u and returns the reply
// body. A []byte body travels as a wire frame, a string as JSON. Every
// call carries the evacuation coordinates, which the replica records on
// attach and stage. A non-200 reply becomes an error carrying the
// replica's own error text.
func (r *Router) post(u int, path string, body any) ([]byte, error) {
	ct, rd := "application/json", io.Reader(nil)
	switch b := body.(type) {
	case []byte:
		ct, rd = wire.ContentType, bytes.NewReader(b)
	case string:
		rd = strings.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, r.ups[u].base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ct)
	if r.cfg.SelfURL != "" {
		req.Header.Set(serve.HeaderRouter, r.cfg.SelfURL)
		req.Header.Set(serve.HeaderSelf, r.ups[u].base)
	}
	res, err := r.ctl.Do(req)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s", path, readError(bytes.NewReader(reply), res.Status))
	}
	return reply, nil
}

// cellBody is the JSON body of the cell-addressed control verbs.
func cellBody(g int) string {
	return fmt.Sprintf(`{"cell":%d}`, g)
}
