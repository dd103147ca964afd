package cluster

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// Live cell migration, two-phase: snapshot and ship while the cell keeps
// serving, then pause only the moving cell for the delta.
//
//	phase 1 (cell serving, gate open):
//	  src: POST /cells/migrate/begin   snapshot + arm the delta log
//	  dst: POST /cells/stage           O(live) restore, staged invisible
//	phase 2 (gates[g] write-locked — only cell g pauses):
//	  src: POST /cells/migrate/cut     the traffic since begin, O(delta)
//	  dst: POST /cells/commit          replay + chain-fingerprint verify
//	  table[g] flips, gate reopens — pause over
//	  src: POST /cells/detach lite     drop the stale copy, O(1) chain check
//
// The gate write lock is what makes the cut exact: in-flight forwards
// hold the gate's read side through reply collection, and the replica
// drains its cell queue before replying, so once the write lock is held
// the cell is quiescent everywhere and every granted ball is in the
// snapshot+delta. The chain fingerprint travels with the cut and is
// re-verified after replay and again at detach, so a move that would
// lose or duplicate a ball fails loudly instead. Any failure before the
// table flip aborts both ends (abortMove): the source keeps serving with
// no armed log, and the destination keeps no staged copy.

// Migrate moves global cell g to upstream dst (an index into the
// configured upstream list). Migrating a cell onto its current host is a
// no-op.
func (r *Router) Migrate(g, dst int) error {
	_, err := r.MigrateTimed(g, dst)
	return err
}

// MigrateTimed is Migrate reporting the data-plane pause: how long cell
// g's forwarding gate was write-locked. With the two-phase protocol the
// pause covers only the delta cut, replay, and table flip — O(traffic
// since the snapshot), not O(live balls in the cell).
func (r *Router) MigrateTimed(g, dst int) (pause time.Duration, err error) {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	if g < 0 || g >= r.cfg.Cells {
		return 0, fmt.Errorf("cluster: cell %d out of range [0, %d)", g, r.cfg.Cells)
	}
	if dst < 0 || dst >= len(r.ups) {
		return 0, fmt.Errorf("cluster: upstream %d out of range [0, %d)", dst, len(r.ups))
	}
	src := int(r.table[g].Load())
	if src == dst {
		return 0, nil
	}

	// Phase 1: snapshot at the source and stage at the destination, both
	// with the gate open — the cell serves throughout.
	frame, err := r.post(src, "/cells/migrate/begin", cellBody(g))
	if err != nil {
		r.abortMove(src, dst, g)
		return 0, fmt.Errorf("cluster: snapshotting cell %d on %s: %w", g, r.ups[src].base, err)
	}
	r.met.snapBytes.Add(uint64(len(frame)))
	if _, err := r.post(dst, "/cells/stage", frame); err != nil {
		r.abortMove(src, dst, g)
		return 0, fmt.Errorf("cluster: staging cell %d on %s: %w", g, r.ups[dst].base, err)
	}

	// Phase 2: pause cell g only. Cut the delta, replay it onto the
	// staged copy, flip the table.
	t0 := time.Now()
	r.gates[g].Lock()
	delta, err := r.post(src, "/cells/migrate/cut", cellBody(g))
	if err != nil {
		err = fmt.Errorf("cluster: cutting cell %d on %s: %w", g, r.ups[src].base, err)
	} else if _, err = r.post(dst, "/cells/commit", delta); err != nil {
		err = fmt.Errorf("cluster: committing cell %d on %s: %w", g, r.ups[dst].base, err)
	}
	if err != nil {
		r.gates[g].Unlock()
		r.abortMove(src, dst, g)
		return 0, err
	}
	r.table[g].Store(int32(dst))
	r.gates[g].Unlock()
	pause = time.Since(t0)
	r.met.migPause.ObserveDuration(pause)
	r.met.snapBytes.Add(uint64(len(delta)))
	r.met.migTotal.Inc()

	// The cell is live at dst; dropping the stale source copy happens
	// after the gate reopened, off the pause path. The lite detach reply
	// carries the source's chain digest — anything but the cut's chain
	// means events leaked past the cut, which the gate makes impossible,
	// so a mismatch is corruption and the router refuses to stay quiet.
	_, chain, _, err := wire.ParseCellDelta(delta)
	if err != nil {
		return pause, fmt.Errorf("cluster: cell %d delta frame (cell live on %s): %w", g, r.ups[dst].base, err)
	}
	var det struct {
		Chain string `json:"chain"`
	}
	reply, err := r.post(src, "/cells/detach", cellBody(g))
	if err == nil {
		err = json.Unmarshal(reply, &det)
	}
	if err != nil {
		return pause, fmt.Errorf("cluster: detaching cell %d from %s (cell live on %s): %w", g, r.ups[src].base, r.ups[dst].base, err)
	}
	if want := hex.EncodeToString(chain); det.Chain != want {
		return pause, fmt.Errorf("cluster: cell %d mutated after the cut: cut chain %s, detach chain %s", g, want, det.Chain)
	}
	return pause, nil
}

// abortMove is the failure rule of a move that has not flipped the table:
// drop the source's delta log and the destination's staged copy, best
// effort. The source served the cell throughout, so nothing is lost, and
// either call is a no-op when its end holds nothing (a log already cut,
// a copy never staged).
func (r *Router) abortMove(src, dst, g int) {
	_, _ = r.post(src, "/cells/migrate/abort", cellBody(g))
	_, _ = r.post(dst, "/cells/migrate/abort", fmt.Sprintf(`{"cell":%d,"staged":true}`, g))
}

// UpstreamIndex resolves an upstream base URL (as configured, or as
// normalized) to its index.
func (r *Router) UpstreamIndex(base string) (int, error) {
	for u, up := range r.ups {
		if up.base == base || r.cfg.Upstreams[u] == base {
			return u, nil
		}
	}
	return -1, fmt.Errorf("cluster: unknown upstream %q", base)
}

// Evacuate drains every cell off the given upstream, spreading them over
// the healthy remaining replicas least-loaded-first, and returns how
// many cells moved. Each cell is its own Migrate (its own write-lock
// window), so traffic interleaves between moves — graceful departure,
// not an outage. The evacuated upstream stays in the table as a valid
// (empty) migration target until the process actually goes away.
func (r *Router) Evacuate(src int) (int, error) {
	if src < 0 || src >= len(r.ups) {
		return 0, fmt.Errorf("cluster: upstream %d out of range [0, %d)", src, len(r.ups))
	}
	if len(r.ups) == 1 {
		return 0, fmt.Errorf("cluster: cannot evacuate the only upstream")
	}
	moved := 0
	for {
		g := -1
		hosted := make([]int, len(r.ups))
		for cell := range r.table {
			u := int(r.table[cell].Load())
			hosted[u]++
			if u == src && g < 0 {
				g = cell
			}
		}
		if g < 0 {
			return moved, nil
		}
		dst := -1
		for u := range r.ups {
			if u == src || !r.ups[u].healthy.Load() {
				continue
			}
			if dst < 0 || hosted[u] < hosted[dst] {
				dst = u
			}
		}
		if dst < 0 {
			return moved, fmt.Errorf("cluster: no healthy destination for cell %d", g)
		}
		pause, err := r.MigrateTimed(g, dst)
		if err != nil {
			return moved, err
		}
		if r.cfg.Logf != nil {
			r.cfg.Logf("migrated cell %d to upstream %d (pause %.6fs)", g, dst, pause.Seconds())
		}
		moved++
	}
}

// upstreamLoad is one replica's aggregate load, from its /cells doc.
type upstreamLoad struct {
	up      int
	live    int64
	cells   []serve.CellInfo
	healthy bool
}

func (r *Router) loads() []upstreamLoad {
	out := make([]upstreamLoad, len(r.ups))
	r.forEachUpstream(func(u int) {
		up := r.ups[u]
		out[u].up = u
		var doc cellsDoc
		if err := r.getJSON(up.base, "/cells", &doc); err != nil {
			up.healthy.Store(false)
			return
		}
		up.healthy.Store(true)
		out[u].healthy = true
		out[u].cells = doc.Cells
		for _, ci := range doc.Cells {
			out[u].live += ci.Live
		}
	})
	return out
}

// RebalanceOnce checks the per-replica load extremes and, when the
// busiest replica carries more than ratio times the least-busy one
// (plus a slack of minGap balls, so near-empty clusters never churn),
// migrates the busiest replica's fullest cell to the least-busy
// replica. Returns whether a migration ran. The health probe doubles as
// the upstream liveness check.
func (r *Router) RebalanceOnce(ratio float64, minGap int64) (bool, error) {
	if ratio <= 1 {
		return false, fmt.Errorf("cluster: rebalance ratio must be > 1, got %g", ratio)
	}
	loads := r.loads()
	maxU, minU := -1, -1
	for _, l := range loads {
		if !l.healthy {
			continue
		}
		if maxU < 0 || l.live > loads[maxU].live {
			maxU = l.up
		}
		if minU < 0 || l.live < loads[minU].live {
			minU = l.up
		}
	}
	if maxU < 0 || maxU == minU {
		return false, nil
	}
	// A replica with a single cell has nothing to shed without inverting
	// the imbalance.
	if len(loads[maxU].cells) <= 1 {
		return false, nil
	}
	if float64(loads[maxU].live) <= ratio*float64(loads[minU].live)+float64(minGap) {
		return false, nil
	}
	g, best := -1, int64(-1)
	for _, ci := range loads[maxU].cells {
		if ci.Live > best {
			g, best = ci.Cell, ci.Live
		}
	}
	if g < 0 {
		return false, nil
	}
	pause, err := r.MigrateTimed(g, minU)
	if err != nil {
		return false, err
	}
	if r.cfg.Logf != nil {
		r.cfg.Logf("rebalanced cell %d to upstream %d (pause %.6fs)", g, minU, pause.Seconds())
	}
	r.met.rebalances.Inc()
	return true, nil
}

// Stats is the router's /stats document: the cluster-wide aggregate in
// the same vocabulary as a replica's, plus the per-upstream breakdown.
type Stats struct {
	N         int             `json:"n"`
	Shards    int             `json:"shards"`
	Alg       string          `json:"alg"`
	Seed      uint64          `json:"seed"`
	Requests  uint64          `json:"requests"`
	Live      int64           `json:"live"`
	Pending   int64           `json:"pending"`
	Epochs    int             `json:"epochs"`
	MaxLoad   int64           `json:"max_load"`
	Clustered bool            `json:"clustered"`
	Upstreams []UpstreamStats `json:"upstreams"`
	// Fingerprint is the cluster fingerprint — identical to the combined
	// fingerprint a single process computes for the same state. Filled
	// only on ?fingerprint=1 (O(live) hashing across the cluster).
	Fingerprint string `json:"fingerprint,omitempty"`
}

// UpstreamStats is one replica's line in the router's /stats.
type UpstreamStats struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Cells   []int  `json:"cells"`
	Live    int64  `json:"live"`
	Pending int64  `json:"pending"`
	MaxLoad int64  `json:"max_load"`
}

// StatsDoc implements serve.Backend. With fingerprint it collects every
// replica's per-cell full-state fingerprints and combines them into the
// cluster fingerprint.
func (r *Router) StatsDoc(fingerprint bool) any {
	st := Stats{
		N: r.cfg.N, Shards: r.cfg.Cells, Alg: r.cfg.Alg, Seed: r.cfg.Seed,
		Requests: r.nextReq.Load(), Clustered: true,
	}
	fps := make([]string, r.cfg.Cells)
	query := "/cells"
	if fingerprint {
		query = "/cells?fingerprint=1"
	}
	// The sweep is concurrent — with ?fingerprint=1 each replica does
	// O(live) hashing, so serializing the round trips serializes that
	// hashing too. Folding stays sequential in upstream order.
	docs := make([]cellsDoc, len(r.ups))
	errs := make([]error, len(r.ups))
	r.forEachUpstream(func(u int) {
		errs[u] = r.getJSON(r.ups[u].base, query, &docs[u])
	})
	for u, up := range r.ups {
		us := UpstreamStats{URL: up.base, Healthy: up.healthy.Load()}
		if errs[u] != nil {
			// A dead upstream voids the fingerprint only if a cell still
			// lives there — the final per-cell check below decides that; a
			// fully evacuated replica's silence costs nothing.
			us.Healthy = false
			st.Upstreams = append(st.Upstreams, us)
			continue
		}
		for _, ci := range docs[u].Cells {
			us.Cells = append(us.Cells, ci.Cell)
			us.Live += ci.Live
			us.Pending += ci.Pending
			if ci.MaxLoad > us.MaxLoad {
				us.MaxLoad = ci.MaxLoad
			}
			st.Epochs += ci.Epochs
			if ci.Cell >= 0 && ci.Cell < len(fps) {
				fps[ci.Cell] = ci.Fingerprint
			}
		}
		st.Live += us.Live
		st.Pending += us.Pending
		if us.MaxLoad > st.MaxLoad {
			st.MaxLoad = us.MaxLoad
		}
		st.Upstreams = append(st.Upstreams, us)
	}
	if fingerprint {
		complete := true
		for _, fp := range fps {
			if fp == "" {
				complete = false
				break
			}
		}
		if complete {
			st.Fingerprint = serve.ClusterFingerprint(r.cfg.N, r.cfg.Cells, r.cfg.Alg, fps)
		}
	}
	return st
}

// Fingerprint returns the cluster fingerprint, or an error if any cell's
// fingerprint could not be collected.
func (r *Router) Fingerprint() (string, error) {
	st, ok := r.StatsDoc(true).(Stats)
	if !ok || st.Fingerprint == "" {
		return "", fmt.Errorf("cluster: incomplete fingerprint collection (unhealthy upstream?)")
	}
	return st.Fingerprint, nil
}

// Health is the router's /healthz document.
type Health struct {
	Status    string           `json:"status"`
	N         int              `json:"n"`
	Shards    int              `json:"shards"`
	Alg       string           `json:"alg"`
	Requests  uint64           `json:"requests"`
	Clustered bool             `json:"clustered"`
	Upstreams []UpstreamHealth `json:"upstreams"`
}

// UpstreamHealth is one replica's liveness line.
type UpstreamHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Cells   int    `json:"cells"`
}

// HealthDoc implements serve.Backend. It probes every replica's
// /healthz (refreshing the health words the rebalancer reads) and
// reports degraded if any is down.
func (r *Router) HealthDoc() any {
	h := Health{
		Status: "ok", N: r.cfg.N, Shards: r.cfg.Cells, Alg: r.cfg.Alg,
		Requests: r.nextReq.Load(), Clustered: true,
	}
	hosted := make([]int, len(r.ups))
	for g := range r.table {
		hosted[r.table[g].Load()]++
	}
	alive := make([]bool, len(r.ups))
	r.forEachUpstream(func(u int) {
		var doc struct {
			Status string `json:"status"`
		}
		alive[u] = r.getJSON(r.ups[u].base, "/healthz", &doc) == nil && doc.Status == "ok"
		r.ups[u].healthy.Store(alive[u])
	})
	for u, up := range r.ups {
		if !alive[u] && hosted[u] > 0 {
			h.Status = "degraded"
		}
		h.Upstreams = append(h.Upstreams, UpstreamHealth{URL: up.base, Healthy: alive[u], Cells: hosted[u]})
	}
	return h
}
