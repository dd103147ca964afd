// Package serve is the sharded serving substrate over the streaming
// allocator (internal/online). One online.Allocator serializes every
// epoch behind a single mutex, capping a service at what one cell can
// hold; serve partitions the n bins across S independent allocator
// *cells* and turns the service boundary concurrent:
//
//   - a deterministic splittable-RNG *router* splits each /allocate batch
//     across the cells with an exact multinomial draw weighted by cell
//     size, so every bin still receives balls at the uniform rate and the
//     per-cell excess bounds carry over (LW16's lightly-loaded substrate
//     argument for partitioned bins);
//   - concurrently arriving requests targeting the same cell are
//     *coalesced* into one epoch (the batching shape of BCE+12's
//     multiple-choice allocation in rounds): a per-cell batcher drains
//     its queue, runs one epoch over the combined batch, and hands each
//     request its slice of the admitted ID range;
//   - the whole service state snapshots to a versioned JSON document
//     (per-cell online.Snapshot plus the router cursor), verified on
//     restore against the SHA-256 fingerprints, so a restart continues
//     the stream placement-for-placement.
//
// Determinism contract: a fixed (seed, request sequence, shard count)
// replayed *sequentially* — each call returning before the next starts —
// yields bit-identical placements and a stable combined fingerprint at
// any Workers setting, because the router draw depends only on (seed,
// request index), cell seeds derive from (seed, cell index), and each
// cell inherits the allocator's worker invariance. Under concurrent
// callers the coalescing makes epoch boundaries timing-dependent;
// conservation and balance still hold, and snapshot/restore still
// round-trips exactly.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/online"
	"repro/internal/rng"
)

// Config parameterizes a Service.
type Config struct {
	// N is the total number of bins across all cells.
	N int
	// Shards is the number of independent allocator cells the bins are
	// partitioned into (0 means 1). Throughput scales with cells; the
	// determinism contract is per (seed, request sequence, shard count).
	Shards int
	// Alg is the per-epoch protocol inside every cell, as in
	// online.Config.Alg.
	Alg string
	// Seed is the service seed: cell seeds and router draws derive from it.
	Seed uint64
	// Workers bounds per-epoch parallelism inside one cell (0 =
	// GOMAXPROCS). It never affects results, only wall-clock; with many
	// shards, 1 is usually right — the cells are the parallelism.
	Workers int
	// Host selects cluster mode: when non-nil, this process is one replica
	// of a Shards-cell cluster and hosts only the listed global cell
	// indices (an empty non-nil slice hosts none — the cells arrive later
	// via AttachCell). Cell seeds, bin ranges, and the global ID
	// interleaving all derive from the full Shards-cell topology, so a
	// cell behaves bit-identically wherever it is hosted. When nil the
	// service hosts every cell (the single-process default).
	Host []int
}

// Service is the sharded allocation service. All methods are safe for
// concurrent use. Close must be called to stop the cell batchers; after
// Close every method returns an error (or a zero result).
type Service struct {
	cfg       Config    // Alg canonicalized, Shards materialized
	total     int       // global cell count (== cfg.Shards; may exceed len(cells))
	clustered bool      // cfg.Host was non-nil: cells can attach and detach
	cells     []*cell   // hosted cells, ascending global index
	byGlobal  []*cell   // global index -> hosted cell, nil when hosted elsewhere
	weights   []float64 // router split weights: all Shards cell sizes, fixed at build

	// topo orders topology changes against data operations: every data op
	// (allocate, release, stats, snapshot) holds the read side for its full
	// duration, and AttachCell/DetachCellLite take the write side, so a
	// migration observes a quiescent replica — no in-flight epochs, empty
	// cell queues — without stopping the world for ordinary traffic.
	topo sync.RWMutex

	mu       sync.Mutex // admission sequencer: orders requests, guards cursor
	nextReq  uint64     // router cursor: requests admitted so far
	closed   bool
	inflight sync.WaitGroup // Allocate calls between admission and reply

	// frameConns are the upgraded GET /frames connections (frames.go),
	// guarded by mu and ended by Close; frameLoops counts the goroutines
	// serving them.
	frameConns map[net.Conn]struct{}
	frameLoops sync.WaitGroup

	loops     sync.WaitGroup // cell batcher goroutines
	relPool   sync.Pool      // *releaseBufs: reusable Release partition buffers
	allocPool sync.Pool      // *allocScratch: reusable router workspaces
	batchPool sync.Pool      // *batchScratch: batched-frame item workspaces

	metrics  *metrics  // observability instruments (see metrics.go)
	started  time.Time // service construction time (uptime anchor)
	restored bool      // built by Restore rather than New
	snapTime int64     // unix seconds the restored snapshot was taken, 0 if unknown

	// Evacuation coordinates, learned from the router on cell attach (the
	// X-PBA-Router / X-PBA-Self headers): the router's base URL and this
	// replica's upstream URL as the router spells it. A SIGTERM handler
	// uses them to ask the router to migrate this replica's cells away
	// before the process drains.
	evacMu    sync.Mutex
	routerURL string
	selfURL   string

	// Staged-migration state (see migrate.go): staged holds cells restored
	// from a phase-1 snapshot but not yet committed into the topology;
	// cutAt records when each outbound cell's delta log was cut, anchoring
	// the migration-pause histogram.
	stagedMu sync.Mutex
	staged   map[int]*online.Allocator
	cutAt    map[int]time.Time
}

// cellAllocator is the allocator surface a cell consumes; *online.Allocator
// implements it. Narrowing the dependency to an interface lets tests inject
// failing allocators to exercise the partial-failure contract, which the
// real allocator cannot be driven into from outside.
type cellAllocator interface {
	Allocate(k int) (*online.Report, error)
	Release(ids []int64) int
	Loads() []int64
	Stats() online.Stats
	StatsLite() online.Stats
	Fingerprint() string
	ChainFingerprint() string
	Snapshot() *online.Snapshot
	// The two-phase migration surface (see migrate.go): capture a snapshot
	// and start recording a delta log, cut the log, or abort it.
	SnapshotAndLog() (*online.Snapshot, error)
	CutDeltaLog() (log []byte, chainHex string, err error)
	AbortDeltaLog()
}

// cell is one shard: a contiguous range of bins owned by one allocator.
// index is the cell's *global* index in the Shards-cell topology — under
// cluster hosting the hosted subset is sparse, so index is never a
// position in Service.cells.
type cell struct {
	index   int
	binBase int // global index of the cell's first bin
	n       int
	alloc   cellAllocator
	// queue feeds the cell's batcher (cellLoop): everything queued while
	// an epoch runs joins the next one.
	queue chan *subReq
	done  chan struct{} // closed when the cell's batcher loop exits

	// inlineBusy is the single-shard fast path's mutual-exclusion flag: a
	// request that wins the CAS runs its epoch inline on the calling
	// goroutine; a loser has a concurrent contributor and queues for the
	// batcher instead (router.go).
	inlineBusy atomic.Int32
}

// cellBins returns global cell g's bin count and the global index of its
// first bin, for the fixed n-over-cells partition (the first n%cells
// cells take one extra bin).
func cellBins(n, cells, g int) (binBase, cellN int) {
	per, rem := n/cells, n%cells
	cellN = per
	if g < rem {
		cellN++
	}
	binBase = g * per
	if g < rem {
		binBase += g
	} else {
		binBase += rem
	}
	return binBase, cellN
}

// CellWeights returns the router split weights — the cell sizes — for an
// n-bin, cells-cell topology.
func CellWeights(n, cells int) []float64 {
	w := make([]float64, cells)
	for g := range w {
		_, cellN := cellBins(n, cells, g)
		w[g] = float64(cellN)
	}
	return w
}

// queueDepth bounds how many sub-batches can wait at a cell before
// senders block; deep enough that bursts coalesce, small enough to
// backpressure a runaway client.
const queueDepth = 256

// cellSeedSalt separates the cell-seed domain from epoch and router draws.
const cellSeedSalt = 0x3C6EF372FE94F82B

// cellSeed derives cell i's allocator seed. A single-shard service uses
// the service seed unchanged, so it is bit-compatible with a bare
// online.Allocator fed the same request sequence.
func cellSeed(seed uint64, i, shards int) uint64 {
	if shards == 1 {
		return seed
	}
	return rng.Mix64(seed ^ (uint64(i)+1)*cellSeedSalt)
}

// New constructs a service with fresh, empty cells.
func New(cfg Config) (*Service, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("serve: need at least one bin, got %d", cfg.N)
	}
	if cfg.Shards < 0 || cfg.Shards > cfg.N {
		return nil, fmt.Errorf("serve: need 1 <= shards <= n, got %d shards over %d bins", cfg.Shards, cfg.N)
	}
	canon, err := online.ResolveAlg(cfg.Alg)
	if err != nil {
		return nil, err
	}
	cfg.Alg = canon
	return build(cfg, (*Service).freshCell)
}

// build assembles the cell topology and hosts each listed cell with the
// allocator mk returns for it (freshCell for New, restoreCell for
// Restore).
func build(cfg Config, mk func(s *Service, g int) (*online.Allocator, error)) (*Service, error) {
	host := cfg.Host
	if host == nil {
		host = make([]int, cfg.Shards)
		for i := range host {
			host[i] = i
		}
	}
	s := &Service{
		cfg: cfg, total: cfg.Shards, clustered: cfg.Host != nil,
		byGlobal: make([]*cell, cfg.Shards),
		weights:  CellWeights(cfg.N, cfg.Shards),
		metrics:  newMetrics(), started: time.Now(),
		staged: map[int]*online.Allocator{},
		cutAt:  map[int]time.Time{},
	}
	s.relPool.New = func() any {
		return &releaseBufs{perCell: make([][]int64, s.total)}
	}
	s.allocPool.New = func() any { return s.newAllocScratch() }
	s.batchPool.New = func() any { return new(batchScratch) }
	seen := make([]bool, s.total)
	for _, g := range host {
		if g < 0 || g >= s.total {
			return nil, fmt.Errorf("serve: host cell %d out of range [0, %d)", g, s.total)
		}
		if seen[g] {
			return nil, fmt.Errorf("serve: host cell %d listed twice", g)
		}
		seen[g] = true
	}
	// Cells construct in parallel: a restore rebuilds each cell's placement
	// table and verifies its fingerprint, O(live) hashing work that is
	// independent per cell, so a many-cell boot costs the slowest cell
	// rather than the sum.
	allocs := make([]*online.Allocator, len(host))
	errs := make([]error, len(host))
	if len(host) <= 1 {
		for hi, g := range host {
			allocs[hi], errs[hi] = mk(s, g)
		}
	} else {
		var wg sync.WaitGroup
		for hi, g := range host {
			wg.Add(1)
			go func(hi, g int) {
				defer wg.Done()
				allocs[hi], errs[hi] = mk(s, g)
			}(hi, g)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for hi, g := range host {
		s.hostCell(g, allocs[hi])
	}
	return s, nil
}

// freshCell builds global cell g's empty allocator: the cell's bin count,
// its seed derived from the service seed, and its instruments.
func (s *Service) freshCell(g int) (*online.Allocator, error) {
	_, cellN := cellBins(s.cfg.N, s.total, g)
	return online.New(online.Config{
		N: cellN, Alg: s.cfg.Alg, Seed: cellSeed(s.cfg.Seed, g, s.total),
		Workers: s.cfg.Workers, Ins: s.metrics.cellInstrumentation(g),
	})
}

// restoreCell rebuilds global cell g's allocator from its snapshot, after
// checking that the snapshot belongs to g in this topology: its bin
// count, algorithm and seed must be the ones freshCell would give g.
func (s *Service) restoreCell(g int, cs *online.Snapshot) (*online.Allocator, error) {
	if cs == nil {
		return nil, fmt.Errorf("serve: cell %d: no snapshot", g)
	}
	if _, cellN := cellBins(s.cfg.N, s.total, g); cs.N != cellN {
		return nil, fmt.Errorf("serve: cell %d snapshot has %d bins, topology expects %d", g, cs.N, cellN)
	}
	if cs.Alg != s.cfg.Alg {
		return nil, fmt.Errorf("serve: cell %d snapshot ran %s, service runs %s", g, cs.Alg, s.cfg.Alg)
	}
	if want := cellSeed(s.cfg.Seed, g, s.total); cs.Seed != want {
		return nil, fmt.Errorf("serve: cell %d snapshot seed %d does not derive from service seed %d", g, cs.Seed, s.cfg.Seed)
	}
	a, err := cs.Restore(online.Config{Workers: s.cfg.Workers, Ins: s.metrics.cellInstrumentation(g)})
	if err != nil {
		return nil, fmt.Errorf("serve: cell %d: %w", g, err)
	}
	return a, nil
}

// hostCell makes alloc the allocator of hosted global cell g: it builds
// the cell, enters it into the topology and starts its batcher. Callers
// hold the topology write side (or are still building).
func (s *Service) hostCell(g int, alloc cellAllocator) {
	binBase, cellN := cellBins(s.cfg.N, s.total, g)
	c := &cell{
		index: g, binBase: binBase, n: cellN, alloc: alloc,
		queue: make(chan *subReq, queueDepth),
		done:  make(chan struct{}),
	}
	s.byGlobal[g] = c
	s.rebuildHosted()
	s.loops.Add(1)
	go s.cellLoop(c)
}

// rebuildHosted refreshes the dense hosted-cell list from the global
// table. Callers hold the topology write side (or are still building).
func (s *Service) rebuildHosted() {
	s.cells = s.cells[:0]
	for _, c := range s.byGlobal {
		if c != nil {
			s.cells = append(s.cells, c)
		}
	}
}

// Shards returns the global cell count of the topology (every cell, not
// just the hosted ones).
func (s *Service) Shards() int { return s.total }

// Clustered reports whether the service was built as a cluster replica
// (cells may attach and detach at runtime).
func (s *Service) Clustered() bool { return s.clustered }

// HostedCells returns the global indices of the cells this process hosts,
// ascending.
func (s *Service) HostedCells() []int {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make([]int, len(s.cells))
	for i, c := range s.cells {
		out[i] = c.index
	}
	return out
}

// N returns the total bin count.
func (s *Service) N() int { return s.cfg.N }

// Alg returns the canonical inner-algorithm name.
func (s *Service) Alg() string { return s.cfg.Alg }

// Seed returns the service seed (the snapshot's seed after a restore).
func (s *Service) Seed() uint64 { return s.cfg.Seed }

// Close stops the cell batchers. It ends the upgraded /frames
// connections and waits for their loops to exit, then for in-flight
// Allocate calls to drain; concurrent and subsequent Allocates fail
// cleanly.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for nc := range s.frameConns {
		_ = nc.Close()
	}
	s.mu.Unlock()
	s.frameLoops.Wait()
	s.inflight.Wait()
	s.topo.Lock()
	for _, c := range s.cells {
		close(c.queue)
	}
	s.topo.Unlock()
	s.loops.Wait()
}

// inlineReleaseMax bounds the batch size below which Release partitions
// and releases inline on the calling goroutine: for the small batches that
// dominate steady-state serving, a goroutine per touched cell costs more
// than the releases themselves. Large batches keep the parallel fan-out.
const inlineReleaseMax = 512

// releaseBufs is one reusable partition workspace: per-cell local-ID
// buffers, pooled so concurrent Release calls reuse allocations instead of
// building fresh [][]int64 slices per call.
type releaseBufs struct {
	perCell [][]int64
}

// Release departs the given global ball IDs, crediting capacity back to
// their cells' bins. Unknown, negative, or already-departed IDs are
// ignored; the number of balls actually released is returned.
func (s *Service) Release(ids []int64) int {
	start := time.Now()
	n := s.release(ids)
	s.metrics.stageRelease.ObserveDuration(time.Since(start))
	s.metrics.released.Add(uint64(n))
	return n
}

func (s *Service) release(ids []int64) int {
	s.topo.RLock()
	defer s.topo.RUnlock()
	if s.total == 1 {
		// Single cell: no partitioning, no buffers, no goroutines (global
		// and local IDs coincide; the allocator ignores junk IDs itself).
		if len(s.cells) == 0 {
			return 0
		}
		return s.cells[0].alloc.Release(ids)
	}
	shards := int64(s.total)
	bufs := s.relPool.Get().(*releaseBufs)
	perCell := bufs.perCell
	for i := range perCell {
		perCell[i] = perCell[i][:0]
	}
	// IDs of cells hosted elsewhere are ignored, like any other unknown
	// ID — a cluster router only sends a replica its own cells' IDs, so
	// a stray one here is a client error, not a routing error.
	for _, id := range ids {
		if id < 0 {
			continue
		}
		g := id % shards
		if s.byGlobal[g] == nil {
			continue
		}
		perCell[g] = append(perCell[g], id/shards)
	}
	total := 0
	if len(ids) <= inlineReleaseMax {
		for g, local := range perCell {
			if len(local) > 0 {
				total += s.byGlobal[g].alloc.Release(local)
			}
		}
		s.relPool.Put(bufs)
		return total
	}
	released := make([]int, len(perCell))
	var wg sync.WaitGroup
	for g, local := range perCell {
		if len(local) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int, local []int64) {
			defer wg.Done()
			released[g] = s.byGlobal[g].alloc.Release(local)
		}(g, local)
	}
	wg.Wait()
	s.relPool.Put(bufs)
	for _, r := range released {
		total += r
	}
	return total
}

// Loads returns a copy of the live per-bin load vector of the hosted
// cells, concatenated in bin order (the full global vector when hosting
// everything). Under concurrent traffic each cell's slice is internally
// consistent but the cut across cells is not atomic.
func (s *Service) Loads() []int64 {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make([]int64, 0, s.cfg.N)
	for _, c := range s.cells {
		out = append(out, c.alloc.Loads()...)
	}
	return out
}

// Fingerprint returns the combined fingerprint of the hosted state: a
// SHA-256 over the topology line and every hosted cell's state
// fingerprint in global cell order. When the service hosts every cell
// this is the service fingerprint of the determinism contract; a cluster
// replica hosting a subset hashes just that subset (the router assembles
// the cluster-wide fingerprint from per-cell fingerprints instead). For
// a consistent value the service must be quiescent (no in-flight calls).
func (s *Service) Fingerprint() string {
	s.topo.RLock()
	defer s.topo.RUnlock()
	fps := make([]string, len(s.cells))
	for i, c := range s.cells {
		fps[i] = c.alloc.Fingerprint()
	}
	return combinedFingerprint(s.cfg.N, s.total, s.cfg.Alg, fps)
}

// ClusterFingerprint combines per-cell fingerprints, ordered by global
// cell index, into the service fingerprint a single process with the
// same (n, cells, alg) topology would report. It is how a cluster router
// proves a distributed run bit-identical to the single-process replay:
// collect every cell's fingerprint from whichever replica hosts it,
// combine, compare.
func ClusterFingerprint(n, cells int, alg string, cellFPs []string) string {
	return combinedFingerprint(n, cells, alg, cellFPs)
}

// combinedFingerprint is the one spelling of the service hash, shared by
// Fingerprint and Snapshot so a snapshot's stored fingerprint is always
// derived from the very cell fingerprints it carries.
func combinedFingerprint(n, shards int, alg string, cellFPs []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "serve/v%d n=%d shards=%d alg=%s\n", SnapshotVersion, n, shards, alg)
	for _, fp := range cellFPs {
		fmt.Fprintf(h, "%s\n", fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats aggregates the per-cell snapshots into a service-level view.
type Stats struct {
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
	Alg      string `json:"alg"`
	Seed     uint64 `json:"seed"`
	Requests uint64 `json:"requests"` // allocate requests admitted
	Epochs   int64  `json:"epochs"`   // cell epochs run (>= requests/shard under coalescing)
	Arrived  int64  `json:"arrived"`
	Departed int64  `json:"departed"`
	Live     int64  `json:"live"`
	Placed   int64  `json:"placed"`
	Pending  int64  `json:"pending"`
	MaxLoad  int64  `json:"max_load"`
	MinLoad  int64  `json:"min_load"`
	CeilAvg  int64  `json:"ceil_avg"` // over placed balls and all n bins
	Excess   int64  `json:"excess"`   // MaxLoad - CeilAvg, the global balance gap
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	// Fingerprint is the combined service fingerprint (empty in StatsLite
	// snapshots); Cells carries the per-cell snapshots (each with its own
	// fingerprint and incremental chain). On a cluster replica Cells holds
	// only the hosted cells and HostedCells gives their global indices
	// (parallel to Cells); single-process services leave it nil.
	Fingerprint string         `json:"fingerprint,omitempty"`
	HostedCells []int          `json:"hosted_cells,omitempty"`
	Cells       []online.Stats `json:"cells,omitempty"`
}

// Stats returns the aggregated service snapshot, including the per-cell
// full-state fingerprints and the combined service fingerprint (O(live)
// hashing work). Quiescence caveats as for Fingerprint. Steady-state
// telemetry should use StatsLite.
func (s *Service) Stats() Stats {
	st := s.statsWith(func(a cellAllocator) online.Stats { return a.Stats() })
	// The combined hash is derived from the per-cell fingerprints already
	// collected above — re-deriving them via s.Fingerprint() would hash
	// every cell's live state a second time.
	fps := make([]string, len(st.Cells))
	for i, cs := range st.Cells {
		fps[i] = cs.Fingerprint
	}
	st.Fingerprint = combinedFingerprint(s.cfg.N, s.total, s.cfg.Alg, fps)
	return st
}

// StatsLite is Stats without any full-state hashing: per-cell snapshots
// come from the allocators' O(1) StatsLite (each carrying its incremental
// chain fingerprint), and the combined fingerprint is left empty.
func (s *Service) StatsLite() Stats {
	return s.statsWith(func(a cellAllocator) online.Stats { return a.StatsLite() })
}

// CellHealth is one cell's liveness line in the /healthz report — the
// O(1) signals a router or rebalancer checks before sending traffic.
type CellHealth struct {
	Cell    int   `json:"cell"`
	Bins    int   `json:"bins"`
	Epochs  int   `json:"epochs"`
	Live    int64 `json:"live"`
	Pending int64 `json:"pending"`
	MaxLoad int64 `json:"max_load"`
}

// Health is the extended /healthz document: process-level liveness
// (uptime, restore provenance) plus a per-cell breakdown. Every field is
// O(1) per cell to produce — health polling never hashes state.
type Health struct {
	Status        string  `json:"status"`
	N             int     `json:"n"`
	Shards        int     `json:"shards"`
	Alg           string  `json:"alg"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      uint64  `json:"requests"`
	// Restored reports whether this process resumed from a snapshot;
	// SnapshotAgeSeconds is then the age of that snapshot document (how
	// much history a crash before the next snapshot would lose).
	Restored           bool    `json:"restored"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
	// Clustered marks a cluster replica; Cells then lists only the hosted
	// cells (CellHealth.Cell indices are global either way).
	Clustered bool         `json:"clustered,omitempty"`
	Cells     []CellHealth `json:"cells"`
}

// Health returns the liveness report served on /healthz.
func (s *Service) Health() Health {
	s.mu.Lock()
	requests := s.nextReq
	s.mu.Unlock()
	s.topo.RLock()
	defer s.topo.RUnlock()
	h := Health{
		Status:        "ok",
		N:             s.cfg.N,
		Shards:        s.total,
		Alg:           s.cfg.Alg,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      requests,
		Restored:      s.restored,
		Clustered:     s.clustered,
		Cells:         make([]CellHealth, 0, len(s.cells)),
	}
	if s.snapTime != 0 {
		if age := time.Now().Unix() - s.snapTime; age > 0 {
			h.SnapshotAgeSeconds = float64(age)
		}
	}
	for _, c := range s.cells {
		cs := c.alloc.StatsLite()
		h.Cells = append(h.Cells, CellHealth{
			Cell: c.index, Bins: c.n, Epochs: cs.Epoch,
			Live: cs.Live, Pending: cs.Pending, MaxLoad: cs.MaxLoad,
		})
	}
	return h
}

func (s *Service) statsWith(snap func(cellAllocator) online.Stats) Stats {
	s.mu.Lock()
	requests := s.nextReq
	s.mu.Unlock()
	s.topo.RLock()
	defer s.topo.RUnlock()
	st := Stats{
		N: s.cfg.N, Shards: s.total, Alg: s.cfg.Alg, Seed: s.cfg.Seed, Requests: requests,
		Cells: make([]online.Stats, 0, len(s.cells)),
	}
	if s.clustered {
		st.HostedCells = make([]int, 0, len(s.cells))
		for _, c := range s.cells {
			st.HostedCells = append(st.HostedCells, c.index)
		}
	}
	for i, c := range s.cells {
		cs := snap(c.alloc)
		st.Cells = append(st.Cells, cs)
		st.Epochs += int64(cs.Epoch)
		st.Arrived += cs.Arrived
		st.Departed += cs.Departed
		st.Live += cs.Live
		st.Placed += cs.Placed
		st.Pending += cs.Pending
		st.Rounds += cs.Rounds
		st.Messages += cs.Messages
		if cs.MaxLoad > st.MaxLoad {
			st.MaxLoad = cs.MaxLoad
		}
		if i == 0 || cs.MinLoad < st.MinLoad {
			st.MinLoad = cs.MinLoad
		}
	}
	st.CeilAvg = (st.Placed + int64(s.cfg.N) - 1) / int64(s.cfg.N)
	st.Excess = st.MaxLoad - st.CeilAvg
	return st
}
