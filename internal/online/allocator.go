// Package online layers a streaming, churn-tolerant allocator on top of
// the paper's batch protocols. The paper's setting is one-shot: all m
// balls arrive at once and the run ends when every ball commits. A
// production system instead sees *churn* — balls (jobs, keys, sessions)
// arriving and departing continuously while the load guarantee must hold
// round after round.
//
// The allocator maintains live per-bin load state across epochs. Each call
// to Allocate admits a batch of fresh balls and runs one *epoch*: the
// configured batch protocol is re-run incrementally over the pending balls
// only, with bin capacities derived from the live residual loads (the
// BaseLoads plumbing in packages core and threshold), so bins that emptied
// through departures absorb proportionally more of the new batch and the
// total load stays balanced. Release departs balls immediately, crediting
// capacity back to their bins; balls a protocol leaves unplaced re-enter
// the next epoch automatically.
//
// The steady-state churn epoch is allocation-free and O(batch + Δbins):
// ball IDs are consecutive grants, so placements live in a paged id→bin
// table (table.go) instead of a hash map, each page dense or, once its
// range is fully issued and mostly departed, sparse; the load extremes are
// maintained incrementally by a bin-count-per-load histogram instead of
// O(n) rescans; the epoch runners draw every buffer from per-allocator
// scratch (the sim/core/threshold arena plumbing); and the state
// fingerprint is an epoch-chained running hash updated from each epoch's
// delta, with the full-state SHA-256 kept as the snapshot-verification
// slow path (VerifyFingerprint).
//
// Determinism contract: for a fixed (seed, event trace) — the sequence of
// Allocate and Release calls with their arguments — the allocation is
// bit-identical at any worker count, exactly like the batch engine. Epoch
// seeds are derived from (Config.Seed, epoch index) alone.
//
// The package is split by concern: allocator.go holds the live state
// machine, table.go the paged ID table and load histogram, registry.go
// the inner-algorithm registry and epoch runners, report.go the
// epoch/stats vocabulary, snapshot.go the versioned snapshot/restore
// format that lets a serving process restart without losing placements,
// and deltalog.go the epoch-delta log that replays a snapshot forward to
// a live cell's chain digest for migration (see also internal/serve,
// which shards allocators).
package online

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/rng"
)

// Config parameterizes an Allocator.
type Config struct {
	// N is the number of bins (servers).
	N int
	// Alg is the per-epoch batch protocol: aheavy[:beta] (the paper's
	// threshold algorithm, agent-based), adaptive[:slack] (state-adaptive
	// uniform threshold family), greedy[:d] (sequential d-choice), or
	// oneshot (random placement, no coordination). Empty means aheavy.
	// A "!mass" suffix (aheavy!mass, adaptive!mass, oneshot!mass) runs the
	// epochs on the count-based mass engine: per-ball placements are then
	// synthesized canonically from each epoch's delta load vector, so very
	// large batches stay cheap while Release keeps working.
	Alg string
	// Seed makes the whole stream reproducible; epoch seeds derive from it.
	Seed uint64
	// Workers bounds per-epoch parallelism (0 = GOMAXPROCS). It never
	// affects results, only wall-clock.
	Workers int
	// Trace accumulates the per-round remaining-ball trajectory across
	// epochs in Result().TraceRemaining.
	Trace bool
	// Ins, when non-nil, receives allocation-free per-event telemetry
	// (epoch counters and timing, admit/place/release counters, live-state
	// gauges). It never affects results; see NewInstrumentation.
	Ins *Instrumentation
}

// Allocator is the streaming allocator. All methods are safe for
// concurrent use; calls are serialized, and the determinism contract is
// stated for the serialized event order.
type Allocator struct {
	mu      sync.Mutex
	cfg     Config
	alg     string // canonical inner-algorithm name
	run     epochRunner
	loads   []int64  // live load per bin
	hist    loadHist // bins-per-load histogram: O(1) extremes
	table   idTable  // id -> bin (placed) / pending marker; owns nextID
	pending []int64  // live but unplaced ball IDs, admission order
	epoch   int

	arrived, departed int64
	rounds            int
	metrics           model.Metrics
	trace             []int64

	chain    [sha256.Size]byte // epoch-chained incremental fingerprint
	chainBuf []byte            // reusable chain-delta encode buffer
	idsBuf   []int64           // epoch working set (pending + fresh ids)
	pendBuf  []int64           // permanent backing store of the pending list
	scratch  epochScratch      // runner arenas and buffers, reused per epoch
	dlog     *deltaLog         // active migration delta log, nil when idle
}

// New constructs an allocator.
func New(cfg Config) (*Allocator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("online: need at least one bin, got %d", cfg.N)
	}
	canon, run, err := resolveAlg(cfg.Alg)
	if err != nil {
		return nil, err
	}
	cfg.Alg = canon
	a := &Allocator{
		cfg:   cfg,
		alg:   canon,
		run:   run,
		loads: make([]int64, cfg.N),
	}
	a.hist.init(cfg.N)
	return a, nil
}

// Alg returns the canonical inner-algorithm name.
func (a *Allocator) Alg() string { return a.alg }

// Allocate admits k new balls (assigning them consecutive IDs) and runs
// one epoch of the inner protocol over them plus any pending balls, with
// bin capacities derived from the live residual loads. k == 0 still
// advances the epoch (re-offering pending balls), keeping the seed
// schedule aligned with the event trace.
func (a *Allocator) Allocate(k int) (*Report, error) {
	if k < 0 {
		return nil, fmt.Errorf("online: negative arrival count %d", k)
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	ids, rep := a.beginEpoch(k)
	if len(ids) == 0 {
		return rep, a.commitEpoch(ids, rep, &model.Result{})
	}
	seed := rng.Mix64(a.cfg.Seed ^ uint64(rep.Epoch)*0x9E3779B97F4A7C15)
	runStart := time.Now()
	res, err := a.run(model.Problem{M: int64(len(ids)), N: a.cfg.N}, a.loads, runOpts{
		Seed: seed, Workers: a.cfg.Workers, Trace: a.cfg.Trace,
		Scratch: &a.scratch,
	})
	runDur := time.Since(runStart)
	if err != nil {
		return nil, a.epochFailed(fmt.Errorf("online: epoch %d: %w", rep.Epoch, err))
	}
	if err := a.commitEpoch(ids, rep, res); err != nil {
		return nil, err
	}
	if a.cfg.Ins != nil {
		a.cfg.Ins.EpochRun.ObserveDuration(runDur)
	}
	return rep, nil
}

// beginEpoch admits k fresh balls under consecutive IDs and opens the next
// epoch. The working set it returns is the pending balls in admission
// order followed by the fresh IDs. Allocate and the delta log's 'A'
// replay both start an epoch here.
func (a *Allocator) beginEpoch(k int) (ids []int64, rep *Report) {
	rep = &Report{Epoch: a.epoch, IDBase: a.table.nextID, Admitted: k}
	ids = a.table.issue(append(a.idsBuf[:0], a.pending...), k)
	a.idsBuf = ids
	a.arrived += int64(k)
	a.epoch++
	// The working set stays the pending list until the epoch commits, so
	// a failed epoch loses nothing: every admitted ball stays pending.
	a.pending = ids
	return ids, rep
}

// commitEpoch commits an epoch's outcome: res.Placements holds one bin per
// working-set ball (negative leaves it pending), alongside the epoch's
// rounds, metrics and trace. It validates the placement count, the bin
// range and the unplaced count before it mutates anything, so neither a
// misbehaving runner nor a corrupt delta record can corrupt the live state
// (a failure poisons an active delta log). Then it places the balls, folds
// the chain, logs the record and instruments. Allocate commits what its
// runner returned; the delta log's 'A' replay commits what the record
// carries.
func (a *Allocator) commitEpoch(ids []int64, rep *Report, res *model.Result) error {
	if len(res.Placements) != len(ids) {
		return a.epochFailed(fmt.Errorf("online: epoch %d: %d placements for %d balls",
			rep.Epoch, len(res.Placements), len(ids)))
	}
	var unplaced int64
	for _, bin := range res.Placements {
		if bin < 0 {
			unplaced++
		} else if int(bin) >= a.cfg.N {
			return a.epochFailed(fmt.Errorf("online: epoch %d: ball placed in nonexistent bin %d", rep.Epoch, bin))
		}
	}
	if unplaced != res.Unallocated {
		return a.epochFailed(fmt.Errorf("online: epoch %d: %d balls left unplaced but %d reported unallocated",
			rep.Epoch, unplaced, res.Unallocated))
	}

	still := a.pendBuf[:0]
	rep.Placements = make([]Placement, 0, len(ids))
	for i, id := range ids {
		bin := res.Placements[i]
		if bin < 0 {
			still = append(still, id)
			continue
		}
		a.place(id, bin)
		rep.Placements = append(rep.Placements, Placement{ID: id, Bin: bin})
	}
	// a.pending aliased the epoch working set (idsBuf) for failure safety;
	// the survivors now live in pendBuf, the pending list's permanent
	// backing store. The two arrays never overlap a read: the working set
	// copies the pending list out before pendBuf is rewritten.
	a.pendBuf = still
	a.pending = still
	a.rounds += res.Rounds
	a.metrics.Add(res.Metrics)
	a.trace = append(a.trace, res.TraceRemaining...)

	rep.Pending = len(still)
	rep.Rounds = res.Rounds
	rep.MaxLoad = a.hist.max
	rep.Excess = rep.MaxLoad - a.ceilAvg()
	a.chainAllocate(rep)
	if a.dlog != nil {
		a.dlog.logAllocate(rep, res.Metrics, res.TraceRemaining)
	}
	if ins := a.cfg.Ins; ins != nil {
		ins.Epochs.Inc()
		ins.Admitted.Add(uint64(rep.Admitted))
		ins.Placed.Add(uint64(len(rep.Placements)))
		a.syncGauges()
	}
	return nil
}

// place puts pending ball id into bin: the table entry, the bin's load and
// the load histogram move together. Every placement — an epoch commit or
// a snapshot restore — goes through here.
func (a *Allocator) place(id int64, bin int32) {
	a.table.place(id, bin)
	a.loads[bin]++
	a.hist.inc(a.loads[bin] - 1)
}

// Release departs the given balls, crediting capacity back to their bins.
// Unknown or already-departed IDs are ignored; the count of balls actually
// released is returned.
func (a *Allocator) Release(ids []int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.release(ids)
}

// release departs the live balls among ids, folds the departures into the
// chain and an active delta log, and returns how many departed. Release
// and the delta log's 'R' replay both run it.
func (a *Allocator) release(ids []int64) int {
	// Gather pass: read every entry before the loop below changes any, so
	// the cache misses overlap instead of each waiting behind the previous
	// release. It also tells whether a pending ball departs: an ID's first
	// occurrence below sees the entry read here.
	pendingHit := a.table.gather(ids)
	released := 0
	buf := a.chainStart('R')
	if a.dlog != nil {
		a.dlog.relIDs = a.dlog.relIDs[:0]
	}
	for _, id := range ids {
		prev, wasLive := a.table.release(id)
		if !wasLive {
			continue
		}
		released++
		a.departed++
		if a.dlog != nil {
			a.dlog.relIDs = append(a.dlog.relIDs, id)
		}
		buf = appendI64(buf, id)
		buf = appendI64(buf, int64(prev))
		if prev >= 0 {
			a.loads[prev]--
			a.hist.dec(a.loads[prev] + 1)
		}
	}
	if pendingHit {
		// One compaction pass keeps bulk releases linear even when the
		// protocol has parked many balls in pending: survivors are the ids
		// still marked pending in the table.
		kept := a.pending[:0]
		for _, pid := range a.pending {
			if a.table.get(pid) == slotPending {
				kept = append(kept, pid)
			}
		}
		a.pending = kept
	}
	if released > 0 {
		a.chainCommit(buf)
		if a.dlog != nil {
			a.dlog.logRelease(a.dlog.relIDs)
		}
	} else {
		a.chainBuf = buf[:0]
	}
	if ins := a.cfg.Ins; ins != nil {
		ins.Released.Add(uint64(released))
		a.syncGauges()
	}
	return released
}

// Loads returns a copy of the live per-bin loads.
func (a *Allocator) Loads() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.loads...)
}

// Stats returns a snapshot including the full-state fingerprint (an
// O(live) hash). Steady-state telemetry should use StatsLite, which is
// O(1) and carries the incrementally maintained chain fingerprint instead.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats(true)
}

// StatsLite is Stats without the full-state fingerprint: every field is
// maintained incrementally (the load extremes by the histogram, the chain
// by the epoch deltas), so the call is O(1) regardless of live balls.
func (a *Allocator) StatsLite() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats(false)
}

func (a *Allocator) stats(fingerprint bool) Stats {
	st := Stats{
		N:        a.cfg.N,
		Alg:      a.alg,
		Epoch:    a.epoch,
		Arrived:  a.arrived,
		Departed: a.departed,
		Live:     a.arrived - a.departed,
		Placed:   a.table.placed,
		Pending:  int64(len(a.pending)),
		MaxLoad:  a.hist.max,
		MinLoad:  a.hist.min,
		CeilAvg:  a.ceilAvg(),
		Rounds:   a.rounds,
		Messages: a.metrics.TotalMessages,
		Chain:    hex.EncodeToString(a.chain[:]),
	}
	st.Excess = st.MaxLoad - st.CeilAvg
	if fingerprint {
		st.Fingerprint = a.fingerprint()
	}
	return st
}

// Result renders the live state as a model.Result: Problem.M is the live
// ball count, Loads the live per-bin loads, Unallocated the pending balls.
// Rounds and Metrics accumulate over all epochs.
func (a *Allocator) Result() *model.Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := &model.Result{
		Problem:     model.Problem{M: a.arrived - a.departed, N: a.cfg.N},
		Loads:       append([]int64(nil), a.loads...),
		Rounds:      a.rounds,
		Metrics:     a.metrics,
		Unallocated: int64(len(a.pending)),
	}
	if a.cfg.Trace {
		res.TraceRemaining = append([]int64(nil), a.trace...)
	}
	return res
}

// Footprint returns the approximate resident bytes of the live state: the
// paged ID table (its running byte count: resident pages in either form,
// the spare caches and the directory, as the pba_cell_table_bytes gauge
// reports), the load vector and histogram, and the pending list. Used by
// the churn benchmarks' bytes-per-live-ball accounting.
func (a *Allocator) Footprint() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	// a.pending aliases pendBuf (or, after a failed epoch, idsBuf), so
	// only the two backing stores are counted.
	return a.table.footprint() +
		int64(cap(a.loads))*8 +
		int64(cap(a.hist.counts))*8 +
		int64(cap(a.idsBuf)+cap(a.pendBuf))*8
}

// ceilAvg is the best possible maximal load over the *placed* balls.
func (a *Allocator) ceilAvg() int64 {
	return (a.table.placed + int64(a.cfg.N) - 1) / int64(a.cfg.N)
}

// Fingerprint hashes the live state — loads, the (id, bin) placement set,
// pending IDs, and the epoch counter. Two allocators fed the same (seed,
// event trace) have equal fingerprints at any worker count. The paged
// table iterates in ID order, so the historical sort is gone and the hash
// is O(live); ChainFingerprint is the O(1) alternative for hot telemetry.
func (a *Allocator) Fingerprint() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fingerprint()
}

func (a *Allocator) fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(a.epoch))
	for _, l := range a.loads {
		put(l)
	}
	a.table.forEachPlaced(func(id int64, bin int32) {
		put(id)
		put(int64(bin))
	})
	put(-1)
	for _, id := range a.pending {
		put(id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ChainFingerprint returns the epoch-chained incremental fingerprint: a
// running SHA-256 folded over every state-changing event's delta (epoch
// header and placements on Allocate, released (id, bin) pairs on Release).
// Equal event traces yield equal chains at any worker count, and the chain
// survives snapshot/restore, so it is the O(1) replacement for Fingerprint
// in steady-state telemetry. It is not derivable from the current state
// alone — Fingerprint/VerifyFingerprint remain the state-content hash the
// snapshot format verifies.
func (a *Allocator) ChainFingerprint() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return hex.EncodeToString(a.chain[:])
}

// VerifyFingerprint is the slow-path audit: it recomputes the full-state
// fingerprint through the historical route — collect every placed (id,
// bin) pair, sort by ID, hash — and cross-checks the incremental
// structures against it: the paged table's ID-ordered iteration must
// produce the identical hash, the load vector must equal the placement
// histogram, and the histogram extremes must match a full scan. The table
// itself must pass its audit: page counts recounted from the entries,
// sparse indexes consistent, every page in the form its state calls for,
// and the running byte count equal to a recount. It returns the verified
// fingerprint, or an error naming the first inconsistency.
func (a *Allocator) VerifyFingerprint() (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	if err := a.table.audit(); err != nil {
		return "", err
	}

	// Reference hash: sorted-pair slow path, exactly the pre-paged-table
	// spelling (sort.Slice over the collected pairs).
	pairs := make([]Placement, 0, a.table.placed)
	a.table.forEachPlaced(func(id int64, bin int32) {
		pairs = append(pairs, Placement{ID: id, Bin: bin})
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ID < pairs[j].ID })
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(a.epoch))
	for _, l := range a.loads {
		put(l)
	}
	for _, p := range pairs {
		put(p.ID)
		put(int64(p.Bin))
	}
	put(-1)
	for _, id := range a.pending {
		put(id)
	}
	want := hex.EncodeToString(h.Sum(nil))

	if got := a.fingerprint(); got != want {
		return "", fmt.Errorf("online: paged-table fingerprint %s != sorted recomputation %s", got, want)
	}
	if int64(len(pairs)) != a.table.placed {
		return "", fmt.Errorf("online: table reports %d placed balls but iterates %d", a.table.placed, len(pairs))
	}
	hist := make([]int64, a.cfg.N)
	for _, p := range pairs {
		hist[p.Bin]++
	}
	var min, max int64
	for b, l := range a.loads {
		if hist[b] != l {
			return "", fmt.Errorf("online: bin %d holds %d placements but load %d", b, hist[b], l)
		}
		if l > max {
			max = l
		}
		if b == 0 || l < min {
			min = l
		}
	}
	if min != a.hist.min || max != a.hist.max {
		return "", fmt.Errorf("online: histogram extremes (%d, %d) != scanned extremes (%d, %d)",
			a.hist.min, a.hist.max, min, max)
	}
	for _, id := range a.pending {
		if a.table.get(id) != slotPending {
			return "", fmt.Errorf("online: pending ball %d not marked pending in the table", id)
		}
	}
	// Reverse direction: every table pending marker must correspond to an
	// entry in the pending list (no ghost admissions).
	if tablePending := a.table.live - a.table.placed; tablePending != int64(len(a.pending)) {
		return "", fmt.Errorf("online: table holds %d pending markers but the pending list has %d ids",
			tablePending, len(a.pending))
	}
	return want, nil
}

// chainStart begins a chain-delta buffer: the previous chain value plus
// the event tag.
func (a *Allocator) chainStart(tag byte) []byte {
	buf := append(a.chainBuf[:0], a.chain[:]...)
	return append(buf, tag)
}

// chainCommit folds the assembled delta into the chain.
func (a *Allocator) chainCommit(buf []byte) {
	a.chainBuf = buf[:0]
	a.chain = sha256.Sum256(buf)
}

// chainAllocate folds one committed Allocate epoch into the chain: the
// epoch header, every placement resolved this epoch (in the deterministic
// working-set order), and the surviving pending count.
func (a *Allocator) chainAllocate(rep *Report) {
	buf := a.chainStart('A')
	buf = appendI64(buf, int64(rep.Epoch))
	buf = appendI64(buf, rep.IDBase)
	buf = appendI64(buf, int64(rep.Admitted))
	for _, p := range rep.Placements {
		buf = appendI64(buf, p.ID)
		buf = appendI64(buf, int64(p.Bin))
	}
	buf = appendI64(buf, -1)
	buf = appendI64(buf, int64(rep.Pending))
	a.chainCommit(buf)
}

// appendI64 appends v's little-endian encoding to buf.
func appendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}
