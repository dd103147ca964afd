package serve

import (
	"fmt"
	"time"

	"repro/internal/online"
	"repro/internal/rng"
	"repro/internal/wire"
)

// routerSalt separates the per-request split draws from every other seed
// domain (cell seeds, epoch seeds, load-driver client streams).
const routerSalt = 0xD1B54A32D192ED03

// Placement reports where one ball landed, in global coordinates.
type Placement = online.Placement

// Span and Report form the serving vocabulary. They live in
// internal/wire so the JSON and binary codecs render the one type;
// see wire.Span and wire.Report for the field contracts.
type (
	Span   = wire.Span
	Report = wire.Report
)

// subReq is one request's share of one cell's next epoch. The structs
// live inside a pooled allocScratch (one per cell) and their reply
// channels are reused across requests: every use receives exactly one
// subRep, and the batcher never touches a subReq after replying, so a
// recycled struct can be rewritten as soon as its reply is consumed.
type subReq struct {
	count int
	enq   time.Time // when the request entered the cell queue (batch_wait)
	done  chan subRep
}

// subRep hands a request its slice of a coalesced epoch.
type subRep struct {
	rep   *online.Report // shared, read-only epoch report
	base  int64          // cell-local ID of this request's first ball
	count int
	first bool // first contributor: owns the epoch's formerly-pending placements
	err   error
}

// allocScratch is one request's reusable router workspace: the split
// counts and target set (both indexed by global cell), the per-request
// splittable-RNG stream (seeded in place, never reallocated), and one
// subReq per global cell with a preallocated reply channel. Pooled on
// Service.allocPool, it makes the admission path — split draw, fan-out,
// reply collection — allocation-free.
type allocScratch struct {
	counts []int64
	target []bool
	rnd    rng.Rand
	subs   []subReq
}

func (s *Service) newAllocScratch() *allocScratch {
	sc := &allocScratch{
		counts: make([]int64, s.total),
		target: make([]bool, s.total),
		subs:   make([]subReq, s.total),
	}
	for i := range sc.subs {
		sc.subs[i].done = make(chan subRep, 1)
	}
	return sc
}

// SplitBalls draws request reqIdx's deterministic multinomial split of k
// balls over len(weights) cells into counts, using rnd as a reusable
// stream (re-seeded in place). The draw depends only on (seed, request
// index, topology) — the conditional-binomial chain behind
// MultinomialWeighted (Hörmann 1993 binomials) draws bit-identical
// splits to a freshly constructed per-request stream — so any process
// that knows the service seed and the admission order reproduces every
// split exactly. It is exported as the one spelling of the split: the
// in-process router below and the cluster tier's front process
// (internal/cluster) must agree draw for draw for the cluster's
// fingerprint to match a single-process replay.
func SplitBalls(rnd *rng.Rand, seed uint64, reqIdx uint64, k int, weights []float64, counts []int64) {
	if len(weights) == 1 || k == 0 {
		for i := range counts {
			counts[i] = 0
		}
		counts[0] = int64(k)
		return
	}
	rnd.Seed(rng.Mix64(seed ^ (reqIdx+1)*routerSalt))
	rnd.MultinomialWeighted(int64(k), weights, counts)
}

// split draws the request's split into the scratch counts.
func (s *Service) split(sc *allocScratch, reqIdx uint64, k int) []int64 {
	SplitBalls(&sc.rnd, s.cfg.Seed, reqIdx, k, s.weights, sc.counts)
	return sc.counts
}

// Allocate admits k fresh balls, routes them across the cells, and runs
// (or joins) one epoch per targeted cell. k == 0 offers a zero batch to
// every cell, re-offering pending balls and advancing every cell's epoch.
func (s *Service) Allocate(k int) (*Report, error) {
	rep := new(Report)
	err := s.AllocateInto(k, rep)
	return rep, err
}

// AllocateInto is Allocate writing into a caller-owned report: rep is
// Reset and refilled, reusing its span and placement backing arrays, so
// a pooled report makes the whole service boundary allocation-free in
// steady state. On partial cell failure the error is non-nil and rep
// still carries the successful cells' spans (see the partial-failure
// contract in runEpochs). A cluster replica hosting a subset of the
// cells rejects plain allocates — it cannot run the whole split — and
// takes cell-addressed ones (AllocateCellsBatch) instead.
func (s *Service) AllocateInto(k int, rep *Report) error {
	rep.Reset()
	if k < 0 {
		return fmt.Errorf("serve: negative arrival count %d", k)
	}
	start := time.Now()
	s.topo.RLock()
	defer s.topo.RUnlock()
	if len(s.cells) != s.total {
		return fmt.Errorf("serve: replica hosts %d of %d cells; plain allocate needs the full topology (use cell-addressed requests)", len(s.cells), s.total)
	}
	// Admission: order the request and draw its split under the sequencer
	// lock, so the (request index -> split) map is a pure function of the
	// arrival order.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: service closed")
	}
	reqIdx := s.nextReq
	s.nextReq++
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	s.metrics.requests.Inc()

	// Single-shard fast path: with one cell there is no split and nothing
	// to coalesce unless callers actually overlap, so a request that can
	// prove it is alone (the CAS) runs the epoch inline on its own
	// goroutine instead of hopping through the batcher — the bare-
	// allocator latency the seed benchmark measures. A CAS loser has just
	// observed a concurrent contributor and queues, sharing the batcher's
	// next epoch with whoever else queued meanwhile. An inline epoch may
	// overlap a batcher epoch; the allocator's mutex orders the two.
	if s.total == 1 {
		c := s.cells[0]
		if c.inlineBusy.CompareAndSwap(0, 1) {
			err := s.allocateInline(c, k, rep, start)
			c.inlineBusy.Store(0)
			return err
		}
	}

	sc := s.allocPool.Get().(*allocScratch)
	counts := s.split(sc, reqIdx, k)
	for g := range sc.target {
		sc.target[g] = counts[g] > 0 || k == 0
	}
	err := s.runEpochs(sc, rep, start)
	s.allocPool.Put(sc)
	return err
}

// AllocateCellsInto is one cell-addressed allocate: the router has
// already drawn the request's multinomial split and hands this replica
// its hosted cells' shares as (cell, count) pairs. Each listed cell
// receives exactly one epoch offer (a zero count re-offers pending
// balls, as k == 0 does for plain allocates); the reply uses global IDs
// and bins, so concatenating the replicas' replies reconstructs the
// single-process reply for the same split. Pairs naming unhosted or
// out-of-range cells fail the whole request before any cell is touched.
// It is AllocateCellsBatch with one item, the shape a sequential
// router's frames carry.
func (s *Service) AllocateCellsInto(pairs []wire.CellCount, rep *Report) error {
	items := [1]CellBatchItem{{Pairs: pairs, Rep: rep}}
	s.AllocateCellsBatch(items[:])
	return items[0].Err
}

// CellBatchItem is one sub-request of a batched upstream frame: a
// cell-addressed allocate plus its caller-owned reply report. Err
// reports the item's outcome; items fail independently.
type CellBatchItem struct {
	Pairs []wire.CellCount
	Rep   *Report
	Err   error
}

// batchScratch holds one batched frame's per-item allocScratch pointers,
// pooled so the batched path stays allocation-free in steady state.
type batchScratch struct {
	scs []*allocScratch
}

// AllocateCellsBatch runs many cell-addressed allocates as one group:
// every item's epoch work is enqueued to the cell batchers before any
// reply is collected, so sub-requests arriving in one upstream batch
// frame coalesce into shared cell epochs instead of serializing one
// epoch per sub-request. Each item succeeds or fails independently
// (Err): pairs naming unhosted or out-of-range cells, or a negative
// count, keep the item out of the round without touching any cell, and a
// failing cell epoch is a partial failure (runEpochs' contract). Items
// are collected in item order, so a sequential replay (one item per
// frame) is bit-identical to one AllocateCellsInto call per request.
func (s *Service) AllocateCellsBatch(items []CellBatchItem) {
	start := time.Now()
	s.topo.RLock()
	defer s.topo.RUnlock()
	valid := len(items)
	for i := range items {
		items[i].Err = nil
		items[i].Rep.Reset()
		for _, p := range items[i].Pairs {
			if p.Cell < 0 || p.Cell >= s.total {
				items[i].Err = fmt.Errorf("serve: cell %d out of range [0, %d)", p.Cell, s.total)
				break
			}
			if s.byGlobal[p.Cell] == nil {
				items[i].Err = fmt.Errorf("serve: cell %d not hosted here", p.Cell)
				break
			}
			if p.Count < 0 {
				items[i].Err = fmt.Errorf("serve: cell %d: negative arrival count %d", p.Cell, p.Count)
				break
			}
		}
		if items[i].Err != nil {
			valid--
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range items {
			if items[i].Err == nil {
				items[i].Err = fmt.Errorf("serve: service closed")
			}
		}
		return
	}
	s.nextReq += uint64(valid) // telemetry only: the router owns the split-relevant sequence
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	bs := s.batchPool.Get().(*batchScratch)
	for len(bs.scs) < len(items) {
		bs.scs = append(bs.scs, nil)
	}
	scs := bs.scs[:len(items)]
	for i := range items {
		scs[i] = nil
		if items[i].Err != nil {
			continue
		}
		sc := s.allocPool.Get().(*allocScratch)
		scs[i] = sc
		for g := range sc.counts {
			sc.counts[g] = 0
			sc.target[g] = false
		}
		for _, p := range items[i].Pairs {
			sc.counts[p.Cell] += int64(p.Count)
			sc.target[p.Cell] = true
		}
		s.metrics.requests.Inc()
		s.enqueueEpochs(sc)
	}
	s.metrics.stageRoute.ObserveDuration(time.Since(start))
	for i := range items {
		if scs[i] == nil {
			continue
		}
		items[i].Err = s.collectEpochs(scs[i], items[i].Rep, start)
		s.allocPool.Put(scs[i])
		scs[i] = nil
	}
	s.batchPool.Put(bs)
}

// allocateInline runs a single-cell request's epoch on the calling
// goroutine — no queue, no batcher handoff. The caller holds the cell's
// inlineBusy flag, so this request is the epoch's only contributor and
// owns every placement the epoch emits, including formerly-pending balls
// (exactly the batcher's first-contributor rule with one contributor).
func (s *Service) allocateInline(c *cell, k int, rep *Report, start time.Time) error {
	s.metrics.stageRoute.ObserveDuration(time.Since(start))
	epochStart := time.Now()
	r, err := c.alloc.Allocate(k)
	s.metrics.stageEpochRun.ObserveDuration(time.Since(epochStart))
	if err != nil {
		s.metrics.stageAllocate.ObserveDuration(time.Since(start))
		return fmt.Errorf("serve: cell %d: %w", c.index, err)
	}
	commitStart := time.Now()
	rep.Cells = 1
	rep.Admitted = k
	if k > 0 {
		rep.Spans = append(rep.Spans, Span{Start: r.IDBase, Stride: 1, Count: k})
	}
	placedMine := 0
	for _, p := range r.Placements {
		if p.ID >= r.IDBase {
			placedMine++
		}
		rep.Placements = append(rep.Placements, Placement{
			ID:  p.ID,
			Bin: int32(c.binBase) + p.Bin,
		})
	}
	rep.Pending = k - placedMine
	rep.Rounds = r.Rounds
	rep.MaxLoad = r.MaxLoad
	rep.Excess = r.Excess
	s.metrics.inlineEpochs.Inc()
	s.metrics.stageCommit.ObserveDuration(time.Since(commitStart))
	s.metrics.stageAllocate.ObserveDuration(time.Since(start))
	return nil
}

// runEpochs fans the scratch's targeted (cell, count) work out to the
// hosted cells' batchers and collects the replies into rep, in global
// cell order. Callers hold the topology read side and have validated
// that every targeted cell is hosted.
func (s *Service) runEpochs(sc *allocScratch, rep *Report, start time.Time) error {
	s.enqueueEpochs(sc)
	s.metrics.stageRoute.ObserveDuration(time.Since(start))
	return s.collectEpochs(sc, rep, start)
}

// enqueueEpochs fans the scratch's targeted (cell, count) work out to
// the hosted cells' batchers without waiting for any reply. The enqueue
// timestamp feeds the batch_wait stage histogram. Split from
// collectEpochs so a batched upstream frame can enqueue every
// sub-request's work before collecting any of it — the cell batchers
// then see all of the frame's sub-requests in one drain and coalesce
// them into shared epochs.
func (s *Service) enqueueEpochs(sc *allocScratch) {
	now := time.Now()
	for g, c := range s.byGlobal {
		if !sc.target[g] {
			continue
		}
		sub := &sc.subs[g]
		sub.count = int(sc.counts[g])
		sub.enq = now
		c.queue <- sub
	}
}

// collectEpochs gathers the replies of a prior enqueueEpochs into rep.
func (s *Service) collectEpochs(sc *allocScratch, rep *Report, start time.Time) error {
	// Collect in global cell order. Every targeted cell sends exactly one
	// reply, so the scratch (including the reply channels) is quiescent
	// and reusable once this loop finishes.
	stride := int64(s.total)
	var firstErr error
	var commitNs int64
	admitted := 0
	for g, c := range s.byGlobal {
		if !sc.target[g] {
			continue
		}
		sr := <-sc.subs[g].done
		stepStart := time.Now()
		if sr.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: cell %d: %w", c.index, sr.err)
			}
			commitNs += time.Since(stepStart).Nanoseconds()
			continue
		}
		rep.Cells++
		admitted += sr.count
		if sr.count > 0 {
			rep.Spans = append(rep.Spans, Span{
				Start:  sr.base*stride + int64(c.index),
				Stride: stride,
				Count:  sr.count,
			})
		}
		placedMine := 0
		for _, p := range sr.rep.Placements {
			mine := p.ID >= sr.base && p.ID < sr.base+int64(sr.count)
			if mine {
				placedMine++
			}
			// Formerly-pending balls (admitted by an earlier request of
			// this cell) go to the epoch's first contributor so their
			// eventual placement is not lost.
			if mine || (sr.first && p.ID < sr.rep.IDBase) {
				rep.Placements = append(rep.Placements, Placement{
					ID:  p.ID*stride + int64(c.index),
					Bin: int32(c.binBase) + p.Bin,
				})
			}
		}
		rep.Pending += sr.count - placedMine
		if sr.rep.Rounds > rep.Rounds {
			rep.Rounds = sr.rep.Rounds
		}
		if sr.rep.MaxLoad > rep.MaxLoad {
			rep.MaxLoad = sr.rep.MaxLoad
		}
		if sr.rep.Excess > rep.Excess {
			rep.Excess = sr.rep.Excess
		}
		commitNs += time.Since(stepStart).Nanoseconds()
	}
	// Partial-failure contract: Admitted is the sum of the span counts —
	// the balls actually granted IDs — so a failing cell (which granted
	// nothing; its share stays pending inside that cell per the
	// allocator's failed-epoch contract) never inflates the count. The
	// spans of the cells that succeeded ride alongside the error, and
	// those balls are live and releasable.
	rep.Admitted = admitted
	// Commit is the reply-assembly work alone: the blocking receives above
	// are excluded, so commit + epoch_run + batch_wait decompose the gap
	// between route and the end-to-end allocate stage.
	s.metrics.stageCommit.Observe(commitNs)
	s.metrics.stageAllocate.ObserveDuration(time.Since(start))
	return firstErr
}

// maxCoalesce caps contributors per epoch, so a queue that stays deep
// under sustained overload cannot grow one epoch's batch without bound.
const maxCoalesce = 128

// cellLoop is cell c's batcher: it blocks for one sub-request, drains
// everything else already queued into the same epoch, runs the cell's
// allocator once over the combined batch, slices the admitted ID range
// back out to the contributors in arrival order, and repeats.
//
// The loop is self-clocked group commit: it runs one epoch at a time,
// and requests that arrive while an epoch runs queue up and form the
// next batch. Batch size therefore follows the offered concurrency with
// no timer or wait, and each batch sees the loads the previous one left
// (the batch shape of BCE+12). A lone sequential caller is blocked on
// its reply while its epoch runs, so under sequential replay every epoch
// has exactly one contributor.
func (s *Service) cellLoop(c *cell) {
	defer s.loops.Done()
	defer close(c.done)
	subs := make([]*subReq, 0, maxCoalesce)
	for first := range c.queue {
		subs = append(subs[:0], first)
	drain:
		for len(subs) < maxCoalesce {
			select {
			case more, ok := <-c.queue:
				if !ok {
					break drain
				}
				subs = append(subs, more)
			default:
				break drain
			}
		}
		total := 0
		epochStart := time.Now()
		for _, sb := range subs {
			total += sb.count
			s.metrics.stageBatchWait.ObserveDuration(epochStart.Sub(sb.enq))
		}
		rep, err := c.alloc.Allocate(total)
		s.metrics.stageEpochRun.ObserveDuration(time.Since(epochStart))
		if err != nil {
			for _, sb := range subs {
				sb.done <- subRep{err: err}
			}
			continue
		}
		base := rep.IDBase
		for i, sb := range subs {
			// Read the count before replying: the reply hands the pooled
			// subReq back to its request, which may recycle it immediately.
			cnt := sb.count
			sb.done <- subRep{rep: rep, base: base, count: cnt, first: i == 0}
			base += int64(cnt)
		}
	}
}
