package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/rng"
)

// Ball is the per-agent state of one ball: 48 bytes, most of them its
// randomness stream. Protocols may use State freely (the engine records
// placements in its own array, never in the Ball); Rand() is the ball's
// private randomness.
type Ball struct {
	ID    int64
	State int64
	rand  rng.Rand
}

// Rand returns the ball's private randomness stream. The engine seeds it
// when it initializes the ball, before Config.InitState runs, from the run
// seed and the ball index alone, so results are identical at any worker
// count. The stream lives inside the Ball itself — no per-ball heap object.
func (b *Ball) Rand() *rng.Rand { return &b.rand }

// Accept is an accept message delivered to a ball: bin From accepted the
// ball's request and attached Payload (used by the asymmetric algorithm to
// carry the round-robin offset).
type Accept struct {
	From    int
	Payload int64
}

// TieBreak selects which requests a bin accepts when it receives more than
// its capacity. The paper allows this choice to be arbitrary (even
// adversarial); protocols under test must meet their guarantees for any
// tie-breaking rule.
type TieBreak int

const (
	// TieFirst accepts requests in arrival order (deterministic).
	TieFirst TieBreak = iota
	// TieRandom accepts a uniformly random subset (bin's private coins).
	TieRandom
	// TieAdversarialHighID accepts the requests with the highest ball IDs,
	// a simple adversarial rule used in robustness tests.
	TieAdversarialHighID
)

// Protocol defines a balls-into-bins algorithm run by the Engine.
//
// Targets, Capacity and Payload must be safe for concurrent use: in large
// rounds the engine invokes them from several goroutines for distinct balls
// and bins. Choose and Place run on the engine's own goroutine.
// Implementations should treat receiver state as read-only during a run
// (round-indexed parameters such as thresholds must be precomputed or
// derived from the arguments).
type Protocol interface {
	// Targets appends the bins that (unallocated) ball b contacts in round
	// to buf and returns the extended slice. Returning an empty slice means
	// the ball stays silent this round.
	Targets(round int, b *Ball, n int, buf []int) []int

	// Hold reports whether bins collect this round's requests without
	// replying (the "collecting for k rounds" behaviour of Section 4 used
	// by the phase-simulation experiments). Held requests are answered in
	// the next round for which Hold is false.
	Hold(round int) bool

	// Capacity returns the number of requests bin may accept in round,
	// given the bin's load at the beginning of the round. Values <= 0 mean
	// the bin rejects all requests.
	Capacity(round int, bin int, load int64) int64

	// Payload returns the payload attached to the k-th (0-based) accept
	// sent by bin in this round. Most protocols return 0.
	Payload(round int, bin int, k int64) int64

	// Choose selects which accept ball b commits to, as an index into
	// accepts (which is never empty). The engine requires an immediate
	// choice; protocols model deferred decisions by holding requests
	// instead (see Hold).
	Choose(round int, b *Ball, accepts []Accept) int

	// Place maps the chosen accept to the bin that finally stores the
	// ball. Symmetric protocols return a.From; the asymmetric algorithm
	// redirects to a member bin of the superbin.
	Place(a Accept) int

	// Done reports whether the algorithm stops before executing round,
	// given the number of still-unallocated balls. The engine always stops
	// when no balls remain.
	Done(round int, remaining int64) bool
}

// RoundObserver is an optional interface protocols may implement to observe
// the full system state at the start of every round (before requests are
// sent). The paper's threshold family allows bins to choose thresholds as an
// arbitrary function of the state at the beginning of a round — this hook
// provides exactly that power. loads is read-only; the engine calls the hook
// from a single goroutine.
type RoundObserver interface {
	RoundStart(round int, loads []int64, remaining int64)
}

// request is a ball→bin message recorded during step 1 of a round.
type request struct {
	ball int32 // index into the engine's ball array
	bin  int32
}

// acceptRec is an accept routed back to a ball.
type acceptRec struct {
	ball    int32
	bin     int32
	payload int64
}

// agentRun is the mutable state of one agent-mode execution. The shard
// worker bodies are methods on it, bound once per arena (gatherFn,
// processFn), so the round loop allocates nothing in the steady state.
type agentRun struct {
	e   *Engine
	scr *scratch

	balls       []Ball
	active      []int32
	placed      []bool // placed[i]: ball i has committed
	loads       []int64
	binReceived []int64
	ballSent    []int32
	placements  []int32

	ballSeed uint64 // the run's ball-stream domain
	round    int

	// step-2 inputs (set by the round loop before the process shards run)
	byBin   []int32
	offsets []int32
	windows bool // shards are windows of scr.acc (multi-request rounds)

	initFn    func(wi, lo, hi int)
	gatherFn  func(wi, lo, hi int)
	processFn func(wi, lo, hi int)
}

// runAgent executes the agent-based engine: explicit per-ball agents,
// sharded across workers, with all per-round working memory drawn from a
// reusable scratch arena. With Config.Arena set, the run-state buffers
// (and the Result itself) come from the caller's arena, so repeated runs
// allocate nothing once the arena is warm.
func (e *Engine) runAgent() (*model.Result, error) {
	n := e.p.N
	m := e.p.M

	arena := e.cfg.Arena
	if arena == nil {
		arena = &Arena{}
	}

	ar := &arena.run
	ar.e = e
	if ar.scr == nil || ar.scr.workers != e.cfg.Workers {
		ar.scr = newScratch(e.cfg.Workers, n)
	} else {
		ar.scr.ensureBins(n)
	}
	// Bind the shard bodies once per arena; the receiver &arena.run is
	// stable across runs, so the method-value closures are reusable.
	if ar.gatherFn == nil {
		ar.initFn = ar.initShard
		ar.gatherFn = ar.gatherShard
		ar.processFn = ar.processShard
	}

	// Ball streams are derived from a domain of the config seed disjoint
	// from the (historical) worker-stream domain, so that results are
	// identical for any worker count.
	ar.ballSeed = rng.Mix64(e.cfg.Seed ^ 0x5A5A5A5A5A5A5A5A)
	arena.balls = grow(arena.balls, int(m))
	ar.balls = arena.balls
	shard(int(m), ar.scr.forkWorkers(int(m)), ar.initFn)
	if e.cfg.InitState != nil {
		for i := range ar.balls {
			e.cfg.InitState(&ar.balls[i])
		}
	}

	arena.loads = growZero(arena.loads, n)
	arena.binReceived = growZero(arena.binReceived, n)
	arena.ballSent = growZero(arena.ballSent, int(m))
	arena.placed = growZero(arena.placed, int(m))
	arena.active = grow(arena.active, int(m))
	ar.placed = arena.placed
	ar.loads = arena.loads
	ar.binReceived = arena.binReceived
	ar.ballSent = arena.ballSent
	ar.active = arena.active
	for i := range ar.active {
		ar.active[i] = int32(i)
	}
	ar.placements = nil
	if e.cfg.RecordPlacements {
		arena.placements = grow(arena.placements, int(m))
		ar.placements = arena.placements
		for i := range ar.placements {
			ar.placements[i] = -1
		}
	}
	held := arena.held[:0] // requests collected during Hold rounds
	var maxLoad int64      // running maximum, updated at commit time
	var metrics model.Metrics
	var trace []int64
	if e.cfg.Trace {
		trace = arena.trace[:0]
	}

	res := &arena.res
	*res = model.Result{Problem: e.p, Loads: ar.loads}

	round := 0
	hitLimit := true
	for ; round < e.cfg.MaxRounds; round++ {
		remaining := int64(len(ar.active))
		if remaining == 0 || e.proto.Done(round, remaining) {
			hitLimit = false
			break
		}
		if e.cfg.Trace {
			trace = append(trace, remaining)
		}
		if obs, ok := e.proto.(RoundObserver); ok {
			obs.RoundStart(round, ar.loads, remaining)
		}
		ar.round = round

		// Step 1: active balls emit requests (ball shards; parallel from
		// forkMin balls up).
		reqs, sentThisRound, perBall := ar.gatherRequests()
		metrics.BallRequests += sentThisRound
		metrics.TotalMessages += sentThisRound

		if e.proto.Hold(round) {
			// Grow once for the whole round, not once per shard.
			held = slices.Grow(held, int(sentThisRound))
			for _, part := range reqs {
				held = append(held, part...)
			}
			e.emitRound(round, remaining, sentThisRound, 0, maxLoad)
			continue
		}
		total := sentThisRound
		if len(held) > 0 {
			total += int64(len(held))
			reqs = ar.scr.joinFlush(held, reqs)
			held = held[:0]
			// Flushed rounds can repeat a ball across collection rounds, so
			// the sort-free commit grouping does not apply.
			perBall = 2
		}
		if total == 0 {
			e.emitRound(round, remaining, sentThisRound, 0, maxLoad)
			continue
		}

		// Step 2: bins process requests (bin shards; parallel from forkMin
		// requests up).
		accepts := ar.processRequests(reqs, int(total), perBall <= 1)
		// Every request is answered (accept or reject).
		metrics.BinReplies += total
		metrics.TotalMessages += total

		// Step 3: balls with accepts commit (on this goroutine).
		commits, roundMax := ar.commitBalls(accepts, &metrics, perBall <= 1)
		if roundMax > maxLoad {
			maxLoad = roundMax
		}

		// Drop allocated balls from the active set.
		if commits > 0 {
			ar.active = compactActive(ar.active, ar.placed)
		}
		e.emitRound(round, remaining, sentThisRound, int64(commits), maxLoad)
	}

	arena.held = held[:0]
	if e.cfg.Trace {
		arena.trace = trace
	}
	res.Rounds = round
	res.Metrics = finishMetrics(metrics, ar.ballSent, ar.binReceived)
	res.TraceRemaining = trace
	res.Placements = ar.placements
	res.Unallocated = int64(len(ar.active))
	// A protocol-initiated stop (Done) with balls remaining is a valid
	// partial result (multi-phase algorithms hand the remainder to their
	// next phase); only exhausting MaxRounds is an error.
	if hitLimit && len(ar.active) > 0 {
		return res, ErrRoundLimit
	}
	return res, nil
}

// initShard is the ball-initialization worker body: balls [lo, hi) get
// their index as ID and their seeded stream.
func (r *agentRun) initShard(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		b := &r.balls[i]
		*b = Ball{ID: int64(i)}
		b.rand.Seed(rng.Mix64(r.ballSeed + uint64(i)*0x9E3779B97F4A7C15))
	}
}

// gatherShard is the step-1 worker body: balls active[lo:hi] emit their
// requests into the worker's shard buffer, sized for one request per ball.
func (r *agentRun) gatherShard(wi, lo, hi int) {
	scr := r.scr
	buf := scr.targetBuf[wi]
	out := grow(scr.reqShards[wi], hi-lo)[:0]
	perBall := 0
	for _, bi := range r.active[lo:hi] {
		b := &r.balls[bi]
		buf = r.e.proto.Targets(r.round, b, r.e.p.N, buf[:0])
		sent := int64(r.ballSent[bi]) + int64(len(buf))
		if sent > math.MaxInt32 {
			panic(fmt.Sprintf("sim: ball %d sent more than %d requests", bi, math.MaxInt32))
		}
		r.ballSent[bi] = int32(sent)
		if len(buf) > perBall {
			perBall = len(buf)
		}
		for _, bin := range buf {
			out = append(out, request{ball: bi, bin: int32(bin)})
		}
	}
	scr.targetBuf[wi] = buf
	scr.reqShards[wi] = out
	scr.gatherMax[wi] = perBall
}

// gatherRequests runs step 1 and returns the round's requests as the
// worker shards themselves, in deterministic (worker-shard) order, with
// their total and the maximum number of requests any single ball sent (1
// for degree-1 rounds — the precondition for the sort-free commit
// grouping). The shards are valid until the next call.
func (r *agentRun) gatherRequests() (shards [][]request, sent int64, perBall int) {
	scr := r.scr
	shards = scr.reqShards[:shard(len(r.active), scr.forkWorkers(len(r.active)), r.gatherFn)]
	for _, part := range shards {
		sent += int64(len(part))
	}
	return shards, sent, slices.Max(scr.gatherMax[:len(shards)])
}

// processShard is the step-2 worker body: bins [lo, hi) answer their
// requests into the worker's accept shard, sized for every request in the
// range: the worker's own buffer, which it grows itself so that workers
// fault fresh memory in parallel, or in a multi-request round the range's
// window of scr.acc.
func (r *agentRun) processShard(wi, lo, hi int) {
	scr := r.scr
	var out []acceptRec
	if r.windows {
		out = scr.acc[r.offsets[lo]:r.offsets[lo]:r.offsets[hi]]
	} else {
		out = grow(scr.accShards[wi], int(r.offsets[hi]-r.offsets[lo]))[:0]
	}
	for bin := lo; bin < hi; bin++ {
		reqs := r.byBin[r.offsets[bin]:r.offsets[bin+1]]
		if len(reqs) == 0 {
			continue
		}
		r.binReceived[bin] += int64(len(reqs))
		capacity := r.e.proto.Capacity(r.round, bin, r.loads[bin])
		if capacity <= 0 {
			continue
		}
		k := int64(len(reqs))
		if capacity < k {
			k = capacity
			r.e.applyTieBreak(r.round, bin, reqs)
		}
		for i := int64(0); i < k; i++ {
			out = append(out, acceptRec{
				ball:    reqs[i],
				bin:     int32(bin),
				payload: r.e.proto.Payload(r.round, bin, i),
			})
		}
	}
	if r.windows {
		scr.accWin[wi] = out
	} else {
		scr.accShards[wi] = out
	}
}

// smallRoundMax bounds the sort-based small-round path: insertion sort is
// quadratic, so only genuinely small request sets qualify.
const smallRoundMax = 256

// processRequests runs step 2 over the round's total requests, given as
// parts in arrival order, and returns the accepts as shards whose
// concatenation is in ascending-bin order (scratch-backed, valid until the
// next call). In a round where a ball may hold several accepts
// (!singleReq), the shards are ascending windows of scr.acc, sized for
// the round's requests, so commit can join them in place. Rounds
// counting-sort the requests and answer contiguous bin
// ranges, across workers from forkMin requests up; small rounds (the
// serving/churn regime: a handful of requests into many bins) instead sort
// the requests by bin and walk only the touched bins, avoiding the
// counting sort's O(n) per-round passes. Both paths produce bit-identical
// accept sequences.
func (r *agentRun) processRequests(parts [][]request, total int, singleReq bool) [][]acceptRec {
	n := r.e.p.N
	scr := r.scr
	if total <= smallRoundMax && total*8 < n {
		// A small round spans several gather shards only when most of
		// many active balls stayed silent; join those.
		return r.processSmall(flatten(&scr.flush, parts))
	}
	r.byBin, r.offsets = scr.groupByBin(parts, n)
	shards := scr.accShards
	if r.windows = !singleReq; r.windows {
		scr.acc = grow(scr.acc, total)
		shards = scr.accWin
	}
	return shards[:shard(n, scr.forkWorkers(total), r.processFn)]
}

// processSmall is the small-round step 2: requests are stable-sorted by
// destination bin (preserving arrival order within a bin — exactly the
// grouping the counting sort produces) and the touched bins are answered
// inline, O(k log k + k·d) for k requests instead of O(n), into the first
// accept shard. Sequential by design: rounds this small gain nothing from
// bin sharding.
func (r *agentRun) processSmall(reqs []request) [][]acceptRec {
	sortRequestsByBin(reqs)
	scr := r.scr
	accepts := scr.accShards[0][:0]
	buf := scr.runBuf[:0]
	for i := 0; i < len(reqs); {
		bin := int(reqs[i].bin)
		j := i + 1
		for j < len(reqs) && int(reqs[j].bin) == bin {
			j++
		}
		cnt := j - i
		r.binReceived[bin] += int64(cnt)
		capacity := r.e.proto.Capacity(r.round, bin, r.loads[bin])
		if capacity > 0 {
			buf = buf[:0]
			for _, q := range reqs[i:j] {
				buf = append(buf, q.ball)
			}
			k := int64(cnt)
			if capacity < k {
				k = capacity
				r.e.applyTieBreak(r.round, bin, buf)
			}
			for x := int64(0); x < k; x++ {
				accepts = append(accepts, acceptRec{
					ball:    buf[x],
					bin:     int32(bin),
					payload: r.e.proto.Payload(r.round, bin, x),
				})
			}
		}
		i = j
	}
	scr.runBuf = buf
	scr.accShards[0] = accepts
	return scr.accShards[:1]
}

// sortRequestsByBin stable-insertion-sorts reqs by destination bin,
// preserving arrival order within each bin. Bounded by smallRoundMax, so
// the quadratic worst case stays tiny.
func sortRequestsByBin(reqs []request) {
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].bin < reqs[j-1].bin; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
}

// forkMin is the smallest step, in balls (gather) or requests (process),
// that forks workers. Smaller steps run inline on the calling goroutine:
// spawning and joining goroutines would cost more than the step itself,
// and rounds this small (every serving epoch) then allocate nothing. The
// choice depends on the input size alone, and results never depend on it.
const forkMin = 4096

// forkWorkers is the number of workers a step over items balls or
// requests may use.
func (s *scratch) forkWorkers(items int) int {
	if items < forkMin {
		return 1
	}
	return s.workers
}

// shard runs fn(wi, lo, hi) over w contiguous chunks of [0, total): chunk
// 0 inline on the calling goroutine, the rest concurrently. It returns the
// number of chunks dispatched. With one worker (or one chunk) no goroutine
// is spawned, keeping the steady state allocation-free.
func shard(total, w int, fn func(wi, lo, hi int)) int {
	chunk := (total + w - 1) / w
	if total <= chunk {
		// Single shard: run inline, no goroutines, no WaitGroup.
		if total > 0 {
			fn(0, 0, total)
			return 1
		}
		return 0
	}
	var wg sync.WaitGroup
	wi := 1
	for lo := chunk; lo < total; lo += chunk {
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			fn(wi, lo, hi)
		}(wi, lo, min(lo+chunk, total))
		wi++
	}
	fn(0, 0, chunk)
	wg.Wait()
	return wi
}

// applyTieBreak reorders reqs so that the accepted prefix reflects the
// configured tie-breaking rule.
func (e *Engine) applyTieBreak(round, bin int, reqs []int32) {
	switch e.cfg.TieBreak {
	case TieFirst:
		// arrival order; nothing to do
	case TieRandom:
		// Deterministic per (seed, bin, round) shuffle, independent of the
		// worker that processes the bin.
		br := rng.New(rng.Mix64(e.cfg.Seed ^ uint64(bin)*0x9E3779B97F4A7C15 ^ uint64(round)*0xC2B2AE3D27D4EB4F))
		br.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	case TieAdversarialHighID:
		// Highest ball IDs first (simple insertion-free selection sort of
		// the prefix would be O(k*len); full sort keeps it simple).
		sortInt32Desc(reqs)
	}
}

func sortInt32Desc(s []int32) {
	// Heapsort (descending via min-heap semantics inverted).
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftDownMin(s, i)
	}
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDownMin(s[:end], 0)
	}
}

func siftDownMin(s []int32, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s[l] < s[smallest] {
			smallest = l
		}
		if r < len(s) && s[r] < s[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// commitBalls runs step 3 on the calling goroutine: group the accept
// shards by ball, let each ball choose, and apply placements. Returns the
// number of balls allocated this round and the maximal load among the bins
// committed to.
//
// singleReq asserts that every ball sent at most one request this round
// (every degree-1 round without a held-request flush — the paper's main
// algorithm, and the whole churn hot path). Then every ball has at most
// one accept, groups are singletons whatever the order, and commit walks
// the shards in place, in bin order. Otherwise a ball's accepts must be
// adjacent: the shards are joined and sorted by ball (in-place heapsort,
// the dominant per-round cost for small epochs). Commit outcomes are
// per-ball and order-independent, so results are bit-identical either way.
func (r *agentRun) commitBalls(shards [][]acceptRec, metrics *model.Metrics, singleReq bool) (commits int, roundMax int64) {
	if !singleReq {
		accepts := shards[0]
		if len(shards) > 1 {
			// Several shards are ascending windows of scr.acc, so joining
			// them moves each down behind the one before, in place.
			accepts = r.scr.acc[:0]
			for _, part := range shards {
				accepts = append(accepts, part...)
			}
		}
		sortAcceptsByBall(accepts)
		return r.commit(accepts, metrics)
	}
	for _, accepts := range shards {
		c, m := r.commit(accepts, metrics)
		commits += c
		roundMax = max(roundMax, m)
	}
	return commits, roundMax
}

// commit commits every ball of accepts, in which each ball's accepts are
// adjacent.
func (r *agentRun) commit(accepts []acceptRec, metrics *model.Metrics) (int, int64) {
	buf := r.scr.accBuf
	var commits int
	var msgs, roundMax int64
	for i := 0; i < len(accepts); {
		bi := accepts[i].ball
		buf = buf[:0]
		for ; i < len(accepts) && accepts[i].ball == bi; i++ {
			buf = append(buf, Accept{From: int(accepts[i].bin), Payload: accepts[i].payload})
		}
		choice := r.e.proto.Choose(r.round, &r.balls[bi], buf)
		if choice < 0 || choice >= len(buf) {
			panic(fmt.Sprintf("sim: Choose returned invalid index %d of %d", choice, len(buf)))
		}
		place := r.e.proto.Place(buf[choice])
		r.loads[place]++
		roundMax = max(roundMax, r.loads[place])
		if r.placements != nil {
			r.placements[bi] = int32(place)
		}
		r.placed[bi] = true
		commits++
		// One commit/inform message per accepting bin (the chosen bin
		// learns of the placement; others learn of the decline), plus one
		// redirect message when the placement bin differs.
		msgs += int64(len(buf))
		if place != buf[choice].From {
			msgs++
		}
	}
	r.scr.accBuf = buf
	metrics.CommitMessages += msgs
	metrics.TotalMessages += msgs
	return commits, roundMax
}

func sortAcceptsByBall(a []acceptRec) {
	// Heapsort by ball index; stable ordering within a ball is not required
	// (accept order within a ball carries no meaning to protocols beyond
	// the set itself, and payloads travel with their records).
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDownAccept(a, i)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDownAccept(a[:end], 0)
	}
}

func siftDownAccept(a []acceptRec, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(a) && a[l].ball > a[largest].ball {
			largest = l
		}
		if r < len(a) && a[r].ball > a[largest].ball {
			largest = r
		}
		if largest == i {
			return
		}
		a[i], a[largest] = a[largest], a[i]
		i = largest
	}
}

// compactActive removes placed balls from the active set, preserving
// order.
func compactActive(active []int32, placed []bool) []int32 {
	out := active[:0]
	for _, bi := range active {
		if !placed[bi] {
			out = append(out, bi)
		}
	}
	return out
}
