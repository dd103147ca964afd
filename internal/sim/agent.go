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
// randomness stream. ID belongs to the engine: it is the ball's index
// among the run's balls, and protocols must not write it. Protocols may
// use State freely (the engine records placements in its own array, never
// in the Ball); Rand() is the ball's private randomness. A run of at least
// forkMin balls without Config.InitState stores a ball only once it
// survives round 0 (see Protocol).
type Ball struct {
	ID    int64
	State int64
	rand  rng.Rand
}

// Rand returns the ball's private randomness stream. The engine seeds it
// when it initializes the ball, before Config.InitState runs, from the run
// seed and the ball index alone, so results are identical at any worker
// count. A ball stored after round 0 is seeded again and replays its
// round-0 Targets call, so its stream stands where it would stand had the
// ball been stored from the start. The stream lives inside the Ball itself
// — no per-ball heap object.
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
// Every method but Hold and Done must be safe for concurrent use: in large
// rounds the engine invokes Targets, Capacity and Payload from several
// goroutines for distinct balls and bins, and in rounds where each ball
// sends at most one request a ball commits inside step 2, so Place too runs
// concurrently, for distinct balls. In a large such round the worker that
// gathered a ball runs Payload and Place for its accept, so a bin's answers
// are numbered from several goroutines at once; in any other it is the
// worker that answers the bin. Choose may use only its own ball's state and
// stream.
// Implementations should treat receiver state as read-only during a run
// (round-indexed parameters such as thresholds must be precomputed or
// derived from the arguments).
type Protocol interface {
	// Targets appends the bins that (unallocated) ball b contacts in round
	// to buf and returns the extended slice. Returning an empty slice means
	// the ball stays silent this round. Targets must depend only on the
	// round, the ball and read-only receiver state: a run of at least
	// forkMin balls without Config.InitState builds each ball for round 0
	// without storing it, and a ball that survives round 0 is stored by
	// replaying its seed and its round-0 Targets call, so round 0 may call
	// Targets twice for the same ball.
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
	// accepts. The engine calls it only when the ball holds two or more
	// accepts: with one, 0 is the only valid index, and a committed ball
	// is never read again. The accepts arrive in the order
	// sortAcceptsByBall leaves them in: the round's accepts are listed bin
	// by bin and heapsorted by ball, which in general leaves a ball's
	// accepts in neither request nor bin order. Results depend on that
	// order, since a Choose that returns 0 takes the first. The engine requires an
	// immediate choice; protocols model deferred decisions by holding
	// requests instead (see Hold).
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
	ball int32 // ball index (agentRun.ballID)
	bin  int32
}

// acceptRec is an accept routed back to a ball.
type acceptRec struct {
	ball    int32
	bin     int32
	payload int64
}

// binTally is one step-2 worker's share of a round's commits. A worker
// keeps it in a local and stores it once, at the end of its shard, so the
// workers never write neighbouring tallies while they run.
type binTally struct {
	commits int
	msgs    int64 // commit messages
	// redirects holds the commits that Place sent outside the accepting
	// bin. Step 2 counts every accept in its bin's load; after the step's
	// join each redirect moves one ball on to its target.
	redirects []redirect
}

// redirect is a commit that Place moved from the accepting bin to another.
type redirect struct{ from, to int32 }

// agentRun is the mutable state of one agent-mode execution, and the
// owner of its per-ball buffers, which an arena keeps across runs. The
// shard worker bodies are methods on it, bound once per arena (initFn,
// gatherFn, processFn, ...), so the round loop allocates nothing in the
// steady state.
type agentRun struct {
	e   *Engine
	scr *scratch

	balls       []Ball
	active      []int32
	stay        []bool // stay[i]: active ball i stays unallocated after this round
	ballSent    []int32
	loads       []int64
	binReceived []int32 // guarded against overflow like ballSent (receive)
	placements  []int32

	ballSeed uint64 // the run's ball-stream domain
	round    int

	// A ball index is the ball's own index until the survivors of a fresh
	// round 0 are stored; from then on (slots) it is the ball's slot among
	// them, in ascending ball order, and Ball.ID is its own index. fresh
	// is set until such a round 0 ends: no ball is stored yet.
	fresh, slots bool

	// inPlace is set by the round loop before step 1 for a round that may
	// commit in place: each gather worker also counts its requests by bin.
	// If every ball then sent at most one request, step 2 commits each
	// request at its gather position (rankShard, commitShard).
	inPlace bool

	// step-2 inputs (set by processRequests before the step-2 shards run)
	parts   [][]request // the round's requests, in arrival order
	byBin   []int32
	offsets []int32
	single  bool // each ball sent at most one request: commit while answering

	initFn    func(wi, lo, hi int)
	freshFn   func(wi, lo, hi int)
	gatherFn  func(wi, lo, hi int)
	processFn func(wi, lo, hi int)
	rankFn    func(wi, lo, hi int)
	commitFn  func(wi, lo, hi int)
	countFn   func(wi, lo, hi int)
	replayFn  func(wi, lo, hi int)
}

// runAgent executes the agent-based engine: explicit per-ball agents,
// sharded across workers, with all per-round working memory drawn from a
// reusable scratch arena. With Config.Arena set, the run-state buffers
// (and the Result itself) come from the caller's arena, so repeated runs
// allocate nothing once the arena is warm; without it, from a private
// arena that the Result does not keep alive (runStorage).
//
// A run of at least forkMin balls without Config.InitState is fresh: its
// round 0 builds each ball on the fly in the gather worker's own Ball
// (freshShard), and only the balls that survive round 0 are stored
// (storeSurvivors). If round 0 holds its requests or a ball sends several,
// the run stores every ball up front instead (storeAll), as every other
// run does. Results never depend on which path runs.
func (e *Engine) runAgent() (*model.Result, error) {
	n := e.p.N
	m := e.p.M

	arena, res := runStorage(e.cfg.Arena)

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
		ar.freshFn = ar.freshShard
		ar.gatherFn = ar.gatherShard
		ar.processFn = ar.processShard
		ar.rankFn = ar.rankShard
		ar.commitFn = ar.commitShard
		ar.countFn = ar.countShard
		ar.replayFn = ar.replayShard
	}

	// Ball streams are derived from a domain of the config seed disjoint
	// from the (historical) worker-stream domain, so that results are
	// identical for any worker count.
	ar.ballSeed = rng.Mix64(e.cfg.Seed ^ 0x5A5A5A5A5A5A5A5A)
	ar.fresh = m >= forkMin && e.cfg.InitState == nil
	ar.slots = false
	if !ar.fresh {
		ar.storeAll()
	}

	// Fresh vectors come zeroed from make, and only reused ones are
	// cleared. Gather writes every active ball's stay mark, so those are
	// never cleared.
	arena.loads = growZero(arena.loads, n)
	arena.binReceived = growZero(arena.binReceived, n)
	ar.stay = grow(ar.stay, int(m))
	ar.loads = arena.loads
	ar.binReceived = arena.binReceived
	ar.placements = nil
	if e.cfg.RecordPlacements {
		arena.placements = grow(arena.placements, int(m))
		ar.placements = arena.placements
		for i := range ar.placements {
			ar.placements[i] = -1
		}
	}
	held := arena.held[:0] // requests collected during Hold rounds
	var metrics model.Metrics
	var trace []int64
	if e.cfg.Trace {
		trace = arena.trace[:0]
	}

	*res = model.Result{Problem: e.p, Loads: ar.loads}

	round := 0
	hitLimit := true
	for ; round < e.cfg.MaxRounds; round++ {
		remaining := int64(ar.live())
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
		hold := e.proto.Hold(round)
		if hold && ar.fresh {
			ar.storeAll()
		}

		// Step 1: active balls emit requests (ball shards; parallel from
		// forkMin balls up). A round of at least forkMin balls that answers
		// only its own fresh requests, under a tie-break that keeps their
		// order, counts them by bin as it gathers, one histogram per gather
		// shard, once the active balls outnumber those histograms' entries.
		gatherShards := chunks(int(remaining), ar.scr.forkWorkers(int(remaining)))
		ar.inPlace = !hold && len(held) == 0 && e.cfg.TieBreak != TieRandom &&
			remaining >= forkMin && int(remaining) >= gatherShards*(n+2)
		reqs, sentThisRound, perBall := ar.gatherRequests(&metrics)

		if hold {
			// Grow once for the whole round, not once per shard.
			held = slices.Grow(held, int(sentThisRound))
			for _, part := range reqs {
				held = append(held, part...)
			}
			continue
		}
		total := sentThisRound
		if len(held) > 0 {
			total += int64(len(held))
			reqs = ar.scr.joinFlush(held, reqs)
			held = held[:0]
			// Flushed rounds can repeat a ball across collection rounds, so
			// a ball may hold several accepts.
			perBall = 2
		}

		// Step 2: bins process requests (bin shards; parallel from forkMin
		// requests up). Every request is answered (accept or reject).
		// Step 3: balls with accepts commit — inside step 2 when each ball
		// sent at most one request, else on this goroutine.
		var commits int
		if total > 0 {
			commits = ar.processRequests(reqs, int(total), perBall <= 1, &metrics)
			metrics.BinReplies += total
			metrics.TotalMessages += total
		}

		// Drop allocated balls from the active set; a fresh round 0 stores
		// the balls that stay instead.
		if ar.fresh {
			ar.storeSurvivors()
		} else if commits > 0 {
			ar.active = compactActive(ar.active, ar.stay)
		}
	}

	arena.held = held[:0]
	if e.cfg.Trace {
		arena.trace = trace
	}
	metrics.MaxBinReceived = int64(slices.Max(ar.binReceived))
	res.Rounds = round
	res.Metrics = metrics
	res.TraceRemaining = trace
	res.Placements = ar.placements
	res.Unallocated = int64(ar.live())
	// A protocol-initiated stop (Done) with balls remaining is a valid
	// partial result (multi-phase algorithms hand the remainder to their
	// next phase); only exhausting MaxRounds is an error.
	if hitLimit && res.Unallocated > 0 {
		return res, ErrRoundLimit
	}
	return res, nil
}

// live is the number of unallocated balls.
func (r *agentRun) live() int {
	if r.fresh {
		return int(r.e.p.M)
	}
	return len(r.active)
}

// ballID is the index among the run's balls of the ball at index bi.
func (r *agentRun) ballID(bi int32) int {
	if r.slots {
		return int(r.balls[bi].ID)
	}
	return int(bi)
}

// initBall makes b ball i: its index as ID and its seeded stream.
func (r *agentRun) initBall(b *Ball, i int) {
	*b = Ball{ID: int64(i)}
	b.rand.Seed(rng.Mix64(r.ballSeed + uint64(i)*0x9E3779B97F4A7C15))
}

// storeAll stores every ball up front, ball i at index i, with
// Config.InitState applied on this goroutine in ascending order.
func (r *agentRun) storeAll() {
	m := int(r.e.p.M)
	r.fresh = false
	r.balls = grow(r.balls, m)
	r.active = grow(r.active, m)
	r.ballSent = growZero(r.ballSent, m)
	shard(m, r.scr.forkWorkers(m), r.initFn)
	if init := r.e.cfg.InitState; init != nil {
		for i := range r.balls {
			init(&r.balls[i])
		}
	}
}

// initShard is storeAll's worker body: balls [lo, hi) are initialized and
// join the active set.
func (r *agentRun) initShard(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.initBall(&r.balls[i], i)
		r.active[i] = int32(i)
	}
}

// storeSurvivors ends a fresh round 0 by storing the balls marked to stay,
// in ascending ball order: each worker counts the survivors of its chunk
// of balls, the counts become each chunk's first slot, and each worker
// then replays its survivors into their slots. A replayed ball is seeded
// again and repeats its round-0 Targets call, so it holds the state, and
// ballSent the count, it would hold had it been stored up front.
func (r *agentRun) storeSurvivors() {
	m := int(r.e.p.M)
	w := r.scr.forkWorkers(m)
	k := shard(m, w, r.countFn)
	s := 0
	for wi, c := range r.scr.survivors[:k] {
		r.scr.survivors[wi] = s
		s += c
	}
	r.balls = grow(r.balls, s)
	r.active = grow(r.active, s)
	r.ballSent = grow(r.ballSent, s)
	shard(m, w, r.replayFn)
	r.fresh, r.slots = false, true
}

// countShard counts the balls of [lo, hi) that survived a fresh round 0.
func (r *agentRun) countShard(wi, lo, hi int) {
	c := 0
	for _, stay := range r.stay[lo:hi] {
		if stay {
			c++
		}
	}
	r.scr.survivors[wi] = c
}

// replayShard stores the balls of [lo, hi) that survived a fresh round 0,
// from the chunk's first slot on, and enters them into the active set.
func (r *agentRun) replayShard(wi, lo, hi int) {
	scr := r.scr
	buf := scr.targetBuf[wi]
	j := scr.survivors[wi]
	for i := lo; i < hi; i++ {
		if !r.stay[i] {
			continue
		}
		b := &r.balls[j]
		r.initBall(b, i)
		buf = r.e.proto.Targets(0, b, r.e.p.N, buf[:0])
		r.ballSent[j] = int32(len(buf))
		r.active[j] = int32(j)
		j++
	}
	scr.targetBuf[wi] = buf
}

// freshShard is a fresh round 0's step-1 worker body: balls [lo, hi) are
// built one by one in the worker's own Ball, which is never stored, and
// emit their requests as in gatherShard. A ball that sends several
// requests stops the worker; gatherRequests then stores every ball and
// gathers round 0 again.
func (r *agentRun) freshShard(wi, lo, hi int) {
	scr := r.scr
	b := &scr.balls[wi].Ball
	buf := scr.targetBuf[wi]
	out := grow(scr.reqShards[wi], hi-lo)[:0]
	hist := r.rankHist(wi)
	perBall := 0
	for i := lo; i < hi; i++ {
		r.initBall(b, i)
		buf = r.e.proto.Targets(r.round, b, r.e.p.N, buf[:0])
		if perBall = max(perBall, len(buf)); perBall > 1 {
			break
		}
		r.stay[i] = len(buf) == 0
		out = emit(out, hist, int32(i), buf)
	}
	scr.targetBuf[wi] = buf
	scr.reqShards[wi] = out
	scr.gatherMax[wi] = perBall
	scr.sentMax[wi] = int32(perBall)
}

// gatherShard is the step-1 worker body: balls active[lo:hi] emit their
// requests into the worker's shard buffer, sized for one request per ball,
// and in a round that may commit in place count them by bin into the
// worker's histogram. A silent ball is marked to stay active; a ball that
// sent requests leaves unless step 2 marks it again.
func (r *agentRun) gatherShard(wi, lo, hi int) {
	scr := r.scr
	buf := scr.targetBuf[wi]
	out := grow(scr.reqShards[wi], hi-lo)[:0]
	hist := r.rankHist(wi)
	perBall := 0
	var maxSent int32
	for _, bi := range r.active[lo:hi] {
		b := &r.balls[bi]
		buf = r.e.proto.Targets(r.round, b, r.e.p.N, buf[:0])
		sent := int64(r.ballSent[bi]) + int64(len(buf))
		if sent > math.MaxInt32 {
			panic(fmt.Sprintf("sim: ball %d sent more than %d requests", b.ID, math.MaxInt32))
		}
		r.ballSent[bi] = int32(sent)
		maxSent = max(maxSent, int32(sent))
		r.stay[bi] = len(buf) == 0
		perBall = max(perBall, len(buf))
		out = emit(out, hist, bi, buf)
	}
	scr.targetBuf[wi] = buf
	scr.reqShards[wi] = out
	scr.gatherMax[wi] = perBall
	scr.sentMax[wi] = maxSent
}

// rankHist returns worker wi's histogram, zeroed, in a round that may
// commit in place, and nil in any other.
func (r *agentRun) rankHist(wi int) []int32 {
	if !r.inPlace {
		return nil
	}
	hist := growZero(r.scr.hists[wi], r.e.p.N)
	r.scr.hists[wi] = hist
	return hist
}

// emit appends ball bi's requests to bins to out, counts them in hist
// unless it is nil, and returns the extended out.
func emit(out []request, hist []int32, bi int32, bins []int) []request {
	for _, bin := range bins {
		out = append(out, request{ball: bi, bin: int32(bin)})
		if hist != nil {
			hist[bin]++
		}
	}
	return out
}

// gatherRequests runs step 1 and returns the round's requests as the
// worker shards themselves, in deterministic (worker-shard) order, with
// their total and the maximum number of requests any single ball sent (1
// for degree-1 rounds — the precondition for committing inside step 2).
// It counts the requests, and the most any ball has sent, in metrics. The
// shards are valid until the next call.
func (r *agentRun) gatherRequests(metrics *model.Metrics) (shards [][]request, sent int64, perBall int) {
	scr := r.scr
	live := r.live()
	w := scr.forkWorkers(live)
	fn := r.gatherFn
	if r.fresh {
		fn = r.freshFn
	}
	k := shard(live, w, fn)
	if r.fresh && slices.Max(scr.gatherMax[:k]) > 1 {
		// A ball that sends several requests needs its accepts committed
		// by ball, so the run stores every ball and gathers again; Targets
		// depends only on the ball, so the requests come out identical.
		r.storeAll()
		k = shard(live, w, r.gatherFn)
	}
	shards = scr.reqShards[:k]
	for _, part := range shards {
		sent += int64(len(part))
	}
	metrics.BallRequests += sent
	metrics.TotalMessages += sent
	metrics.MaxBallSent = max(metrics.MaxBallSent, int64(slices.Max(scr.sentMax[:k])))
	return shards, sent, slices.Max(scr.gatherMax[:k])
}

// processShard is the by-bin step-2 worker body: bins [lo, hi) answer
// their requests, grouped by groupByBin. In a single-request round the
// worker commits what they accept itself (only it writes those bins'
// loads, and each ball has one accept); otherwise it writes the accepts
// into the range's window of scr.acc, sized for every request in the
// range.
func (r *agentRun) processShard(wi, lo, hi int) {
	scr := r.scr
	var out []acceptRec
	if !r.single {
		out = scr.acc[r.offsets[lo]:r.offsets[lo]:r.offsets[hi]]
	}
	t := binTally{redirects: scr.tallies[wi].redirects[:0]}
	for bin := lo; bin < hi; bin++ {
		if reqs := r.byBin[r.offsets[bin]:r.offsets[bin+1]]; len(reqs) > 0 {
			out = r.answer(bin, reqs, out, &t)
		}
	}
	scr.tallies[wi] = t
	scr.accWin[wi] = out
}

// answer is bin's part of step 2 for its requests reqs (ball indices in
// arrival order, tie-broken in place): the bin accepts up to its capacity
// at its round-start load. In a single-request round each rejected ball
// is marked to stay active, and each accepted ball commits at once,
// counted in t and in the bin's load; a commit that Place sends to another
// bin waits in t.redirects, so that every Capacity call of the round sees
// its bin's round-start load. Otherwise the accepts are appended to out.
func (r *agentRun) answer(bin int, reqs []int32, out []acceptRec, t *binTally) []acceptRec {
	r.receive(bin, len(reqs))
	capacity := r.e.proto.Capacity(r.round, bin, r.loads[bin])
	k := int64(len(reqs))
	if capacity < k {
		k = max(capacity, 0)
		if k > 0 {
			r.e.applyTieBreak(r.round, bin, reqs)
		}
		if r.single {
			for _, bi := range reqs[k:] {
				r.stay[bi] = true
			}
		}
	}
	if k == 0 {
		return out
	}
	if !r.single {
		for i := int64(0); i < k; i++ {
			out = append(out, acceptRec{
				ball:    reqs[i],
				bin:     int32(bin),
				payload: r.e.proto.Payload(r.round, bin, i),
			})
		}
		return out
	}
	for i := int64(0); i < k; i++ {
		r.commitOne(reqs[i], bin, i, t)
	}
	r.loads[bin] += k
	return out
}

// commitOne commits ball bi, whose one request bin accepted as its i-th
// answer, counted in t. The caller counts the ball in bin's load; a commit
// that Place sends elsewhere is queued in t.redirects.
func (r *agentRun) commitOne(bi int32, bin int, i int64, t *binTally) {
	place := r.e.proto.Place(Accept{From: bin, Payload: r.e.proto.Payload(r.round, bin, i)})
	r.record(bi, place, bin, 1, t)
	if place != bin {
		t.redirects = append(t.redirects, redirect{from: int32(bin), to: int32(place)})
	}
}

// receive counts n more requests answered by bin. The count is an int32,
// as ballSent is, so a bin that would pass math.MaxInt32 requests over a
// run panics rather than wrap.
func (r *agentRun) receive(bin, n int) {
	got := int64(r.binReceived[bin]) + int64(n)
	if got > math.MaxInt32 {
		panic(fmt.Sprintf("sim: bin %d received more than %d requests", bin, math.MaxInt32))
	}
	r.binReceived[bin] = int32(got)
}

// rankShard is the bin pass of a round that commits in place, over bins
// [lo, hi). Each gather shard's count of a bin's requests becomes that
// shard's first rank among them (firstRanks), and each bin that got
// requests answers: it reads its capacity at its round-start load, keeps
// the number it accepts in scr.counts, and takes them into its load at
// once. A request's rank alone then decides its fate (commitShard): the
// bin accepts a prefix of its requests in arrival order, and each ball
// sent only the one.
//
// A bin's requests arrive in ascending ball order, so under
// TieAdversarialHighID a bin that cuts (accepts some but not all) takes
// its last requests, the highest ball indices, and numbers its answers
// from the end: its shards' ranks are shifted to count up to 0 at its last
// request, so the magnitude of a negative rank is the answer index.
func (r *agentRun) rankShard(_, lo, hi int) {
	hists := r.scr.hists[:len(r.parts)]
	accepted := r.scr.counts
	highID := r.e.cfg.TieBreak == TieAdversarialHighID
	for bin := lo; bin < hi; bin++ {
		got := firstRanks(hists, bin)
		if got == 0 {
			continue
		}
		r.receive(bin, int(got))
		k := int32(min(int64(got), max(r.e.proto.Capacity(r.round, bin, r.loads[bin]), 0)))
		accepted[bin] = k
		r.loads[bin] += int64(k)
		if highID && 0 < k && k < got {
			for _, h := range hists {
				h[bin] -= got - 1
			}
		}
	}
}

// firstRanks turns each gather shard's count of bin's requests into that
// shard's first rank among them, in shard order, and returns their total.
func firstRanks(hists [][]int32, bin int) (got int32) {
	for _, h := range hists {
		c := h[bin]
		h[bin] = got
		got += c
	}
	return got
}

// commitShard is the request pass of a round that commits in place: worker
// wi walks gather shard wi in order, each request taking its bin's next
// rank. A request ranked below the number its bin accepts commits, with
// its rank as the answer index; any other marks its ball to stay.
func (r *agentRun) commitShard(wi, _, _ int) {
	scr := r.scr
	ranks := scr.hists[wi]
	accepted := scr.counts
	t := binTally{redirects: scr.tallies[wi].redirects[:0]}
	for _, q := range r.parts[wi] {
		rank := ranks[q.bin]
		ranks[q.bin] = rank + 1
		if rank < 0 { // a TieAdversarialHighID cut, numbered from the end
			rank = -rank
		}
		if rank >= accepted[q.bin] {
			r.stay[q.ball] = true
			continue
		}
		r.commitOne(q.ball, int(q.bin), int64(rank), &t)
	}
	scr.tallies[wi] = t
}

// smallRoundMax bounds the sort-based small-round path: insertion sort is
// quadratic, so only genuinely small request sets qualify.
const smallRoundMax = 256

// processRequests runs step 2 over the round's total requests, given as
// parts in arrival order, and step 3: it returns the number of balls
// allocated this round and counts the commit messages in metrics. Three
// paths answer the same way:
//   - small rounds (the serving/churn regime: a handful of requests into
//     many bins) sort the requests by bin and walk only the touched bins,
//     avoiding the O(n) per-round passes of the other two;
//   - a single-request round gathered for it commits in place: a bin pass
//     ranks each gather shard's requests and answers every bin, and a
//     request pass over the gather shards commits each request at its
//     gather position (rankShard, commitShard);
//   - every other round counting-sorts the requests by bin and answers
//     contiguous bin ranges (groupByBin, processShard).
//
// The last two run across workers from forkMin requests up. A
// single-request round commits inside step 2; in any other round a ball
// may hold several accepts, so the step's windows of scr.acc are joined in
// place and committed by ball on this goroutine. Results are bit-identical
// on every path.
func (r *agentRun) processRequests(parts [][]request, total int, singleReq bool, metrics *model.Metrics) int {
	n := r.e.p.N
	scr := r.scr
	r.single = singleReq
	r.parts = parts
	if !singleReq {
		scr.acc = grow(scr.acc, total)
	}
	w := 1
	switch {
	case total <= smallRoundMax && total*8 < n:
		// A small round spans several gather shards only when most of
		// many active balls stayed silent; join those.
		r.processSmall(flatten(&scr.flush, parts))
	case r.inPlace && singleReq:
		shard(n, scr.forkWorkers(total), r.rankFn)
		w = shard(len(parts), len(parts), r.commitFn)
	default:
		r.byBin, r.offsets = scr.groupByBin(parts, n)
		workers := scr.forkWorkers(total)
		w = chunks(n, workers)
		shard(n, workers, r.processFn)
	}

	var commits int
	var msgs int64
	if singleReq {
		// Step 2 counted each accept in its bin's load; a redirected
		// commit moves on to its target.
		for _, t := range scr.tallies[:w] {
			commits += t.commits
			msgs += t.msgs
			for _, rd := range t.redirects {
				r.loads[rd.from]--
				r.loads[rd.to]++
			}
		}
	} else {
		// The windows ascend through scr.acc, so joining them moves each
		// down behind the one before, in place.
		accepts := scr.acc[:0]
		for _, part := range scr.accWin[:w] {
			accepts = append(accepts, part...)
		}
		sortAcceptsByBall(accepts)
		// A ball with no accept stays, whatever bins rejected it.
		for _, bi := range r.active {
			r.stay[bi] = true
		}
		commits, msgs = r.commitByBall(accepts)
	}
	metrics.CommitMessages += msgs
	metrics.TotalMessages += msgs
	return commits
}

// processSmall is the small-round step 2: requests are stable-sorted by
// destination bin (preserving arrival order within a bin — exactly the
// grouping the counting sort produces) and the touched bins are answered
// inline, O(k log k + k·d) for k requests instead of O(n), as worker 0.
// Sequential by design: rounds this small gain nothing from bin sharding.
func (r *agentRun) processSmall(reqs []request) {
	sortRequestsByBin(reqs)
	scr := r.scr
	out := scr.acc[:0]
	buf := scr.runBuf[:0]
	t := binTally{redirects: scr.tallies[0].redirects[:0]}
	for i := 0; i < len(reqs); {
		bin := int(reqs[i].bin)
		buf = buf[:0]
		for ; i < len(reqs) && int(reqs[i].bin) == bin; i++ {
			buf = append(buf, reqs[i].ball)
		}
		out = r.answer(bin, buf, out, &t)
	}
	scr.runBuf = buf
	scr.tallies[0] = t
	scr.accWin[0] = out
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

// chunks is the number of chunks shard(total, w, ·) dispatches.
func chunks(total, w int) int {
	if total <= 0 {
		return 0
	}
	chunk := (total + w - 1) / w
	return (total + chunk - 1) / chunk
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
		go runChunk(&wg, fn, wi, lo, min(lo+chunk, total))
		wi++
	}
	fn(0, 0, chunk)
	wg.Wait()
	return wi
}

// runChunk is one spawned chunk of shard. A named function keeps each
// spawn to one allocation, its argument block.
func runChunk(wg *sync.WaitGroup, fn func(wi, lo, hi int), wi, lo, hi int) {
	defer wg.Done()
	fn(wi, lo, hi)
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
		// Highest ball IDs first. Ball indices ascend with IDs, and a
		// descending list of them has only one order.
		slices.Sort(reqs)
		slices.Reverse(reqs)
	}
}

// commitBall lets ball bi choose among its accepts (never empty; Choose
// runs only when there are several) and commits it where Place maps the
// chosen one. It returns that bin; the caller adds the ball to the bin's
// load.
func (r *agentRun) commitBall(bi int32, accepts []Accept, t *binTally) int {
	choice := 0
	if len(accepts) > 1 {
		choice = r.e.proto.Choose(r.round, &r.balls[bi], accepts)
		if choice < 0 || choice >= len(accepts) {
			panic(fmt.Sprintf("sim: Choose returned invalid index %d of %d", choice, len(accepts)))
		}
	}
	place := r.e.proto.Place(accepts[choice])
	r.record(bi, place, accepts[choice].From, len(accepts), t)
	return place
}

// record notes the commit of ball bi to bin place, which Place mapped from
// the accept of bin from, one of the ball's n accepts: it records the
// placement and counts the commit in t, with one commit/inform message per
// accepting bin (the chosen bin learns of the placement; others learn of
// the decline), plus one redirect message when place differs from from.
// It reads no ball, so a fresh round 0 commits without one.
func (r *agentRun) record(bi int32, place, from, n int, t *binTally) {
	if r.placements != nil {
		r.placements[r.ballID(bi)] = int32(place)
	}
	t.commits++
	t.msgs += int64(n)
	if place != from {
		t.msgs++
	}
}

// commitByBall is step 3 of a round in which a ball may hold several
// accepts: it commits every ball of accepts, in which each ball's accepts
// are adjacent, on the calling goroutine, after step 2 has read every
// bin's round-start load.
func (r *agentRun) commitByBall(accepts []acceptRec) (commits int, msgs int64) {
	buf := r.scr.accBuf
	var t binTally
	for i := 0; i < len(accepts); {
		bi := accepts[i].ball
		buf = buf[:0]
		for ; i < len(accepts) && accepts[i].ball == bi; i++ {
			buf = append(buf, Accept{From: int(accepts[i].bin), Payload: accepts[i].payload})
		}
		place := r.commitBall(bi, buf, &t)
		r.stay[bi] = false
		r.loads[place]++
	}
	r.scr.accBuf = buf
	return t.commits, t.msgs
}

// sortAcceptsByBall heapsorts a round's accepts, listed bin by bin, by ball
// index. The sort is not stable, and its permutation of a ball's accepts is
// the order Choose sees them in, so results depend on it: every in-repo
// Choose returns 0. ROADMAP.md plans to replace it with the order in which
// the ball sent its requests.
func sortAcceptsByBall(a []acceptRec) {
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

// compactActive keeps the balls marked to stay in the active set,
// preserving order.
func compactActive(active []int32, stay []bool) []int32 {
	out := active[:0]
	for _, bi := range active {
		if stay[bi] {
			out = append(out, bi)
		}
	}
	return out
}
