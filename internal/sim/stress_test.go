package sim

// Randomized stress tests: the engine must preserve its invariants for
// arbitrary (well-formed) protocols, capacities, degrees, and hold
// patterns. Protocols here are generated from quick-check seeds.

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rng"
)

// fuzzProto is a randomized but well-formed protocol: per-round degree in
// [1,3], per-round-per-bin capacities drawn from a seeded table, optional
// hold pattern, optionally mostly-silent balls, uniform targets, and
// optionally placements redirected away from the accepting bin.
type fuzzProto struct {
	seed    uint64
	degree  int
	holdMod int // hold rounds where round%holdMod != holdMod-1 (0 = never hold)
	capBase int64
	quiet   int // a ball speaks only in rounds where (ID+round)%quiet == 0 (0 = always)
	// redirect, if positive, is the bin count n: Place stores the ball
	// Payload bins past the accepting one, mod n, so six of every seven
	// accepts of a bin land in a later bin, whose Capacity must still see
	// its round-start load.
	redirect int
}

func (f *fuzzProto) Targets(round int, b *Ball, n int, buf []int) []int {
	if f.quiet > 1 && (b.ID+int64(round))%int64(f.quiet) != 0 {
		return buf
	}
	for i := 0; i < f.degree; i++ {
		buf = append(buf, b.Rand().Intn(n))
	}
	return buf
}

func (f *fuzzProto) Hold(round int) bool {
	if f.holdMod <= 1 {
		return false
	}
	return round%f.holdMod != f.holdMod-1
}

func (f *fuzzProto) Capacity(round int, bin int, load int64) int64 {
	// Deterministic pseudo-random per (round, bin) capacity in
	// [capBase, 2*capBase), as a *load cap* so termination is guaranteed
	// once caps exceed m/n.
	h := rng.Mix64(f.seed ^ uint64(round)*0x9E3779B97F4A7C15 ^ uint64(bin)*0xC2B2AE3D27D4EB4F)
	cap := f.capBase + int64(h%uint64(f.capBase))
	return cap - load
}

func (f *fuzzProto) Payload(round int, bin int, k int64) int64 { return k % 7 }

func (f *fuzzProto) Choose(_ int, b *Ball, accepts []Accept) int {
	return int(b.Rand().Intn(len(accepts)))
}

func (f *fuzzProto) Place(a Accept) int {
	if f.redirect > 0 {
		return (a.From + int(a.Payload)) % f.redirect
	}
	return a.From
}

func (f *fuzzProto) Done(int, int64) bool { return false }

// choosyProto is a fuzzProto whose Choose fails the test when the engine
// asks it to choose from fewer than two accepts.
type choosyProto struct {
	*fuzzProto
	t testing.TB
}

func (p choosyProto) Choose(round int, b *Ball, accepts []Accept) int {
	if len(accepts) < 2 {
		p.t.Errorf("round %d: Choose called for ball %d with %d accept(s)", round, b.ID, len(accepts))
	}
	return p.fuzzProto.Choose(round, b, accepts)
}

func TestEngineInvariantsUnderRandomProtocols(t *testing.T) {
	err := quick.Check(func(seed uint64, mRaw uint16, nRaw uint8, degRaw, holdRaw uint8) bool {
		n := int(nRaw%50) + 2
		m := int64(mRaw%5000) + 1
		proto := &fuzzProto{
			seed:    seed,
			degree:  int(degRaw%3) + 1,
			holdMod: int(holdRaw % 4), // 0,1 = never hold; 2,3 = collecting
			capBase: m/int64(n) + 2,   // total capacity >= m + 2n
		}
		res, err := New(model.Problem{M: m, N: n}, proto, Config{
			Seed:      seed,
			MaxRounds: 5000,
		}).Run()
		if err != nil {
			return false
		}
		if res.Check() != nil {
			return false
		}
		// Caps respected: load <= 2*capBase at every bin.
		for _, l := range res.Loads {
			if l > 2*proto.capBase {
				return false
			}
		}
		// Metrics sanity.
		if res.Metrics.BallRequests < m || res.Metrics.BinReplies > res.Metrics.BallRequests {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzAgentEngine compares the engine with the serial reference engine
// (reference_test.go) on fuzzProto, at 1, 2 and 4 workers, over instances
// that straddle forkMin, so rounds fork or run inline, commit each request
// at its gather position or go through the by-bin counting sort, read one
// or several gather shards, commit inside step 2 or through the by-ball
// sort, redirect placements, and flush held requests. Runs of at least forkMin balls throw round 0
// before they store a ball, unless round 0 holds or a ball sends several
// requests; each input therefore also runs with a no-op InitState, which
// stores every ball up front. Every run must pass Check and equal the
// reference in every Result field, and Choose must never be asked to
// choose from a single accept. A large quiet leaves most of many active
// balls silent: rounds too small for the counting sort then span several
// gather shards.
func FuzzAgentEngine(f *testing.F) {
	// seed, m-1, n-1, degree-1, holdMod, tie-break, quiet, redirect
	f.Add(uint64(1), uint16(forkMin), uint16(63), uint8(1), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint64(6), uint16(forkMin+100), uint16(15), uint8(0), uint8(0), uint8(2), uint8(0), false)
	f.Add(uint64(2), uint16(forkMin+3), uint16(31), uint8(0), uint8(3), uint8(1), uint8(0), false)
	f.Add(uint64(3), uint16(forkMin+40), uint16(127), uint8(2), uint8(2), uint8(2), uint8(0), false)
	f.Add(uint64(4), uint16(2*forkMin), uint16(4095), uint8(0), uint8(0), uint8(0), uint8(64), false)
	f.Add(uint64(5), uint16(300), uint16(4095), uint8(1), uint8(3), uint8(1), uint8(0), false)
	// Redirected placements above forkMin: degree 1 commits inside step 2
	// and queues the redirects; degree 2 commits by ball after it.
	f.Add(uint64(7), uint16(2*forkMin), uint16(255), uint8(0), uint8(0), uint8(0), uint8(0), true)
	f.Add(uint64(8), uint16(forkMin+500), uint16(63), uint8(0), uint8(0), uint8(1), uint8(0), true)
	f.Add(uint64(9), uint16(2*forkMin), uint16(127), uint8(1), uint8(0), uint8(2), uint8(0), true)
	// Above forkMin without a hold: round 0 without stored balls, with
	// balls silent in round 0 under each tie-break, and with redirects;
	// degree 3 falls back to storing every ball.
	f.Add(uint64(10), uint16(forkMin+7), uint16(31), uint8(0), uint8(0), uint8(0), uint8(3), false)
	f.Add(uint64(11), uint16(2*forkMin+9), uint16(63), uint8(0), uint8(0), uint8(1), uint8(2), false)
	f.Add(uint64(12), uint16(3*forkMin-2), uint16(127), uint8(0), uint8(0), uint8(2), uint8(5), false)
	f.Add(uint64(13), uint16(2*forkMin), uint16(511), uint8(0), uint8(0), uint8(2), uint8(4), true)
	f.Add(uint64(14), uint16(forkMin+11), uint16(255), uint8(2), uint8(0), uint8(1), uint8(0), false)
	// Rounds that commit in place in which 23-82 bins get more requests
	// than their capacity, under TieFirst and TieAdversarialHighID, plain
	// and with silent balls and redirects.
	f.Add(uint64(15), uint16(3*forkMin-2), uint16(1023), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint64(16), uint16(3*forkMin-2), uint16(1023), uint8(0), uint8(0), uint8(2), uint8(0), false)
	f.Add(uint64(17), uint16(3*forkMin-2), uint16(511), uint8(0), uint8(0), uint8(0), uint8(2), true)
	f.Add(uint64(18), uint16(3*forkMin-2), uint16(511), uint8(0), uint8(0), uint8(2), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, nRaw uint16, degRaw, holdRaw, tieRaw, quietRaw uint8, redirect bool) {
		m := int64(mRaw)%(3*forkMin) + 1
		n := int(nRaw)%4096 + 1
		proto := &fuzzProto{
			seed:    seed,
			degree:  int(degRaw%3) + 1,
			holdMod: int(holdRaw % 4), // 0,1 = never hold; 2,3 = collecting
			capBase: m/int64(n) + 2,   // total capacity >= m + 2n
			quiet:   int(quietRaw % 65),
		}
		if redirect {
			proto.redirect = n
		}
		p := model.Problem{M: m, N: n}
		cfg := Config{
			Seed:             seed,
			MaxRounds:        5000,
			TieBreak:         TieBreak(tieRaw % 3),
			RecordPlacements: true,
			Trace:            true,
		}
		want, err := Reference(p, choosyProto{proto, t}, cfg)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, w := range []int{1, 2, 4} {
			for _, init := range []func(*Ball){nil, func(*Ball) {}} {
				cfg.Workers, cfg.InitState = w, init
				res, err := New(p, choosyProto{proto, t}, cfg).Run()
				label := fmt.Sprintf("workers=%d up-front=%v", w, init != nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := res.Check(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameResult(t, label, res, want)
			}
		}
	})
}

func TestEngineTieBreaksUnderRandomProtocols(t *testing.T) {
	for _, tb := range []TieBreak{TieFirst, TieRandom, TieAdversarialHighID} {
		proto := &fuzzProto{seed: 42, degree: 2, holdMod: 2, capBase: 12}
		res, err := New(model.Problem{M: 1000, N: 100}, proto, Config{
			Seed: 7, TieBreak: tb, MaxRounds: 5000,
		}).Run()
		if err != nil {
			t.Fatalf("tiebreak %d: %v", tb, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("tiebreak %d: %v", tb, err)
		}
	}
}

// observedProto is a fuzzProto that records what RoundStart sees: the
// round, the unallocated balls and the balls placed so far.
type observedProto struct {
	*fuzzProto
	rounds            []int
	remaining, placed []int64
}

func (o *observedProto) RoundStart(round int, loads []int64, remaining int64) {
	var sum int64
	for _, l := range loads {
		sum += l
	}
	o.rounds = append(o.rounds, round)
	o.remaining = append(o.remaining, remaining)
	o.placed = append(o.placed, sum)
}

// traceCommits returns the balls each round of res committed: the drop
// from one TraceRemaining entry to the next, and from the last to
// Unallocated.
func traceCommits(res *model.Result) []int64 {
	tr := append(slices.Clone(res.TraceRemaining), res.Unallocated)
	out := make([]int64, len(tr)-1)
	for i := range out {
		out[i] = tr[i] - tr[i+1]
	}
	return out
}

// TestEngineObserverConsistency checks the per-round record against the
// RoundObserver hook and the result: one trace entry per executed round,
// equal to the unallocated balls RoundStart sees, while the loads it sees
// hold the balls placed so far; no round commits a negative number of
// balls, and the rounds' commits sum to the allocation.
func TestEngineObserverConsistency(t *testing.T) {
	proto := &observedProto{fuzzProto: &fuzzProto{seed: 9, degree: 1, holdMod: 3, capBase: 30}}
	p := model.Problem{M: 2000, N: 100}
	res, err := New(p, proto, Config{Seed: 3, MaxRounds: 5000, Trace: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceRemaining) != res.Rounds || len(proto.rounds) != res.Rounds {
		t.Fatalf("%d trace entries and %d RoundStart calls for %d rounds", len(res.TraceRemaining), len(proto.rounds), res.Rounds)
	}
	if res.TraceRemaining[0] != p.M {
		t.Fatalf("trace starts at %d, want %d", res.TraceRemaining[0], p.M)
	}
	var allocated int64
	for i, c := range traceCommits(res) {
		if proto.rounds[i] != i || proto.remaining[i] != res.TraceRemaining[i] || proto.placed[i] != allocated {
			t.Fatalf("RoundStart %d saw round %d, %d remaining, %d placed; trace says %d remaining, %d placed",
				i, proto.rounds[i], proto.remaining[i], proto.placed[i], res.TraceRemaining[i], allocated)
		}
		if c < 0 {
			t.Fatalf("round %d committed %d balls", i, c)
		}
		allocated += c
	}
	if allocated != res.TotalAllocated() {
		t.Fatalf("rounds committed %d balls, result allocated %d", allocated, res.TotalAllocated())
	}
}

func TestEngineLargeDegreeSmallBins(t *testing.T) {
	// Degree larger than the bin count: duplicate targets per ball are
	// legal and must not double-place a ball.
	proto := &fuzzProto{seed: 5, degree: 3, holdMod: 0, capBase: 600}
	res, err := New(model.Problem{M: 1000, N: 2}, proto, Config{Seed: 1, MaxRounds: 1000}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}

// churnProto is an adaptive uniform-threshold protocol over *residual*
// load: bin capacities are a total-load cap minus the pre-existing (base)
// load carried over from earlier epochs — the per-epoch shape the
// internal/online layer runs, here exercised directly at engine level.
type churnProto struct {
	base []int64
	cap  int64
}

func (c *churnProto) Targets(_ int, b *Ball, n int, buf []int) []int {
	return append(buf, b.Rand().Intn(n))
}
func (c *churnProto) Hold(int) bool { return false }
func (c *churnProto) Capacity(_ int, bin int, load int64) int64 {
	return c.cap - c.base[bin] - load
}
func (c *churnProto) Payload(int, int, int64) int64   { return 0 }
func (c *churnProto) Choose(int, *Ball, []Accept) int { return 0 }
func (c *churnProto) Place(a Accept) int              { return a.From }
func (c *churnProto) Done(int, int64) bool            { return false }

// TestEngineChurnAdversarialTieBreak stresses the engine across epochs of
// arrivals and departures under the adversarial tie-breaking rule:
// every epoch allocates a fresh batch on top of residual loads (with bins
// preferring the highest ball IDs), then departures drain random bins.
// Conservation counters assert that no ball is ever lost or
// double-committed — per epoch via the placement histogram, and globally
// via arrived == departed + live at every step.
func TestEngineChurnAdversarialTieBreak(t *testing.T) {
	const (
		n      = 64
		epochs = 12
	)
	base := make([]int64, n)
	r := rng.New(rng.Mix64(0xC0FFEE))
	var arrived, departed, live int64

	for e := 0; e < epochs; e++ {
		m := int64(400 + 150*(e%3))
		arrived += m
		var baseTotal int64
		for _, l := range base {
			baseTotal += l
		}
		proto := &churnProto{base: base, cap: (baseTotal+m)/n + 2}
		res, err := New(model.Problem{M: m, N: n}, proto, Config{
			Seed:             rng.Mix64(uint64(e) * 0x9E3779B97F4A7C15),
			Workers:          1 + e%5,
			TieBreak:         TieAdversarialHighID,
			RecordPlacements: true,
			MaxRounds:        5000,
		}).Run()
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		// Check() verifies the conservation counters: loads sum to m and
		// the placement histogram matches the load vector exactly (no ball
		// lost, none double-committed).
		if err := res.Check(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		for _, b := range res.Placements {
			base[b]++
		}
		live += m

		// Departures: drain ~20% of the live balls from random bins.
		drain := live / 5
		for j := int64(0); j < drain; j++ {
			b := r.Intn(n)
			for base[b] == 0 {
				b = (b + 1) % n
			}
			base[b]--
		}
		departed += drain
		live -= drain

		var sum int64
		for i, l := range base {
			if l < 0 {
				t.Fatalf("epoch %d: bin %d negative load %d", e, i, l)
			}
			sum += l
		}
		if sum != live || live != arrived-departed {
			t.Fatalf("epoch %d: conservation broken: loads %d, live %d, arrived %d, departed %d",
				e, sum, live, arrived, departed)
		}
	}
}

// TestArenaChurnMatchesReference runs a churn sequence of engine runs over
// one reused Arena (Config.Arena), the online layer's regime, and compares
// every epoch with the reference engine. The bin count changes from epoch
// to epoch, the ball count alternates below and above forkMin, capacities are
// residual like churnProto's over the loads earlier epochs left, and the
// tie-break, placement recording and tracing rotate. Every fourth epoch
// runs a fuzzProto with held requests, two requests per ball and
// redirects over the same arena.
func TestArenaChurnMatchesReference(t *testing.T) {
	for _, w := range []int{1, 4} {
		a := &Arena{}
		r := rng.New(rng.Mix64(0xA7E4A + uint64(w)))
		for e := range 16 {
			n := []int{64, 7, 1024, 300}[e%4]
			m := int64(r.Intn(forkMin)) + 1
			if e%2 == 1 {
				m += forkMin + int64(r.Intn(forkMin))
			}
			base := make([]int64, n)
			var baseTotal int64
			for i := range base {
				base[i] = int64(r.Intn(int(m)/n + 3))
				baseTotal += base[i]
			}
			var proto Protocol = &churnProto{base: base, cap: (baseTotal+m)/int64(n) + 2}
			if e%4 == 3 {
				proto = &fuzzProto{seed: uint64(e), degree: 2, holdMod: 3, capBase: m/int64(n) + 2, redirect: n}
			}
			p := model.Problem{M: m, N: n}
			cfg := Config{
				Seed:             rng.Mix64(uint64(e)),
				Workers:          w,
				MaxRounds:        5000,
				TieBreak:         TieBreak(e % 3),
				RecordPlacements: e%3 != 2,
				Trace:            e%5 != 4,
			}
			want, err := Reference(p, proto, cfg)
			if err != nil {
				t.Fatalf("workers=%d epoch %d: reference: %v", w, e, err)
			}
			cfg.Arena = a
			got, err := New(p, proto, cfg).Run()
			if err != nil {
				t.Fatalf("workers=%d epoch %d: %v", w, e, err)
			}
			sameResult(t, fmt.Sprintf("workers=%d epoch %d (m=%d, n=%d)", w, e, m, n), got, want)
		}
	}
}

func TestEngineManyWorkersFewBalls(t *testing.T) {
	// More workers than balls: shard boundaries must not panic or lose
	// balls.
	proto := &fuzzProto{seed: 5, degree: 1, holdMod: 0, capBase: 10}
	res, err := New(model.Problem{M: 3, N: 2}, proto, Config{Seed: 1, Workers: 16, MaxRounds: 100}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}
