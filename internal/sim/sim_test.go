package sim

import (
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rng"
)

// uniformProto is a minimal protocol used to exercise the engine: every
// active ball contacts one uniform bin; bins accept up to a per-round
// capacity above their current load.
type uniformProto struct {
	threshold func(round int) int64 // total-load cap per bin in this round
	holdRound func(round int) bool
}

func (p *uniformProto) Targets(round int, b *Ball, n int, buf []int) []int {
	return append(buf, b.Rand().Intn(n))
}

func (p *uniformProto) Hold(round int) bool {
	if p.holdRound == nil {
		return false
	}
	return p.holdRound(round)
}

func (p *uniformProto) Capacity(round int, bin int, load int64) int64 {
	return p.threshold(round) - load
}

func (p *uniformProto) Payload(round int, bin int, k int64) int64 { return 0 }

func (p *uniformProto) Choose(round int, b *Ball, accepts []Accept) int { return 0 }

func (p *uniformProto) Place(a Accept) int { return a.From }

func (p *uniformProto) Done(round int, remaining int64) bool { return false }

func unlimited() *uniformProto {
	return &uniformProto{threshold: func(int) int64 { return math.MaxInt64 }}
}

func TestOneRoundUnlimitedAllocatesAll(t *testing.T) {
	p := model.Problem{M: 10000, N: 100}
	res, err := New(p, unlimited(), Config{Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if res.Metrics.BallRequests != p.M {
		t.Fatalf("requests = %d, want %d", res.Metrics.BallRequests, p.M)
	}
	if res.Metrics.BinReplies != p.M {
		t.Fatalf("replies = %d, want %d", res.Metrics.BinReplies, p.M)
	}
	// Every ball sends exactly one message and commits once.
	if res.Metrics.MaxBallSent != 1 {
		t.Fatalf("MaxBallSent = %d", res.Metrics.MaxBallSent)
	}
	if res.Metrics.CommitMessages != p.M {
		t.Fatalf("commits = %d", res.Metrics.CommitMessages)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The whole Result must be identical at 1, 2 and 4 workers, since ball
	// randomness is derived from ball IDs, not worker shards.
	p := model.Problem{M: 5000, N: 50}
	proto := &uniformProto{threshold: func(int) int64 { return 120 }}
	run := func(workers int) *model.Result {
		res, err := New(p, proto, Config{Seed: 7, Workers: workers, Trace: true, RecordPlacements: true}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	for _, w := range []int{2, 4} {
		rw := run(w)
		if rw.Rounds != r1.Rounds {
			t.Fatalf("workers=%d: rounds %d, want %d", w, rw.Rounds, r1.Rounds)
		}
		if rw.Metrics != r1.Metrics {
			t.Fatalf("workers=%d: metrics %+v, want %+v", w, rw.Metrics, r1.Metrics)
		}
		if !slices.Equal(rw.Loads, r1.Loads) {
			t.Fatalf("workers=%d: loads differ", w)
		}
		if !slices.Equal(rw.Placements, r1.Placements) {
			t.Fatalf("workers=%d: placements differ", w)
		}
		if !slices.Equal(rw.TraceRemaining, r1.TraceRemaining) {
			t.Fatalf("workers=%d: trace %v, want %v", w, rw.TraceRemaining, r1.TraceRemaining)
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	p := model.Problem{M: 2000, N: 20}
	proto := &uniformProto{threshold: func(int) int64 { return 150 }}
	a, _ := New(p, proto, Config{Seed: 42}).Run()
	b, _ := New(p, proto, Config{Seed: 42}).Run()
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatal("same seed produced different loads")
		}
	}
	c, _ := New(p, proto, Config{Seed: 43}).Run()
	diff := false
	for i := range a.Loads {
		if a.Loads[i] != c.Loads[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical loads (suspicious)")
	}
}

func TestThresholdRespected(t *testing.T) {
	// With a hard per-bin cap of T, no bin may ever exceed T.
	p := model.Problem{M: 3000, N: 30}
	const T = 110 // 30*110 = 3300 >= 3000, so termination is possible
	proto := &uniformProto{threshold: func(int) int64 { return T }}
	res, err := New(p, proto, Config{Seed: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Loads {
		if l > T {
			t.Fatalf("bin %d load %d exceeds threshold %d", i, l, T)
		}
	}
	if res.Rounds < 2 {
		t.Fatalf("expected multiple rounds with tight threshold, got %d", res.Rounds)
	}
}

func TestRoundLimitError(t *testing.T) {
	p := model.Problem{M: 100, N: 10}
	proto := &uniformProto{threshold: func(int) int64 { return 0 }} // never accept
	res, err := New(p, proto, Config{Seed: 1, MaxRounds: 5}).Run()
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res == nil || res.TotalAllocated() != 0 {
		t.Fatal("partial result wrong")
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestTraceRemaining(t *testing.T) {
	p := model.Problem{M: 1000, N: 10}
	proto := &uniformProto{threshold: func(round int) int64 { return int64(50 * (round + 1)) }}
	res, err := New(p, proto, Config{Seed: 5, Trace: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceRemaining) != res.Rounds {
		t.Fatalf("trace length %d, rounds %d", len(res.TraceRemaining), res.Rounds)
	}
	if res.TraceRemaining[0] != p.M {
		t.Fatalf("trace[0] = %d", res.TraceRemaining[0])
	}
	for i := 1; i < len(res.TraceRemaining); i++ {
		if res.TraceRemaining[i] > res.TraceRemaining[i-1] {
			t.Fatal("remaining balls increased between rounds")
		}
	}
}

func TestHoldCollectsRequests(t *testing.T) {
	// Hold rounds 0 and 1; flush in round 2. All 300 balls should be
	// allocated in the flush round even though per-flush capacity applies,
	// because three rounds' worth of requests arrive together.
	p := model.Problem{M: 300, N: 3}
	proto := &uniformProto{
		threshold: func(int) int64 { return math.MaxInt64 },
		holdRound: func(r int) bool { return r < 2 },
	}
	res, err := New(p, proto, Config{Seed: 9}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (2 holds + 1 flush)", res.Rounds)
	}
	// Each ball sent one request per round over 3 rounds.
	if res.Metrics.BallRequests != 3*p.M {
		t.Fatalf("requests = %d, want %d", res.Metrics.BallRequests, 3*p.M)
	}
}

func TestTieBreakRandomVsFirstConserve(t *testing.T) {
	p := model.Problem{M: 2000, N: 10}
	for _, tb := range []TieBreak{TieFirst, TieRandom, TieAdversarialHighID} {
		proto := &uniformProto{threshold: func(int) int64 { return 250 }}
		res, err := New(p, proto, Config{Seed: 11, TieBreak: tb}).Run()
		if err != nil {
			t.Fatalf("tiebreak %d: %v", tb, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("tiebreak %d: %v", tb, err)
		}
	}
}

func TestInitState(t *testing.T) {
	p := model.Problem{M: 100, N: 10}
	proto := unlimited()
	var initCalls int
	cfg := Config{Seed: 1, InitState: func(b *Ball) {
		b.State = b.ID * 2
		initCalls++
	}}
	_, err := New(p, proto, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if initCalls != 100 {
		t.Fatalf("InitState called %d times", initCalls)
	}
}

// multiProto lets balls contact d bins per round; used to exercise Choose
// with multiple accepts and the commit bookkeeping.
type multiProto struct {
	d int
}

func (p *multiProto) Targets(round int, b *Ball, n int, buf []int) []int {
	for i := 0; i < p.d; i++ {
		buf = append(buf, b.Rand().Intn(n))
	}
	return buf
}
func (p *multiProto) Hold(int) bool                        { return false }
func (p *multiProto) Capacity(_ int, _ int, _ int64) int64 { return math.MaxInt64 }
func (p *multiProto) Payload(int, int, int64) int64        { return 0 }
func (p *multiProto) Choose(_ int, b *Ball, accepts []Accept) int {
	// Pick the lowest bin index for determinism of the test.
	best := 0
	for i, a := range accepts {
		if a.From < accepts[best].From {
			best = i
		}
	}
	return best
}
func (p *multiProto) Place(a Accept) int       { return a.From }
func (p *multiProto) Done(_ int, _ int64) bool { return false }

func TestMultiTargetCommit(t *testing.T) {
	p := model.Problem{M: 1000, N: 50}
	res, err := New(p, &multiProto{d: 3}, Config{Seed: 13}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// d requests per ball.
	if res.Metrics.BallRequests != 3*p.M {
		t.Fatalf("requests = %d", res.Metrics.BallRequests)
	}
	// Each ball receives up to 3 accepts and sends one inform per accept.
	if res.Metrics.CommitMessages < p.M || res.Metrics.CommitMessages > 3*p.M {
		t.Fatalf("commits = %d", res.Metrics.CommitMessages)
	}
}

// payloadProto verifies payload routing and redirected placement.
type payloadProto struct{ n int }

func (p *payloadProto) Targets(round int, b *Ball, n int, buf []int) []int {
	return append(buf, n-1) // everyone contacts the last bin
}
func (p *payloadProto) Hold(int) bool                         { return false }
func (p *payloadProto) Capacity(_ int, _ int, _ int64) int64  { return math.MaxInt64 }
func (p *payloadProto) Payload(_ int, _ int, k int64) int64   { return k % int64(p.n) }
func (p *payloadProto) Choose(_ int, _ *Ball, _ []Accept) int { return 0 }
func (p *payloadProto) Place(a Accept) int                    { return a.From - int(a.Payload) }
func (p *payloadProto) Done(_ int, _ int64) bool              { return false }

func TestPayloadRedirection(t *testing.T) {
	// All balls contact bin n-1, which spreads them round-robin over all
	// bins via payload offsets — a miniature of the asymmetric algorithm.
	p := model.Problem{M: 100, N: 10}
	res, err := New(p, &payloadProto{n: 10}, Config{Seed: 17}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Loads {
		if l != 10 {
			t.Fatalf("bin %d load %d, want 10 (perfect round-robin)", i, l)
		}
	}
	// Redirected placements cost one extra message each except offset 0.
	if res.Metrics.CommitMessages != 100+90 {
		t.Fatalf("commit messages = %d, want 190", res.Metrics.CommitMessages)
	}
}

func TestGroupByBin(t *testing.T) {
	reqs := []request{{ball: 0, bin: 2}, {ball: 1, bin: 0}, {ball: 2, bin: 2}, {ball: 3, bin: 1}}
	byBin, offsets := newScratch(1, 3).groupByBin([][]request{reqs}, 3)
	if offsets[0] != 0 || offsets[1] != 1 || offsets[2] != 2 || offsets[3] != 4 {
		t.Fatalf("offsets = %v", offsets)
	}
	if byBin[0] != 1 {
		t.Fatalf("bin 0 requests = %v", byBin[0:1])
	}
	if byBin[1] != 3 {
		t.Fatalf("bin 1 requests = %v", byBin[1:2])
	}
	got := []int32{byBin[2], byBin[3]}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if got[0] != 0 || got[1] != 2 {
		t.Fatalf("bin 2 requests = %v", got)
	}
}

func TestGroupByBinProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, mRaw uint16, nRaw uint8) bool {
		r := rng.New(seed)
		m := int(mRaw%500) + 1
		n := int(nRaw%20) + 1
		reqs := make([]request, m)
		for i := range reqs {
			reqs[i] = request{ball: int32(i), bin: int32(r.Intn(n))}
		}
		byBin, offsets := newScratch(1, n).groupByBin([][]request{reqs}, n)
		if len(byBin) != m || int(offsets[n]) != m {
			return false
		}
		// Every request appears exactly once in its bin's range.
		seen := make([]bool, m)
		for b := 0; b < n; b++ {
			for _, ball := range byBin[offsets[b]:offsets[b+1]] {
				if seen[ball] {
					return false
				}
				seen[ball] = true
				if int(reqs[ball].bin) != b {
					return false
				}
			}
		}
		// The same requests split into 1-4 parts at random cuts (empty
		// parts included), as the gather shards hand them over, group
		// exactly as one part does.
		cuts := []int{0, m}
		for k := r.Intn(4); k > 0; k-- {
			cuts = append(cuts, r.Intn(m+1))
		}
		slices.Sort(cuts)
		var parts [][]request
		for i := 1; i < len(cuts); i++ {
			parts = append(parts, reqs[cuts[i-1]:cuts[i]])
		}
		splitByBin, splitOffsets := newScratch(1, n).groupByBin(parts, n)
		if !slices.Equal(splitByBin, byBin) || !slices.Equal(splitOffsets, offsets) {
			return false
		}
		// The parts split into 1-4 groups of contiguous parts, each counted
		// into its own histogram, as the gather shards are in a round that
		// commits in place: walking each group in order from its first
		// ranks (firstRanks) gives each request its position in its bin's
		// group of the one-part output.
		h := min(r.Intn(4)+1, len(parts))
		bounds := []int{0, len(parts)}
		for k := h - 1; k > 0; k-- {
			bounds = append(bounds, r.Intn(len(parts)+1))
		}
		slices.Sort(bounds)
		groups := make([][][]request, h)
		hists := make([][]int32, h)
		for g := range groups {
			groups[g] = parts[bounds[g]:bounds[g+1]]
			hists[g] = make([]int32, n)
			for _, part := range groups[g] {
				for _, q := range part {
					hists[g][q.bin]++
				}
			}
		}
		for b := 0; b < n; b++ {
			if got := firstRanks(hists, b); got != offsets[b+1]-offsets[b] {
				return false
			}
		}
		for g, group := range groups {
			for _, part := range group {
				for _, q := range part {
					rank := hists[g][q.bin]
					hists[g][q.bin]++
					if byBin[offsets[q.bin]+rank] != q.ball {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortAcceptsByBall(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw % 100)
		a := make([]acceptRec, n)
		for i := range a {
			a[i] = acceptRec{ball: int32(r.Intn(20)), bin: int32(i), payload: int64(i)}
		}
		sortAcceptsByBall(a)
		for i := 1; i < len(a); i++ {
			if a[i].ball < a[i-1].ball {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnInvalidProblem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 bins did not panic")
		}
	}()
	New(model.Problem{M: 1, N: 0}, unlimited(), Config{})
}

func TestSingleBinSingleBall(t *testing.T) {
	res, err := New(model.Problem{M: 1, N: 1}, unlimited(), Config{Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads[0] != 1 || res.Rounds != 1 {
		t.Fatalf("loads=%v rounds=%d", res.Loads, res.Rounds)
	}
}

func TestZeroBalls(t *testing.T) {
	res, err := New(model.Problem{M: 0, N: 5}, unlimited(), Config{Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.TotalAllocated() != 0 {
		t.Fatalf("zero-ball run: rounds=%d total=%d", res.Rounds, res.TotalAllocated())
	}
}

func TestBinReceivedAccounting(t *testing.T) {
	// With one bin, it must receive exactly m requests.
	p := model.Problem{M: 500, N: 1}
	res, err := New(p, unlimited(), Config{Seed: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxBinReceived != 500 {
		t.Fatalf("MaxBinReceived = %d", res.Metrics.MaxBinReceived)
	}
}

// primedProto sends every ball to bin 0, which accepts them all, and sets
// bin 0's request counter in its arena to count at the start of round 0,
// so that a run reaches the counter's limit in a few requests.
type primedProto struct {
	arena *Arena
	count int32
}

func (p primedProto) RoundStart(round int, _ []int64, _ int64) {
	if round == 0 {
		p.arena.run.binReceived[0] = p.count
	}
}
func (p primedProto) Targets(_ int, _ *Ball, _ int, buf []int) []int { return append(buf, 0) }
func (p primedProto) Hold(int) bool                                  { return false }
func (p primedProto) Capacity(int, int, int64) int64                 { return math.MaxInt64 }
func (p primedProto) Payload(int, int, int64) int64                  { return 0 }
func (p primedProto) Choose(int, *Ball, []Accept) int                { return 0 }
func (p primedProto) Place(a Accept) int                             { return a.From }
func (p primedProto) Done(int, int64) bool                           { return false }

// TestBinReceivedOverflowGuard: a bin's request counter is an int32, so
// the engine must panic before a bin's count over the run passes
// math.MaxInt32, on each step-2 path that counts: a round that commits in
// place, the by-bin counting sort (TieRandom) and a small round. A count
// that ends exactly at math.MaxInt32 is reported, not refused.
func TestBinReceivedOverflowGuard(t *testing.T) {
	for _, c := range []struct {
		name string
		p    model.Problem
		tie  TieBreak
	}{
		{"in-place", model.Problem{M: 2 * forkMin, N: 1}, TieFirst},
		{"by-bin", model.Problem{M: 2 * forkMin, N: 1}, TieRandom},
		{"small", model.Problem{M: 10, N: 1000}, TieFirst},
	} {
		run := func(count int32) (res *model.Result, msg any) {
			defer func() { msg = recover() }()
			a := new(Arena)
			res, err := New(c.p, primedProto{a, count}, Config{Seed: 1, Workers: 1, TieBreak: c.tie, Arena: a}).Run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res, nil
		}
		full := int32(math.MaxInt32 - c.p.M)
		if res, msg := run(full); msg != nil {
			t.Errorf("%s: a count ending at MaxInt32 panicked: %v", c.name, msg)
		} else if res.Metrics.MaxBinReceived != math.MaxInt32 {
			t.Errorf("%s: MaxBinReceived = %d, want %d", c.name, res.Metrics.MaxBinReceived, math.MaxInt32)
		}
		_, msg := run(full + 1)
		if s, _ := msg.(string); !strings.Contains(s, "bin 0 received more than") {
			t.Errorf("%s: a count past MaxInt32 gave panic %v", c.name, msg)
		}
	}
}

func TestOneShotLoadDistribution(t *testing.T) {
	// Sanity: one-shot random allocation's max load should be near
	// m/n + sqrt(2 (m/n) ln n) and never below the average.
	p := model.Problem{M: 100000, N: 100}
	res, err := New(p, unlimited(), Config{Seed: 21}).Run()
	if err != nil {
		t.Fatal(err)
	}
	avg := p.AvgLoad()
	predicted := avg + model.TheoreticalOneShotExcess(p)
	max := float64(res.MaxLoad())
	if max < avg {
		t.Fatalf("max load %g below average %g", max, avg)
	}
	if max > predicted*1.5 {
		t.Fatalf("max load %g far above predicted %g", max, predicted)
	}
}

// TestBallStateIsProtocolOwned guards Ball.State's contract: a protocol
// may store any value there, -1 included, and the engine must still place
// every ball. A sentinel of the engine's own in State would drop balls
// from the active set unplaced while the run reported success.
func TestBallStateIsProtocolOwned(t *testing.T) {
	p := model.Problem{M: 100, N: 10}
	proto := &uniformProto{threshold: func(round int) int64 { return int64(5 * (round + 1)) }}
	res, err := New(p, proto, Config{Seed: 1, InitState: func(b *Ball) { b.State = -1 }}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unallocated != 0 {
		t.Fatalf("%d balls unallocated", res.Unallocated)
	}
	if got := res.TotalAllocated(); got != p.M {
		t.Fatalf("loads sum to %d, want %d", got, p.M)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}
