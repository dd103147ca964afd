package asym

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func TestPlanTerminates(t *testing.T) {
	for _, tc := range []struct {
		m int64
		n int
	}{
		{1000, 1000}, {10000, 1000}, {100000, 1000},
		{1000000, 1000}, {50, 1000}, {1, 2}, {1000000, 10},
		{1 << 40, 1 << 10},
	} {
		plans := Plan(tc.m, tc.n)
		if len(plans) == 0 {
			t.Fatalf("m=%d n=%d: empty plan", tc.m, tc.n)
		}
		if !plans[len(plans)-1].Terminal {
			t.Fatalf("m=%d n=%d: plan does not end terminally", tc.m, tc.n)
		}
		for i, rp := range plans {
			if rp.Blocks < 1 || rp.Blocks > tc.n {
				t.Fatalf("m=%d n=%d: blocks %d out of range", tc.m, tc.n, rp.Blocks)
			}
			if rp.L < 1 {
				t.Fatalf("m=%d n=%d: non-positive L %d", tc.m, tc.n, rp.L)
			}
			if rp.Terminal && i != len(plans)-1 {
				t.Fatalf("m=%d n=%d: terminal round not last", tc.m, tc.n)
			}
		}
	}
}

func TestPlanConstantRounds(t *testing.T) {
	// The schedule must stay short (constant-ish) across the entire ratio
	// range — this is the heart of Theorem 3.
	for _, n := range []int{100, 10000, 1000000} {
		for _, ratio := range []int64{1, 4, 64, 1024, 1 << 20} {
			m := int64(n) * ratio
			plans := Plan(m, n)
			if len(plans) > 6 {
				t.Fatalf("n=%d ratio=%d: %d planned rounds (want <= 6)", n, ratio, len(plans))
			}
		}
	}
}

func TestPlanExpectedLoadPerLeader(t *testing.T) {
	// Leaders expect µ = max(m/n, 4c²·log n) requests in round 1.
	n := 10000
	logn := math.Log(float64(n))

	m := int64(50_000_000) // m/n = 5000 >> 4c² log n
	plans := Plan(m, n)
	mu := float64(m) / float64(plans[0].Blocks)
	if mu < 5000 || mu > 5200 {
		t.Fatalf("heavy-ratio µ = %g want ~5000", mu)
	}

	mSmall := int64(100000) // m/n = 10: the 16c²·log n floor applies
	plans = Plan(mSmall, n)
	mu = float64(mSmall) / float64(plans[0].Blocks)
	floor := 16 * c * c * logn
	if mu < floor*0.9 || mu > floor*2 {
		t.Fatalf("light-ratio µ = %g want near %g", mu, floor)
	}
}

func TestPlanRemainderShrinksFast(t *testing.T) {
	// Non-terminal rounds must shrink the remainder by at least 4x (the
	// µ >= 16c²·log n floor makes δ/µ <= 1/4).
	m := int64(10_000_000)
	n := 1000
	plans := Plan(m, n)
	mr := float64(m)
	for _, rp := range plans {
		if rp.Terminal {
			break
		}
		next := mr - float64(rp.L)*float64(rp.Blocks)
		if next > mr/3 {
			t.Fatalf("remainder %g -> %g shrank too slowly", mr, next)
		}
		if next <= 0 {
			t.Fatalf("remainder went non-positive mid-schedule")
		}
		mr = next
	}
}

func TestMinBlockSize(t *testing.T) {
	rp := RoundPlan{Blocks: 3}
	if rp.MinBlockSize(10) != 3 {
		t.Fatalf("MinBlockSize(10) = %d want 3", rp.MinBlockSize(10))
	}
	rp = RoundPlan{Blocks: 5}
	if rp.MinBlockSize(10) != 2 {
		t.Fatalf("MinBlockSize(10) = %d want 2", rp.MinBlockSize(10))
	}
}

func TestBlockPartitionExact(t *testing.T) {
	// Every bin belongs to exactly one block; leaders are block maxima;
	// block count equals rp.Blocks.
	p := &protocol{n: 1000}
	for _, blocks := range []int{1, 3, 7, 499, 1000} {
		rp := RoundPlan{Blocks: blocks}
		leaders := 0
		for b := 0; b < p.n; b++ {
			k := p.blockOf(rp, b)
			if k < 0 || k >= blocks {
				t.Fatalf("blocks=%d bin=%d: block index %d", blocks, b, k)
			}
			if b < p.blockStart(rp, k) || b >= p.blockEnd(rp, k) {
				t.Fatalf("blocks=%d bin=%d: outside its block [%d,%d)",
					blocks, b, p.blockStart(rp, k), p.blockEnd(rp, k))
			}
			if p.isLeader(rp, b) {
				leaders++
				if b != p.blockEnd(rp, k)-1 {
					t.Fatalf("blocks=%d: non-maximal leader %d", blocks, b)
				}
			}
		}
		if leaders != blocks {
			t.Fatalf("blocks=%d: %d leaders", blocks, leaders)
		}
	}
}

func TestTerminalBlocksSpanLogN(t *testing.T) {
	// In the terminal round, blocks must have ~log n members so the
	// overshoot spreads to O(1) per bin.
	n := 100000
	plans := Plan(int64(n), n) // m = n: terminal quickly
	last := plans[len(plans)-1]
	s := last.MinBlockSize(n)
	logn := math.Log(float64(n))
	if float64(s) < logn/2 {
		t.Fatalf("terminal block size %d below (log n)/2 = %g", s, logn/2)
	}
	perBin := float64(last.L) / float64(s)
	if perBin > 30 {
		t.Fatalf("terminal round adds %.1f per bin; want O(1)", perBin)
	}
}

func TestRunCompletesAndBalances(t *testing.T) {
	for _, tc := range []struct {
		m int64
		n int
	}{
		{100000, 1000},  // m/n = 100: pre-round active
		{5000, 1000},    // m <= n log n: pure superbin phase
		{1000, 1000},    // m = n
		{100, 1000},     // m < n
		{1000000, 1000}, // m/n = 1000
	} {
		res, err := Run(model.Problem{M: tc.m, N: tc.n}, Config{Seed: uint64(tc.m)})
		if err != nil {
			t.Fatalf("m=%d n=%d: %v", tc.m, tc.n, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("m=%d n=%d: %v", tc.m, tc.n, err)
		}
		if res.Excess() > 30 {
			t.Fatalf("m=%d n=%d: excess %d (want m/n + O(1))", tc.m, tc.n, res.Excess())
		}
	}
}

func TestRunConstantRounds(t *testing.T) {
	// Theorem 3: constant rounds regardless of m/n, and actual rounds match
	// the plan (no terminal repeats) across seeds.
	n := 2000
	for _, ratio := range []int64{1, 8, 64, 512, 4096} {
		p := model.Problem{M: int64(n) * ratio, N: n}
		planned := PlannedRounds(p)
		if planned > 7 {
			t.Fatalf("ratio %d: planned %d rounds", ratio, planned)
		}
		seeds := uint64(5)
		if ratio >= 512 {
			seeds = 2 // keep the big agent-based instances cheap
		}
		for seed := uint64(0); seed < seeds; seed++ {
			res, err := Run(p, Config{Seed: seed})
			if err != nil {
				t.Fatalf("ratio %d: %v", ratio, err)
			}
			if res.Rounds > planned {
				t.Fatalf("ratio %d seed %d: %d rounds vs %d planned (terminal repeat hit)",
					ratio, seed, res.Rounds, planned)
			}
		}
	}
}

func TestRunPerBinMessages(t *testing.T) {
	// Theorem 3: each bin receives (1+o(1))m/n + O(log n) messages.
	p := model.Problem{M: 1 << 20, N: 1 << 10}
	res, err := Run(p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	logn := math.Log(float64(p.N))
	// o(m/n) slack plus O(log n) with an explicit constant: the superbin
	// phase gives every leader ~16c²·log n requests per round over a
	// handful of rounds, so ~400·log n is the honest constant here.
	bound := 1.3*p.AvgLoad() + 400*logn
	if float64(res.Metrics.MaxBinReceived) > bound {
		t.Fatalf("max bin received %d > %.0f", res.Metrics.MaxBinReceived, bound)
	}
}

func TestRunLoadSpreadWithinBlocks(t *testing.T) {
	// Round-robin spreading keeps the whole load vector tight: the gap
	// between max and min load should be O(1)-ish, not O(sqrt(m/n)).
	p := model.Problem{M: 400000, N: 500}
	res, err := Run(p, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spread := res.MaxLoad() - res.MinLoad()
	oneShot := int64(math.Sqrt(p.AvgLoad() * math.Log(float64(p.N))))
	if spread > oneShot {
		t.Fatalf("load spread %d not better than one-shot scale %d", spread, oneShot)
	}
}

func TestRunWHPAcrossSeeds(t *testing.T) {
	p := model.Problem{M: 200000, N: 1000}
	planned := PlannedRounds(p)
	var excess stats.Running
	for seed := uint64(0); seed < 25; seed++ {
		res, err := Run(p, Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Rounds > planned {
			t.Fatalf("seed %d: terminal repeat exercised (%d > %d rounds)",
				seed, res.Rounds, planned)
		}
		excess.Add(float64(res.Excess()))
	}
	if excess.Max() > 30 {
		t.Fatalf("worst excess %.0f over seeds", excess.Max())
	}
}

func TestRunZeroBalls(t *testing.T) {
	res, err := Run(model.Problem{M: 0, N: 4}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAllocated() != 0 {
		t.Fatal("zero balls allocated something")
	}
}

func TestRunTinyInstances(t *testing.T) {
	for _, tc := range []struct {
		m int64
		n int
	}{{1, 1}, {5, 1}, {1, 2}, {3, 2}, {7, 3}} {
		res, err := Run(model.Problem{M: tc.m, N: tc.n}, Config{Seed: 9})
		if err != nil {
			t.Fatalf("m=%d n=%d: %v", tc.m, tc.n, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("m=%d n=%d: %v", tc.m, tc.n, err)
		}
	}
}

func TestRunInvalidProblem(t *testing.T) {
	if _, err := Run(model.Problem{M: 5, N: 0}, Config{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestPlannedRoundsMatchesRun(t *testing.T) {
	p := model.Problem{M: 64000, N: 800}
	planned := PlannedRounds(p)
	res, err := Run(p, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > planned {
		t.Fatalf("actual rounds %d > planned %d", res.Rounds, planned)
	}
}

func TestPreRoundThreshold(t *testing.T) {
	// Heavy ratio: pre-round applies with T = m/n − (m/n)^(2/3).
	p := model.Problem{M: 1 << 20, N: 1 << 10}
	tr, m1 := preRoundThreshold(p)
	if tr != 1024-101-1 && tr != 1024-101 { // floor(1024 - 1024^(2/3)) = floor(1024-101.6)
		t.Fatalf("pre-round threshold %d", tr)
	}
	if m1 >= p.M || m1 <= 0 {
		t.Fatalf("pre-round estimate %d", m1)
	}
	// Light ratio: no pre-round.
	if tr, m1 := preRoundThreshold(model.Problem{M: 1000, N: 1000}); tr != 0 || m1 != 1000 {
		t.Fatalf("light ratio got pre-round (t=%d m1=%d)", tr, m1)
	}
}
