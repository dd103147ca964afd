package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestScheduleRecursion(t *testing.T) {
	// The estimates must follow m̃_{i+1} = m̃_i^(2/3) n^(1/3) exactly.
	p := model.Problem{M: 1 << 30, N: 1 << 10}
	_, est := Schedule(p, Params{})
	ns := float64(p.N)
	for i := 1; i < len(est); i++ {
		want := math.Pow(est[i-1], 2.0/3.0) * math.Pow(ns, 1.0/3.0)
		if math.Abs(est[i]-want) > 1e-6*want {
			t.Fatalf("estimate %d: %g want %g", i, est[i], want)
		}
	}
	if est[0] != float64(p.M) {
		t.Fatalf("est[0] = %g", est[0])
	}
}

func TestScheduleThresholdsIncrease(t *testing.T) {
	p := model.Problem{M: 1 << 40, N: 1 << 12}
	ts, est := Schedule(p, Params{})
	if len(ts) == 0 {
		t.Fatal("empty schedule for heavy instance")
	}
	if len(est) != len(ts)+1 {
		t.Fatalf("estimates length %d, thresholds %d", len(est), len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("threshold %d not increasing: %d <= %d", i, ts[i], ts[i-1])
		}
	}
	// Final threshold stays below the average load (undershooting).
	if float64(ts[len(ts)-1]) >= p.AvgLoad() {
		t.Fatalf("last threshold %d not below average %g", ts[len(ts)-1], p.AvgLoad())
	}
}

func TestScheduleLengthLogLog(t *testing.T) {
	// Rounds should grow like log log(m/n): doubling the exponent of m/n
	// adds about one round.
	n := 1 << 10
	var lengths []int
	for _, logRatio := range []int{4, 8, 16, 32} {
		p := model.Problem{M: int64(n) << uint(logRatio), N: n}
		ts, _ := Schedule(p, Params{})
		lengths = append(lengths, len(ts))
	}
	for i := 1; i < len(lengths); i++ {
		if lengths[i] < lengths[i-1] {
			t.Fatalf("schedule length not monotone: %v", lengths)
		}
		if lengths[i] > lengths[i-1]+4 {
			t.Fatalf("schedule length jumped: %v (expected ~log log growth)", lengths)
		}
	}
	if lengths[len(lengths)-1] > 20 {
		t.Fatalf("schedule too long: %v", lengths)
	}
}

func TestScheduleSmallRatioEmpty(t *testing.T) {
	// m/n = 2: threshold would be non-positive, so phase 1 is skipped.
	ts, _ := Schedule(model.Problem{M: 2048, N: 1024}, Params{})
	if len(ts) != 0 {
		t.Fatalf("expected empty schedule, got %v", ts)
	}
}

func TestPredictedRemaining(t *testing.T) {
	p := model.Problem{M: 1 << 26, N: 1 << 10} // m/n = 2^16
	if got := PredictedRemaining(p, 0, 0); math.Abs(got-float64(p.M)) > 1 {
		t.Fatalf("round 0 prediction %g want %d", got, p.M)
	}
	// After one round: n·(m/n)^(2/3) = 2^10 · 2^(32/3).
	want := float64(p.N) * math.Pow(float64(1<<16), 2.0/3.0)
	if got := PredictedRemaining(p, 0, 1); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("round 1 prediction %g want %g", got, want)
	}
}

func TestRunSmallHeavyInstance(t *testing.T) {
	p := model.Problem{M: 100000, N: 100}
	res, err := Run(p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 10 {
		t.Fatalf("excess %d; want m/n + O(1)", res.Excess())
	}
	if res.Rounds > 20 {
		t.Fatalf("rounds %d", res.Rounds)
	}
}

func TestRunExcessConstantAcrossRatios(t *testing.T) {
	// The whole point of the paper: excess stays O(1) as m/n grows.
	n := 256
	var worst int64
	for _, ratio := range []int64{16, 256, 4096, 65536} {
		p := model.Problem{M: int64(n) * ratio, N: n}
		res, err := Run(p, Config{Seed: uint64(ratio)})
		if err != nil {
			t.Fatalf("ratio %d: %v", ratio, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("ratio %d: %v", ratio, err)
		}
		if res.Excess() > worst {
			worst = res.Excess()
		}
	}
	if worst > 12 {
		t.Fatalf("worst excess %d across ratios; want O(1)", worst)
	}
}

func TestRunFastMatchesRunDistribution(t *testing.T) {
	// The fast path must produce the same max-load distribution as the
	// agent-based path: compare means over several seeds.
	p := model.Problem{M: 200000, N: 200}
	var agent, fast stats.Running
	for seed := uint64(0); seed < 8; seed++ {
		ra, err := Run(p, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rf, err := RunFast(p, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := ra.Check(); err != nil {
			t.Fatal(err)
		}
		if err := rf.Check(); err != nil {
			t.Fatal(err)
		}
		agent.Add(float64(ra.MaxLoad()))
		fast.Add(float64(rf.MaxLoad()))
	}
	if math.Abs(agent.Mean()-fast.Mean()) > 4 {
		t.Fatalf("agent mean max %.1f vs fast mean max %.1f", agent.Mean(), fast.Mean())
	}
}

func TestRunFastLargeInstance(t *testing.T) {
	// 10^7 balls into 10^4 bins: the heavily loaded regime at scale.
	p := model.Problem{M: 10_000_000, N: 10_000}
	res, err := RunFast(p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 10 {
		t.Fatalf("excess %d", res.Excess())
	}
	if res.Rounds > 25 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	// Message totals: O(m) with a small constant (paper: <= 2m requests).
	if res.Metrics.BallRequests > 3*p.M {
		t.Fatalf("requests %d > 3m", res.Metrics.BallRequests)
	}
}

func TestRunFastTrajectoryFollowsPrediction(t *testing.T) {
	// Claim 2: while m̃_i >> n·polylog(n), the actual remaining count
	// equals the estimate m̃_i exactly (w.h.p.), because every bin fills to
	// its threshold.
	p := model.Problem{M: 1 << 24, N: 1 << 8} // ratio 2^16
	res, err := RunFast(p, Config{Seed: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	_, est := Schedule(p, Params{})
	if len(res.TraceRemaining) == 0 {
		t.Fatal("no trace recorded")
	}
	// Compare the first few rounds (where concentration is strongest).
	for i := 0; i < len(res.TraceRemaining) && i < 3; i++ {
		got := float64(res.TraceRemaining[i])
		want := est[i]
		if math.Abs(got-want) > 0.02*want+float64(p.N) {
			t.Fatalf("round %d: remaining %g, estimate %g", i, got, want)
		}
	}
}

func TestRunDegreeTwo(t *testing.T) {
	p := model.Problem{M: 50000, N: 100}
	res, err := Run(p, Config{Seed: 7, Params: Params{Degree: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 10 {
		t.Fatalf("excess %d with degree 2", res.Excess())
	}
}

func TestRunFastRejectsDegree(t *testing.T) {
	if _, err := RunFast(model.Problem{M: 100, N: 10}, Config{Params: Params{Degree: 2}}); err == nil {
		t.Fatal("RunFast accepted Degree 2")
	}
}

func TestRunBetaAblation(t *testing.T) {
	p := model.Problem{M: 1 << 20, N: 1 << 8}
	for _, beta := range []float64{0.5, 2.0 / 3.0, 0.75} {
		res, err := RunFast(p, Config{Seed: 11, Params: Params{Beta: beta}})
		if err != nil {
			t.Fatalf("beta %g: %v", beta, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("beta %g: %v", beta, err)
		}
		if res.Excess() > 12 {
			t.Fatalf("beta %g: excess %d", beta, res.Excess())
		}
	}
}

func TestRunInvalidParams(t *testing.T) {
	p := model.Problem{M: 100, N: 10}
	for name, params := range map[string]Params{
		"beta too big":  {Beta: 1.5},
		"beta negative": {Beta: -0.5},
		"bad degree":    {Degree: -1},
	} {
		if _, err := Run(p, Config{Params: params}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunInvalidProblem(t *testing.T) {
	if _, err := Run(model.Problem{M: 1, N: 0}, Config{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
	if _, err := RunFast(model.Problem{M: -1, N: 5}, Config{}); err == nil {
		t.Fatal("invalid problem accepted by RunFast")
	}
}

func TestRunLightlyLoaded(t *testing.T) {
	// m = n: phase 1 is empty and Alight does all the work.
	p := model.Problem{M: 1000, N: 1000}
	res, err := Run(p, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// Phase 2 uses g=4 virtual bins per real bin with cap 2, so the max
	// real-bin load is bounded by 2g = 8 (and typically far lower).
	if res.MaxLoad() > 8 {
		t.Fatalf("max load %d for m=n", res.MaxLoad())
	}
}

func TestRunSingleBin(t *testing.T) {
	p := model.Problem{M: 1000, N: 1}
	res, err := Run(p, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Loads[0] != 1000 {
		t.Fatalf("single bin load %d", res.Loads[0])
	}
}

func TestRunZeroBalls(t *testing.T) {
	res, err := Run(model.Problem{M: 0, N: 8}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAllocated() != 0 || res.Rounds != 0 {
		t.Fatal("zero-ball run did work")
	}
}

func TestRunAdversarialTieBreak(t *testing.T) {
	p := model.Problem{M: 100000, N: 100}
	res, err := Run(p, Config{Seed: 19, TieBreak: sim.TieAdversarialHighID})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 10 {
		t.Fatalf("excess %d under adversarial tie-break", res.Excess())
	}
}

func TestRunWHPAcrossSeeds(t *testing.T) {
	// Theorem 6 is a w.h.p. statement: verify across 25 seeds that excess
	// and round count stay bounded.
	p := model.Problem{M: 1 << 20, N: 1 << 8}
	var excess, rounds stats.Running
	for seed := uint64(0); seed < 25; seed++ {
		res, err := RunFast(p, Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		excess.Add(float64(res.Excess()))
		rounds.Add(float64(res.Rounds))
	}
	if excess.Max() > 12 {
		t.Fatalf("worst excess %.0f over 25 seeds", excess.Max())
	}
	if rounds.Max() > 20 {
		t.Fatalf("worst rounds %.0f over 25 seeds", rounds.Max())
	}
}

func TestVirtualFactor(t *testing.T) {
	if virtualFactor(100, 1000, 2) != 4 {
		t.Fatal("small leftover should use the floor g=4")
	}
	if g := virtualFactor(10000, 1000, 2); g != 10 {
		t.Fatalf("virtualFactor = %d want 10", g)
	}
	// Capacity must always be at least 2x the leftover.
	err := quick.Check(func(leftRaw uint16, nRaw uint16) bool {
		leftover := int64(leftRaw) + 1
		n := int(nRaw%1000) + 1
		g := virtualFactor(leftover, n, 2)
		return int64(g)*int64(n)*2 >= 2*leftover && g >= 4
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFastDeterministicForSeed(t *testing.T) {
	p := model.Problem{M: 100000, N: 128}
	a, err := RunFast(p, Config{Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFast(p, Config{Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatal("RunFast not deterministic for fixed seed and workers")
		}
	}
}

func TestMessageBoundsPerBin(t *testing.T) {
	// Theorem 6: each bin receives (1+o(1))m/n + O(log n) messages.
	p := model.Problem{M: 1 << 22, N: 1 << 10}
	res, err := RunFast(p, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	bound := 1.25*p.AvgLoad() + 50*math.Log(float64(p.N))
	if float64(res.Metrics.MaxBinReceived) > bound {
		t.Fatalf("max bin received %d exceeds %.0f", res.Metrics.MaxBinReceived, bound)
	}
}
