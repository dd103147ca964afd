package pba

// Integration tests crossing module boundaries: statistical equivalence of
// the agent-based and count-based Aheavy implementations, a conservation
// grid over every algorithm × instance shape, and end-to-end pipeline
// checks (allocate → analyze with dist and the per-round record).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// TestAgentVsFastKS draws max-load and round-count samples from both
// Aheavy implementations and checks the two-sample KS statistic at the
// 0.1% level — the distributions must be indistinguishable.
func TestAgentVsFastKS(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-validation is slow")
	}
	p := Problem{M: 100000, N: 200}
	const samples = 40
	var agentLoad, fastLoad, agentRounds, fastRounds []float64
	for s := 0; s < samples; s++ {
		a, err := AheavyAgent(p, Options{Seed: uint64(s) + 1})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Aheavy(p, Options{Seed: uint64(s) + 1000})
		if err != nil {
			t.Fatal(err)
		}
		agentLoad = append(agentLoad, float64(a.MaxLoad()))
		fastLoad = append(fastLoad, float64(f.MaxLoad()))
		agentRounds = append(agentRounds, float64(a.Rounds))
		fastRounds = append(fastRounds, float64(f.Rounds))
	}
	thr := dist.KSThreshold(samples, samples, 0.001)
	if d := dist.KSDistance(agentLoad, fastLoad); d > thr {
		t.Errorf("max load: KS distance %.3f above %.3f: implementations diverge", d, thr)
	}
	if d := dist.KSDistance(agentRounds, fastRounds); d > thr {
		t.Errorf("rounds: KS distance %.3f above %.3f: implementations diverge", d, thr)
	}
}

// TestConservationGrid runs every complete algorithm over a grid of
// instance shapes and asserts the fundamental invariants.
func TestConservationGrid(t *testing.T) {
	shapes := []Problem{
		{M: 1, N: 1}, {M: 10, N: 10}, {M: 100, N: 7},
		{M: 1000, N: 1000}, {M: 50000, N: 50}, {M: 12345, N: 99},
		{M: 0, N: 5}, {M: 3, N: 1000},
	}
	algos := map[string]func(Problem, Options) (*Result, error){
		"aheavy":      Aheavy,
		"aheavyAgent": AheavyAgent,
		"asymmetric":  Asymmetric,
		"oneshot":     OneShot,
		"deterministic": func(p Problem, o Options) (*Result, error) {
			return Deterministic(p, o)
		},
		"greedy2": func(p Problem, o Options) (*Result, error) {
			return Greedy(p, 2, o)
		},
		"batched": func(p Problem, o Options) (*Result, error) {
			return Batched(p, 2, 100, o)
		},
		"fixed": func(p Problem, o Options) (*Result, error) {
			return FixedThreshold(p, 2, o)
		},
	}
	for name, run := range algos {
		for _, p := range shapes {
			res, err := run(p, Options{Seed: 77})
			if err != nil {
				t.Errorf("%s on m=%d n=%d: %v", name, p.M, p.N, err)
				continue
			}
			if err := res.Check(); err != nil {
				t.Errorf("%s on m=%d n=%d: %v", name, p.M, p.N, err)
			}
		}
	}
}

// TestSpectrumOfAheavyIsTight verifies the allocation's occupancy spectrum
// is concentrated on a handful of values (the paper's "all bins equally
// loaded" mechanism), while one-shot spreads over dozens.
func TestSpectrumOfAheavyIsTight(t *testing.T) {
	p := Problem{M: 1 << 20, N: 1 << 10}
	a, err := Aheavy(p, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OneShot(p, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	specA := dist.Spectrum(a.Loads)
	specS := dist.Spectrum(s.Loads)
	if specA.Support() > 12 {
		t.Fatalf("Aheavy spectrum support %d; want tight", specA.Support())
	}
	if specS.Support() < 3*specA.Support() {
		t.Fatalf("one-shot support %d not clearly wider than Aheavy's %d",
			specS.Support(), specA.Support())
	}
	if tv := dist.TotalVariation(specA, specS); tv < 0.5 {
		t.Fatalf("spectra unexpectedly close: TV = %.3f", tv)
	}
}

// TestTracePipeline runs Aheavy's phase 1 on the agent engine with the
// per-round record on and checks it against the result (traceDrops), and
// the decay rate of Aheavy's signature.
func TestTracePipeline(t *testing.T) {
	p := model.Problem{M: 65536, N: 256}
	sched, _ := core.Schedule(p, core.Params{})
	proto := fixedScheduleProto{sched: sched}
	res, err := sim.New(p, &proto, sim.Config{Seed: 9, Trace: true, MaxRounds: len(sched) + 1}).Run()
	if err != nil && res.Unallocated == 0 {
		t.Fatal(err)
	}
	traceDrops(t, p, res)
	if res.Rounds > len(sched)+1 {
		t.Fatalf("%d rounds over a %d-round schedule", res.Rounds, len(sched))
	}
	// Aheavy's signature: the remaining count collapses fast, with the
	// early rounds removing the overwhelming majority.
	tr := res.TraceRemaining
	if len(tr) > 1 {
		if rate := float64(tr[1]) / float64(tr[0]); rate > 0.2 {
			t.Fatalf("first-round survival rate %.3f; expected collapse", rate)
		}
	}
}

// TestTraceFixedCap runs a fixed-cap threshold algorithm on the agent
// engine with the per-round record on: it allocates every ball, the record
// agrees with the result, every ball sends at least one request, and no bin
// exceeds the cap.
func TestTraceFixedCap(t *testing.T) {
	const limit = 110
	p := model.Problem{M: 5000, N: 50}
	res := runFixedCap(t, p, limit)
	if res.Unallocated != 0 {
		t.Fatalf("%d balls unallocated", res.Unallocated)
	}
	traceDrops(t, p, res)
	if res.Metrics.BallRequests < p.M {
		t.Fatalf("requests %d below m", res.Metrics.BallRequests)
	}
	if ml := res.MaxLoad(); ml > limit {
		t.Fatalf("max load %d above cap %d", ml, limit)
	}
}

// TestTraceDecayRates checks that each round's survival rate, the share of
// its remaining balls still unallocated at the next round, lies in [0, 1].
func TestTraceDecayRates(t *testing.T) {
	p := model.Problem{M: 20000, N: 100}
	res := runFixedCap(t, p, 210)
	tr := res.TraceRemaining
	for i, drop := range traceDrops(t, p, res) {
		if rate := float64(tr[i]-drop) / float64(tr[i]); rate < 0 || rate > 1 {
			t.Fatalf("round %d survival rate %g out of [0, 1]", i, rate)
		}
	}
}

// runFixedCap runs the degree-1 threshold algorithm with a fixed cap on the
// agent engine with the per-round record on.
func runFixedCap(t *testing.T, p model.Problem, limit int64) *model.Result {
	t.Helper()
	alg := threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Fixed(limit)}
	res, err := alg.Run(p, threshold.Config{Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

// traceDrops checks a run's per-round record against its result: one entry
// per round, the first equal to M, and rounds' commits (the drops from one
// entry to the next, and from the last to Unallocated) that are never
// negative and sum to the allocation. It returns the drops.
func traceDrops(t *testing.T, p model.Problem, res *model.Result) []int64 {
	t.Helper()
	tr := res.TraceRemaining
	if len(tr) != res.Rounds || res.Rounds == 0 {
		t.Fatalf("%d trace entries over %d rounds", len(tr), res.Rounds)
	}
	if tr[0] != p.M {
		t.Fatalf("trace starts at %d, want %d", tr[0], p.M)
	}
	drops := make([]int64, len(tr))
	var accepted int64
	for i, r := range append(tr[1:len(tr):len(tr)], res.Unallocated) {
		if r > tr[i] {
			t.Fatalf("remaining rose in round %d", i)
		}
		drops[i] = tr[i] - r
		accepted += drops[i]
	}
	if accepted != res.TotalAllocated() {
		t.Fatalf("trace accepted %d != result %d", accepted, res.TotalAllocated())
	}
	return drops
}

// fixedScheduleProto is Aheavy's phase 1 as a standalone protocol for the
// trace pipeline test.
type fixedScheduleProto struct {
	sched []int64
}

func (f *fixedScheduleProto) Targets(_ int, b *sim.Ball, n int, buf []int) []int {
	return append(buf, b.Rand().Intn(n))
}
func (f *fixedScheduleProto) Hold(int) bool { return false }
func (f *fixedScheduleProto) Capacity(round int, _ int, load int64) int64 {
	if round >= len(f.sched) {
		return 0
	}
	return f.sched[round] - load
}
func (f *fixedScheduleProto) Payload(int, int, int64) int64                 { return 0 }
func (f *fixedScheduleProto) Choose(_ int, _ *sim.Ball, _ []sim.Accept) int { return 0 }
func (f *fixedScheduleProto) Place(a sim.Accept) int                        { return a.From }
func (f *fixedScheduleProto) Done(round int, _ int64) bool                  { return round >= len(f.sched) }

// TestWorkerCountInvariance checks the facade's determinism promise across
// worker counts for the agent engine.
func TestWorkerCountInvariance(t *testing.T) {
	p := Problem{M: 30000, N: 100}
	r1, err := AheavyAgent(p, Options{Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := AheavyAgent(p, Options{Seed: 21, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Loads {
		if r1.Loads[i] != r8.Loads[i] {
			t.Fatalf("bin %d differs across worker counts", i)
		}
	}
}

// TestExcessGapGrowsWithRatio is the paper's headline as a single
// regression test: the one-shot/Aheavy excess ratio must grow with m/n.
func TestExcessGapGrowsWithRatio(t *testing.T) {
	var prevGap float64
	for i, ratio := range []int64{64, 4096, 262144} {
		p := Problem{M: int64(512) * ratio, N: 512}
		a, err := Aheavy(p, Options{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		s, err := OneShot(p, Options{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		gap := float64(s.Excess()) / float64(a.Excess()+1)
		if i > 0 && gap <= prevGap {
			t.Fatalf("excess gap did not grow: %.1f -> %.1f at ratio %d", prevGap, gap, ratio)
		}
		prevGap = gap
	}
}
