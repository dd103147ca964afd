package adversary

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// greedyAlg builds a state-adaptive threshold algorithm that always spreads
// remaining load evenly — the robust retry-style algorithm used as the
// fault-tolerance workhorse in these tests.
func greedyAlg(slack int64) threshold.Algorithm {
	return threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Greedy(slack)}
}

func runWith(t *testing.T, p model.Problem, proto sim.Protocol, maxRounds int) (*model.Result, error) {
	t.Helper()
	eng := sim.New(p, proto, sim.Config{Seed: 11, MaxRounds: maxRounds})
	return eng.Run()
}

func TestDropRequestsStillCompletes(t *testing.T) {
	// 30% request loss: the allocation completes (slower) with the same
	// load guarantee.
	p := model.Problem{M: 20000, N: 200}
	base, err := greedyAlg(2).Protocol(p.N)
	if err != nil {
		t.Fatal(err)
	}
	faulty := DropRequests(base, 0.3, 99)
	res, err := runWith(t, p, faulty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 2 {
		t.Fatalf("excess %d above slack under drops", res.Excess())
	}

	clean, err := greedyAlg(2).Protocol(p.N)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := runWith(t, p, clean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < cleanRes.Rounds {
		t.Fatalf("lossy run (%d rounds) faster than clean run (%d)", res.Rounds, cleanRes.Rounds)
	}
}

func TestDropRequestsZeroIsNoop(t *testing.T) {
	p := model.Problem{M: 5000, N: 50}
	base, _ := greedyAlg(2).Protocol(p.N)
	a, err := runWith(t, p, DropRequests(base, 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	base2, _ := greedyAlg(2).Protocol(p.N)
	b, err := runWith(t, p, base2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatal("p=0 drop changed the allocation")
		}
	}
}

func TestDropRequestsPanicsOnBadP(t *testing.T) {
	base, _ := greedyAlg(1).Protocol(10)
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%g did not panic", p)
				}
			}()
			DropRequests(base, p, 1)
		}()
	}
}

func TestCrashBinsSurvivorsAbsorb(t *testing.T) {
	// Crash 10% of bins after round 1. The greedy policy re-spreads load
	// over survivors; max load rises to ~m/survivors + slack.
	p := model.Problem{M: 10000, N: 100}
	crashed := make([]int, 10)
	for i := range crashed {
		crashed[i] = i * 10
	}
	base, _ := greedyAlg(3).Protocol(p.N)
	res, err := runWith(t, p, CrashBins(base, crashed, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// Crashed bins keep only what they accepted in rounds 0..0.
	survivorAvg := float64(p.M) / 90
	if got := float64(res.MaxLoad()); got > survivorAvg*1.3+10 {
		t.Fatalf("max load %g far above survivor average %g", got, survivorAvg)
	}
}

func TestCrashAllBinsStalls(t *testing.T) {
	// Crashing every bin from round 0 means nothing is ever accepted: the
	// engine must hit its round budget, not spin forever or lose balls.
	p := model.Problem{M: 100, N: 10}
	base, _ := greedyAlg(2).Protocol(p.N)
	all := make([]int, p.N)
	for i := range all {
		all[i] = i
	}
	res, err := runWith(t, p, CrashBins(base, all, 0), 8)
	if !errors.Is(err, sim.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res.TotalAllocated() != 0 {
		t.Fatal("crashed bins accepted balls")
	}
	if res.Unallocated != p.M {
		t.Fatalf("unallocated %d", res.Unallocated)
	}
}

func TestCrashBeforeVsAfterFill(t *testing.T) {
	// Bins crashing *after* the allocation mostly completed retain their
	// load; crashing early shifts everything to survivors. Compare final
	// load of bin 0 in both schedules.
	p := model.Problem{M: 10000, N: 100}
	early, _ := greedyAlg(2).Protocol(p.N)
	resEarly, err := runWith(t, p, CrashBins(early, []int{0}, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	late, _ := greedyAlg(2).Protocol(p.N)
	resLate, err := runWith(t, p, CrashBins(late, []int{0}, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resEarly.Loads[0] != 0 {
		t.Fatalf("bin crashed at round 0 holds %d balls", resEarly.Loads[0])
	}
	if resLate.Loads[0] == 0 {
		t.Fatal("bin crashed late lost its load")
	}
}

func TestThrottleBoundsPerRoundProgress(t *testing.T) {
	// With per-bin per-round capacity L, a round allocates at most n·L.
	p := model.Problem{M: 10000, N: 100}
	const limit = 10
	base, _ := greedyAlg(2).Protocol(p.N)
	res, err := sim.New(p, Throttle(base, limit), sim.Config{Seed: 3, Trace: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// A round's commits are the drop from its trace entry to the next one,
	// or to Unallocated after the last round.
	tr := append(res.TraceRemaining, res.Unallocated)
	for i := 1; i < len(tr); i++ {
		if placed := tr[i-1] - tr[i]; placed > int64(p.N)*limit {
			t.Fatalf("round %d allocated %d > n*limit", i-1, placed)
		}
	}
	if res.Rounds < int(p.M)/(p.N*limit) {
		t.Fatalf("rounds %d below the throughput floor", res.Rounds)
	}
}

func TestThrottlePanics(t *testing.T) {
	base, _ := greedyAlg(1).Protocol(10)
	defer func() {
		if recover() == nil {
			t.Fatal("limit 0 did not panic")
		}
	}()
	Throttle(base, 0)
}

func TestDecoratorsCompose(t *testing.T) {
	// Drops + crashes + throttling together: still completes with the
	// greedy policy as long as surviving capacity covers m.
	p := model.Problem{M: 5000, N: 100}
	base, _ := greedyAlg(5).Protocol(p.N)
	proto := Throttle(DropRequests(CrashBins(base, []int{1, 2, 3}, 2), 0.2, 7), 50)
	res, err := runWith(t, p, proto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundStartForwarded(t *testing.T) {
	// The decorators must forward RoundStart or state-adaptive policies
	// would see stale thresholds (caps stay zero and nothing is accepted).
	p := model.Problem{M: 1000, N: 10}
	base, _ := greedyAlg(2).Protocol(p.N)
	res, err := runWith(t, p, DropRequests(base, 0.1, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAllocated() != p.M {
		t.Fatal("RoundStart not forwarded through decorator")
	}
}
