package threshold

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestPerRoundRejectionsTrackTheorem7 runs the threshold family with
// Aheavy's schedule and checks that the number of balls surviving each
// early round sits on the sqrt(M_i·n) scale — the algorithm is pinned
// against the Theorem 7 floor round by round, which is exactly why its
// loglog round count is optimal (Theorem 2).
func TestPerRoundRejectionsTrackTheorem7(t *testing.T) {
	p := model.Problem{M: 1 << 20, N: 1 << 8}
	sched, _ := core.Schedule(p, core.Params{})
	if len(sched) < 3 {
		t.Fatal("schedule too short for the comparison")
	}
	alg := Algorithm{Degree: 1, PhaseLen: 1, Policy: Uniform(sched), MaxPhases: len(sched)}
	proto, err := alg.Protocol(p.N)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(p, proto, sim.Config{Seed: 5, Trace: true, MaxRounds: len(sched) + 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckPartial(); err != nil {
		t.Fatal(err)
	}
	// The balls that survive round i start round i+1; the last round's
	// survivors are the unallocated ones.
	var survivors []float64
	for _, r := range append(res.TraceRemaining[1:], res.Unallocated) {
		survivors = append(survivors, float64(r))
	}
	// Early rounds (strong concentration): survivors_{i} should be within
	// a small constant of sqrt(M_i · n), up to the t divisor of Theorem 7.
	remaining := float64(p.M)
	for i := 0; i < 3 && i < len(survivors); i++ {
		floor := math.Sqrt(remaining * float64(p.N))
		ratio := survivors[i] / floor
		if ratio < 0.05 || ratio > 20 {
			t.Fatalf("round %d: survivors %.0f vs sqrt(Mn) %.0f (ratio %.2f) — off the Theorem 7 scale",
				i, survivors[i], floor, ratio)
		}
		remaining = survivors[i]
	}
}

// TestNoPolicyBeatsSqrtFloor tries several threshold policies with the
// same capacity budget for one round and confirms none rejects below the
// Theorem 7 floor — per-bin thresholds (the extra power the lower-bound
// family allows) do not help.
func TestNoPolicyBeatsSqrtFloor(t *testing.T) {
	p := model.Problem{M: 1 << 18, N: 1 << 8}
	budget := p.CeilAvg() + 2
	policies := map[string]Policy{
		"fixed":     Fixed(budget),
		"two-class": TwoClass(0.5, budget-20, budget+20),
		"greedy":    Greedy(2),
	}
	floor := lower.PredictedRejections(p.M, p.N) / 8
	for name, pol := range policies {
		alg := Algorithm{Degree: 1, PhaseLen: 1, Policy: pol, MaxPhases: 1}
		var worst stats.Running
		for seed := uint64(0); seed < 5; seed++ {
			res, err := alg.Run(p, Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			worst.Add(float64(res.Unallocated))
		}
		if worst.Min() < floor {
			t.Fatalf("%s rejected %.0f < floor %.0f: policy beat Theorem 7?!", name, worst.Min(), floor)
		}
	}
}
