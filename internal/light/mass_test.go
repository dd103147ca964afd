package light

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
)

// TestRunMassMatchesRunKS checks that RunMass samples Run's distribution:
// over 400 seeds at Aheavy's phase-2 shape (half a ball per bin), the
// two-sample KS test at the 0.1% level must not separate them on round
// 0's survivors, the round count, or the number of bins filled to Cap.
// A survivor schedule that restarts at degree 1 takes a round more and
// fails the rounds comparison.
func TestRunMassMatchesRunKS(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-validation is slow")
	}
	const seeds = 400
	p := model.Problem{M: 1 << 13, N: 1 << 14}
	type sample struct{ survivors, rounds, full []float64 }
	draw := func(run func(model.Problem, Config) (*model.Result, error), salt uint64) sample {
		var s sample
		for seed := uint64(0); seed < seeds; seed++ {
			res, err := run(p, Config{Seed: seed + salt, Workers: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			var survivors, full float64
			if len(res.TraceRemaining) > 1 {
				survivors = float64(res.TraceRemaining[1])
			}
			for _, l := range res.Loads {
				if l == 2 {
					full++
				}
			}
			s.survivors = append(s.survivors, survivors)
			s.rounds = append(s.rounds, float64(res.Rounds))
			s.full = append(s.full, full)
		}
		return s
	}
	agent, mass := draw(Run, 1), draw(RunMass, 1<<20)
	thr := dist.KSThreshold(seeds, seeds, 0.001)
	for _, c := range []struct {
		name       string
		agent, got []float64
	}{
		{"round-0 survivors", agent.survivors, mass.survivors},
		{"rounds", agent.rounds, mass.rounds},
		{"bins at Cap", agent.full, mass.full},
	} {
		if d := dist.KSDistance(c.agent, c.got); d > thr {
			t.Errorf("%s: KS distance %.3f above %.3f: RunMass diverges from Run", c.name, d, thr)
		}
	}
}

// TestRunMassRejects pins RunMass's two refusals; each names light.Run,
// which serves both.
func TestRunMassRejects(t *testing.T) {
	p := model.Problem{M: 100, N: 100}
	for name, cfg := range map[string]Config{
		"cap above a byte":  {Cap: 256},
		"record placements": {RecordPlacements: true},
	} {
		_, err := RunMass(p, cfg)
		if err == nil || !strings.Contains(err.Error(), "light.Run") {
			t.Errorf("%s: error %v, want one naming light.Run", name, err)
		}
		if _, err := Run(p, cfg); err != nil {
			t.Errorf("%s: Run: %v", name, err)
		}
	}
	if _, err := RunMass(model.Problem{M: 2001, N: 1000}, Config{Cap: 2}); err == nil {
		t.Error("infeasible instance accepted")
	}
}

// TestRunMassZeroBalls mirrors Run on an empty instance.
func TestRunMassZeroBalls(t *testing.T) {
	res, err := RunMass(model.Problem{M: 0, N: 10}, Config{Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.Loads) != 10 || res.Metrics != (model.Metrics{}) {
		t.Fatalf("zero balls: rounds %d, %d loads, metrics %v", res.Rounds, len(res.Loads), res.Metrics)
	}
}

// FuzzRunMass runs RunMass over small instances up to a tight fit (m =
// Cap·n), where round 0 overfills many bins and the survivors must find
// the few free slots the byte loads leave. Every run must pass Check,
// keep every load within Cap, allocate every ball, account its messages
// consistently, report the exact MaxBallSent, and return the same Result
// at 1, 2 and 4 workers.
func FuzzRunMass(f *testing.F) {
	// seed, m, n-1, cap-1
	f.Add(uint64(1), uint32(200), uint16(99), uint8(1))
	f.Add(uint64(2), uint32(8192), uint16(16383), uint8(1))
	f.Add(uint64(3), uint32(4000), uint16(999), uint8(3))
	f.Add(uint64(4), uint32(3), uint16(0), uint8(2))
	f.Add(uint64(5), uint32(2900), uint16(1499), uint8(1))
	f.Add(uint64(6), uint32(1000), uint16(999), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, mRaw uint32, nRaw uint16, capRaw uint8) {
		n := int(nRaw)%(1<<14) + 1
		capacity := int64(capRaw%4) + 1
		m := int64(mRaw) % (capacity*int64(n) + 1)
		var want *model.Result
		for _, w := range []int{1, 2, 4} {
			res, err := RunMass(model.Problem{M: m, N: n}, Config{Seed: seed, Cap: capacity, Workers: w, Trace: true})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if want == nil {
				checkMass(t, res, capacity)
				want = res
			} else if !reflect.DeepEqual(res, want) {
				t.Fatalf("workers=%d: result differs from workers=1", w)
			}
		}
	})
}

// checkMass asserts the invariants of one RunMass result.
func checkMass(t *testing.T, res *model.Result, capacity int64) {
	t.Helper()
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Unallocated != 0 {
		t.Fatalf("%d balls unallocated", res.Unallocated)
	}
	if l := res.MaxLoad(); l > capacity {
		t.Fatalf("load %d exceeds cap %d", l, capacity)
	}
	m, mt := res.Problem.M, res.Metrics
	if mt.BallRequests != mt.BinReplies {
		t.Fatalf("%d requests but %d replies", mt.BallRequests, mt.BinReplies)
	}
	// Every ball commits once; a later-round ball that several bins
	// accepted informs each of them, so commits may exceed m.
	if mt.CommitMessages < m || mt.CommitMessages > mt.BallRequests {
		t.Fatalf("%d commit messages for %d balls and %d requests", mt.CommitMessages, m, mt.BallRequests)
	}
	if mt.TotalMessages != mt.BallRequests+mt.BinReplies+mt.CommitMessages {
		t.Fatalf("total %d is not the sum of %v", mt.TotalMessages, mt)
	}
	// A ball active in the last round was active in every round before it.
	var sent int64
	for r := 0; r < res.Rounds; r++ {
		sent += int64(min(Schedule(r, min(res.Problem.N, MaxRequests)), res.Problem.N))
	}
	if mt.MaxBallSent != sent {
		t.Fatalf("MaxBallSent %d, want %d over %d rounds", mt.MaxBallSent, sent, res.Rounds)
	}
	if m > 0 && (mt.MaxBinReceived < res.MaxLoad() || mt.MaxBinReceived > mt.BallRequests) {
		t.Fatalf("MaxBinReceived %d outside [%d, %d]", mt.MaxBinReceived, res.MaxLoad(), mt.BallRequests)
	}
	if len(res.TraceRemaining) != res.Rounds || (m > 0 && res.TraceRemaining[0] != m) {
		t.Fatalf("trace %v over %d rounds of %d balls", res.TraceRemaining, res.Rounds, m)
	}
}
