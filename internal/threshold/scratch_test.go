package threshold

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestScratchReuseMatchesFresh passes one Scratch through Run and RunMass,
// with and without BaseLoads, while n and m change from call to call, n
// shrinking too, and compares every Result field with the same call made
// without a Scratch. A reused buffer that a run does not clear or resize,
// here or in either sim engine, fails it.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var scr Scratch
	r := rng.New(7)
	adaptive := Algorithm{Degree: 1, PhaseLen: 1, Policy: Greedy(1)}
	collecting := Algorithm{Degree: 2, PhaseLen: 2, Policy: Greedy(2)}
	for i, c := range []struct {
		m int64
		n int
	}{{1 << 16, 256}, {5000, 64}, {300, 1000}, {1 << 17, 128}, {40000, 32}, {10, 10}, {1 << 15, 512}} {
		p := model.Problem{M: c.m, N: c.n}
		var base []int64
		if i%2 == 0 {
			base = make([]int64, c.n)
			for b := range base {
				base[b] = int64(r.Intn(int(c.m)/c.n + 2))
			}
		}
		for _, run := range []struct {
			name string
			f    func(model.Problem, Config) (*model.Result, error)
			cfg  Config
		}{
			{"Run", adaptive.Run, Config{Seed: uint64(i), Workers: 2, BaseLoads: base, RecordPlacements: true, Trace: true}},
			{"RunMass", adaptive.RunMass, Config{Seed: uint64(i), BaseLoads: base, Trace: true}},
			{"Run d=2 k=2", collecting.Run, Config{Seed: uint64(i), BaseLoads: base, TieBreak: sim.TieRandom, Trace: true}},
		} {
			label := fmt.Sprintf("%s m=%d n=%d base=%v", run.name, c.m, c.n, base != nil)
			want, err := run.f(p, run.cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg := run.cfg
			cfg.Scratch = &scr
			got, err := run.f(p, cfg)
			if err != nil {
				t.Fatalf("%s with a Scratch: %v", label, err)
			}
			sameResult(t, label, got, want)
		}
	}
}

// sameResult fails t, naming the run by label, unless got equals want in
// every Result field. It compares slices by their elements, so a reused
// buffer's empty slice equals a fresh run's nil one.
func sameResult(t *testing.T, label string, got, want *model.Result) {
	t.Helper()
	switch {
	case got.Problem != want.Problem:
		t.Fatalf("%s: problem %+v, want %+v", label, got.Problem, want.Problem)
	case got.Rounds != want.Rounds:
		t.Fatalf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	case got.Unallocated != want.Unallocated:
		t.Fatalf("%s: unallocated %d, want %d", label, got.Unallocated, want.Unallocated)
	case got.Metrics != want.Metrics:
		t.Fatalf("%s: metrics %+v, want %+v", label, got.Metrics, want.Metrics)
	case !slices.Equal(got.Loads, want.Loads):
		t.Fatalf("%s: loads differ", label)
	case !slices.Equal(got.TraceRemaining, want.TraceRemaining):
		t.Fatalf("%s: trace %v, want %v", label, got.TraceRemaining, want.TraceRemaining)
	case !slices.Equal(got.Placements, want.Placements):
		t.Fatalf("%s: placements differ", label)
	}
}
