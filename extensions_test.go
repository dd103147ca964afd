package pba

import (
	"math"
	"testing"
)

func TestAllocateWeighted(t *testing.T) {
	p := WeightedProblem{N: 128, Classes: []WeightClass{
		{Weight: 1, Count: 50000},
		{Weight: 3, Count: 10000},
	}}
	res, err := AllocateWeighted(p, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 4*p.MaxWeight() {
		t.Fatalf("weighted excess %d", res.Excess())
	}
}

func TestAdaptiveThresholdClean(t *testing.T) {
	p := Problem{M: 20000, N: 100}
	res, err := AdaptiveThreshold(p, 2, Faults{}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 2 {
		t.Fatalf("excess %d above slack", res.Excess())
	}
}

func TestAdaptiveThresholdUnderFaults(t *testing.T) {
	p := Problem{M: 20000, N: 100}
	f := Faults{
		DropProbability:  0.25,
		CrashedBins:      []int{5, 15, 25},
		CrashFromRound:   1,
		ThrottlePerRound: 500,
	}
	// 3% capacity crashed; slack 20 >> (m/n)·(n/surv − 1) ≈ 6.2.
	res, err := AdaptiveThreshold(p, 20, f, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveThresholdValidation: every input that cannot describe a run
// is an error, never a panic or a silent default.
func TestAdaptiveThresholdValidation(t *testing.T) {
	p := Problem{M: 100, N: 10}
	for _, c := range []struct {
		name  string
		p     Problem
		slack int64
		f     Faults
	}{
		{"negative slack", p, -1, Faults{}},
		{"negative ball count", Problem{M: -1, N: 10}, 2, Faults{}},
		{"no bins", Problem{M: 1, N: 0}, 2, Faults{}},
		{"drop probability 1", p, 2, Faults{DropProbability: 1}},
		{"negative drop probability", p, 2, Faults{DropProbability: -0.5}},
		{"NaN drop probability", p, 2, Faults{DropProbability: math.NaN()}},
		{"every bin crashed", p, 2, Faults{CrashedBins: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}},
		{"crashed bin past N", p, 2, Faults{CrashedBins: []int{10}}},
		{"negative crashed bin", p, 2, Faults{CrashedBins: []int{-1}}},
		{"only nonexistent bins crashed", p, 2, Faults{CrashedBins: []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}},
		{"duplicated crashed bin", p, 2, Faults{CrashedBins: []int{3, 3}}},
		{"negative throttle", p, 2, Faults{ThrottlePerRound: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := AdaptiveThreshold(c.p, c.slack, c.f, Options{Seed: 1}); err == nil {
				t.Fatalf("problem %+v, slack %d, faults %+v accepted", c.p, c.slack, c.f)
			}
		})
	}
}

func TestAdaptiveThresholdInsufficientSlackFailsLoudly(t *testing.T) {
	// Crash half the bins with tiny slack: survivors cannot absorb the
	// load and the call must return an error, not silently drop balls.
	p := Problem{M: 10000, N: 20}
	crashed := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	_, err := AdaptiveThreshold(p, 1, Faults{CrashedBins: crashed, CrashFromRound: 0}, Options{Seed: 5})
	if err == nil {
		t.Fatal("under-provisioned crash scenario reported success")
	}
}
