package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWeightedUnitRecoversAheavy(t *testing.T) {
	// All weights 1: the guarantee collapses to the paper's m/n + O(1).
	p := WeightedProblem{N: 256, Classes: []WeightClass{{Weight: 1, Count: 256 * 1024}}}
	res, err := RunWeighted(p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 8 {
		t.Fatalf("unit-weight excess %d", res.Excess())
	}
}

func TestWeightedMixedClasses(t *testing.T) {
	p := WeightedProblem{N: 200, Classes: []WeightClass{
		{Weight: 1, Count: 100000},
		{Weight: 2, Count: 40000},
		{Weight: 4, Count: 10000},
	}}
	res, err := RunWeighted(p, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// Guarantee: W/n + O(w_max).
	if res.Excess() > 4*p.MaxWeight() {
		t.Fatalf("excess %d above O(w_max)=O(%d)", res.Excess(), p.MaxWeight())
	}
	if res.Rounds > 25 {
		t.Fatalf("rounds %d", res.Rounds)
	}
}

func TestWeightedHeavyTail(t *testing.T) {
	// A few huge balls among many small ones.
	p := WeightedProblem{N: 100, Classes: []WeightClass{
		{Weight: 1, Count: 500000},
		{Weight: 100, Count: 300},
	}}
	res, err := RunWeighted(p, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Excess() > 4*p.MaxWeight() {
		t.Fatalf("excess %d vs w_max %d", res.Excess(), p.MaxWeight())
	}
}

func TestWeightedConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8, c1, c2, c3 uint16) bool {
		n := int(nRaw%64) + 1
		p := WeightedProblem{N: n, Classes: []WeightClass{
			{Weight: 1, Count: int64(c1)},
			{Weight: 3, Count: int64(c2)},
			{Weight: 7, Count: int64(c3)},
		}}
		res, err := RunWeighted(p, Config{Seed: seed})
		if err != nil {
			return false
		}
		return res.Check() == nil
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedValidation(t *testing.T) {
	bad := []WeightedProblem{
		{N: 0, Classes: []WeightClass{{Weight: 1, Count: 1}}},
		{N: 2, Classes: []WeightClass{{Weight: 0, Count: 1}}},
		{N: 2, Classes: []WeightClass{{Weight: -1, Count: 1}}},
		{N: 2, Classes: []WeightClass{{Weight: 1, Count: -1}}},
	}
	for i, p := range bad {
		if _, err := RunWeighted(p, Config{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWeightedEmptyInstance(t *testing.T) {
	p := WeightedProblem{N: 4}
	res, err := RunWeighted(p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoad() != 0 || res.Rounds != 0 {
		t.Fatal("empty instance did work")
	}
}

func TestWeightedProblemAccessors(t *testing.T) {
	p := WeightedProblem{N: 3, Classes: []WeightClass{
		{Weight: 2, Count: 5},
		{Weight: 10, Count: 0}, // empty class must not count toward MaxWeight
		{Weight: 3, Count: 4},
	}}
	if p.TotalWeight() != 2*5+3*4 {
		t.Fatalf("total weight %d", p.TotalWeight())
	}
	if p.TotalBalls() != 9 {
		t.Fatalf("total balls %d", p.TotalBalls())
	}
	if p.MaxWeight() != 3 {
		t.Fatalf("max weight %d", p.MaxWeight())
	}
}

func TestWeightedBetterThanRandomForHeavyRatio(t *testing.T) {
	// Compare against weighted one-shot (each ball to a uniform bin).
	p := WeightedProblem{N: 128, Classes: []WeightClass{
		{Weight: 1, Count: 64 * 1024},
		{Weight: 5, Count: 8 * 1024},
	}}
	res, err := RunWeighted(p, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate weighted one-shot.
	r := rng.New(7)
	loads := make([]int64, p.N)
	for _, c := range p.Classes {
		counts := make([]int64, p.N)
		r.Multinomial(c.Count, counts)
		for b, k := range counts {
			loads[b] += k * c.Weight
		}
	}
	var oneShotMax int64
	for _, l := range loads {
		if l > oneShotMax {
			oneShotMax = l
		}
	}
	n64 := int64(p.N)
	oneShotExcess := oneShotMax - (p.TotalWeight()+n64-1)/n64
	if res.Excess() >= oneShotExcess {
		t.Fatalf("weighted threshold excess %d not below one-shot %d", res.Excess(), oneShotExcess)
	}
}

func TestWeightedDeterministic(t *testing.T) {
	p := WeightedProblem{N: 64, Classes: []WeightClass{{Weight: 2, Count: 50000}}}
	a, err := RunWeighted(p, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWeighted(p, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatal("weighted run not deterministic")
		}
	}
}

// weightedFingerprint hashes every field of r, in a fixed order: the
// problem, the rounds, and each bin's weight and ball count.
func weightedFingerprint(r *WeightedResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(r.Problem.N))
	for _, c := range r.Problem.Classes {
		put(c.Weight)
		put(c.Count)
	}
	put(int64(r.Rounds))
	for i := range r.Loads {
		put(r.Loads[i])
		put(r.Balls[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestWeightedGolden pins RunWeighted's complete output on a few
// instances: unit weights, mixed classes, a heavy tail, and a non-default
// beta. The values were recorded before the agent engine's threshold
// rounds last changed; a change to the schedule, its stop bound or the
// finisher that alters any bin fails here.
func TestWeightedGolden(t *testing.T) {
	cases := []struct {
		name string
		p    WeightedProblem
		cfg  Config
		want string
	}{
		{"unit", WeightedProblem{N: 256, Classes: []WeightClass{{Weight: 1, Count: 256 * 1024}}}, Config{Seed: 1}, "7969f301d2be94e18569fd13"},
		{"mixed", WeightedProblem{N: 200, Classes: []WeightClass{{Weight: 1, Count: 100000}, {Weight: 2, Count: 40000}, {Weight: 4, Count: 10000}}}, Config{Seed: 3}, "f1831f2004c87682bbf18da1"},
		{"heavy-tail", WeightedProblem{N: 100, Classes: []WeightClass{{Weight: 1, Count: 500000}, {Weight: 100, Count: 300}}}, Config{Seed: 5}, "0378cdf66c9bda4bb108b978"},
		{"beta", WeightedProblem{N: 64, Classes: []WeightClass{{Weight: 3, Count: 30000}, {Weight: 7, Count: 5000}}}, Config{Seed: 9, Params: Params{Beta: 0.5}}, "21fb652fd0ad7db32a96bec7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunWeighted(c.p, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(); err != nil {
				t.Fatal(err)
			}
			if got := weightedFingerprint(res); got != c.want {
				t.Fatalf("fingerprint %s, want %s (rounds %d, excess %d)", got, c.want, res.Rounds, res.Excess())
			}
		})
	}
}
