package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestProblemValidate(t *testing.T) {
	if err := (Problem{M: 10, N: 2}).Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	if err := (Problem{M: 0, N: 1}).Validate(); err != nil {
		t.Fatalf("zero balls rejected: %v", err)
	}
	if err := (Problem{M: 10, N: 0}).Validate(); err == nil {
		t.Fatal("zero bins accepted")
	}
	if err := (Problem{M: -1, N: 1}).Validate(); err == nil {
		t.Fatal("negative balls accepted")
	}
}

func TestProblemAverages(t *testing.T) {
	p := Problem{M: 10, N: 4}
	if p.AvgLoad() != 2.5 {
		t.Fatalf("AvgLoad = %g", p.AvgLoad())
	}
	if p.CeilAvg() != 3 {
		t.Fatalf("CeilAvg = %d", p.CeilAvg())
	}
	if (Problem{M: 8, N: 4}).CeilAvg() != 2 {
		t.Fatal("CeilAvg exact division wrong")
	}
	if (Problem{M: 0, N: 4}).CeilAvg() != 0 {
		t.Fatal("CeilAvg zero balls wrong")
	}
}

func TestResultLoadsStats(t *testing.T) {
	r := Result{
		Problem: Problem{M: 10, N: 4},
		Loads:   []int64{1, 4, 2, 3},
	}
	if r.MaxLoad() != 4 || r.MinLoad() != 1 {
		t.Fatalf("max/min = %d/%d", r.MaxLoad(), r.MinLoad())
	}
	if r.TotalAllocated() != 10 {
		t.Fatalf("total = %d", r.TotalAllocated())
	}
	if r.Excess() != 4-3 {
		t.Fatalf("excess = %d", r.Excess())
	}
	if err := r.Check(); err != nil {
		t.Fatalf("Check failed: %v", err)
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	base := Problem{M: 6, N: 3}
	cases := map[string]Result{
		"wrong length":  {Problem: base, Loads: []int64{3, 3}},
		"negative load": {Problem: base, Loads: []int64{7, -1, 0}},
		"lost balls":    {Problem: base, Loads: []int64{1, 1, 1}},
		"excess balls":  {Problem: base, Loads: []int64{3, 3, 3}},
	}
	for name, r := range cases {
		if err := r.Check(); err == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
	r := Result{Problem: base, Loads: []int64{1, 1, 1}}
	if err := r.Check(); !errors.Is(err, ErrUnallocated) {
		t.Errorf("lost balls error not ErrUnallocated: %v", err)
	}
}

func TestGini(t *testing.T) {
	perfect := Result{Problem: Problem{M: 12, N: 4}, Loads: []int64{3, 3, 3, 3}}
	if g := perfect.Gini(); math.Abs(g) > 1e-12 {
		t.Fatalf("perfect Gini = %g", g)
	}
	// All mass in one bin of n: Gini = (n-1)/n.
	concentrated := Result{Problem: Problem{M: 100, N: 5}, Loads: []int64{0, 0, 0, 0, 100}}
	if g := concentrated.Gini(); math.Abs(g-0.8) > 1e-12 {
		t.Fatalf("concentrated Gini = %g want 0.8", g)
	}
	empty := Result{Problem: Problem{M: 0, N: 3}, Loads: []int64{0, 0, 0}}
	if empty.Gini() != 0 {
		t.Fatal("empty Gini != 0")
	}
}

func TestGiniOrderInvariant(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%60) + 2
		loads := make([]int64, n)
		var m int64
		for i := range loads {
			loads[i] = int64(r.Intn(50))
			m += loads[i]
		}
		res := Result{Problem: Problem{M: m, N: n}, Loads: loads}
		g1 := res.Gini()
		shuffled := append([]int64(nil), loads...)
		r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		res2 := Result{Problem: Problem{M: m, N: n}, Loads: shuffled}
		return math.Abs(g1-res2.Gini()) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{TotalMessages: 10, BallRequests: 5, BinReplies: 5, MaxBallSent: 2, MaxBinReceived: 3}
	b := Metrics{TotalMessages: 20, BallRequests: 10, BinReplies: 8, CommitMessages: 2, MaxBallSent: 4, MaxBinReceived: 1}
	a.Add(b)
	if a.TotalMessages != 30 || a.BallRequests != 15 || a.BinReplies != 13 || a.CommitMessages != 2 {
		t.Fatalf("Add totals wrong: %+v", a)
	}
	if a.MaxBallSent != 4 || a.MaxBinReceived != 3 {
		t.Fatalf("Add maxima wrong: %+v", a)
	}
}

func TestMetricsAverages(t *testing.T) {
	m := Metrics{BallRequests: 100}
	if m.PerBallAvg(50) != 2 {
		t.Fatal("PerBallAvg wrong")
	}
	if m.PerBallAvg(0) != 0 {
		t.Fatal("PerBallAvg zero balls wrong")
	}
	if m.PerBinAvg(25) != 4 {
		t.Fatal("PerBinAvg wrong")
	}
	if m.PerBinAvg(0) != 0 {
		t.Fatal("PerBinAvg zero bins wrong")
	}
	if m.String() == "" {
		t.Fatal("Metrics.String empty")
	}
}

func TestTheoreticalOneShotExcess(t *testing.T) {
	p := Problem{M: 1 << 20, N: 1 << 10}
	got := TheoreticalOneShotExcess(p)
	want := math.Sqrt(2 * 1024 * math.Log(1024))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("excess prediction %g want %g", got, want)
	}
	// Monotone in m/n.
	p2 := Problem{M: 1 << 22, N: 1 << 10}
	if TheoreticalOneShotExcess(p2) <= got {
		t.Fatal("excess prediction not monotone in m")
	}
}

func TestMinLoadEmpty(t *testing.T) {
	r := Result{}
	if r.MinLoad() != 0 || r.MaxLoad() != 0 {
		t.Fatal("empty result loads nonzero")
	}
}
