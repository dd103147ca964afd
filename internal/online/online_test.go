package online

import (
	"testing"

	"repro/internal/model"
)

// playTrace drives one fixed event trace and returns the allocator.
func playTrace(t *testing.T, alg string, workers int) *Allocator {
	t.Helper()
	a, err := New(Config{N: 32, Alg: alg, Seed: 11, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	steps := []struct {
		arrive  int
		release int // departs the first `release` live balls before arriving
	}{
		{400, 0}, {300, 100}, {0, 50}, {500, 200}, {100, 0}, {0, 300},
	}
	for _, s := range steps {
		if s.release > 0 {
			if got := a.Release(live[:s.release]); got != s.release {
				t.Fatalf("released %d of %d", got, s.release)
			}
			live = live[s.release:]
		}
		rep, err := a.Allocate(s.arrive)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rep.IDs()...)
	}
	return a
}

func checkConservation(t *testing.T, a *Allocator) {
	t.Helper()
	st := a.Stats()
	if st.Live != st.Arrived-st.Departed {
		t.Fatalf("live %d != arrived %d - departed %d", st.Live, st.Arrived, st.Departed)
	}
	if st.Placed+st.Pending != st.Live {
		t.Fatalf("placed %d + pending %d != live %d", st.Placed, st.Pending, st.Live)
	}
	var sum int64
	for _, l := range a.Loads() {
		if l < 0 {
			t.Fatalf("negative bin load %d", l)
		}
		sum += l
	}
	if sum != st.Placed {
		t.Fatalf("loads sum %d != placed %d", sum, st.Placed)
	}
}

// TestDeterministicAcrossWorkers is the determinism contract: a fixed
// (seed, event trace) yields a bit-identical allocator state at any worker
// count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, alg := range []string{"aheavy", "adaptive:2", "greedy:2", "oneshot"} {
		var want string
		for _, workers := range []int{1, 4, 8} {
			a := playTrace(t, alg, workers)
			checkConservation(t, a)
			fp := a.Fingerprint()
			if want == "" {
				want = fp
			} else if fp != want {
				t.Errorf("%s: workers=%d fingerprint %s != workers=1 %s", alg, workers, fp, want)
			}
		}
	}
}

// TestChurnKeepsExcessFlat: after heavy departures, the threshold
// protocols must rebalance onto the emptied bins — the excess over
// ceil(live/n) stays O(1) epoch after epoch.
func TestChurnKeepsExcessFlat(t *testing.T) {
	for _, alg := range []string{"aheavy", "adaptive:2"} {
		a, err := New(Config{N: 64, Alg: alg, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var live []int64
		for e := 0; e < 6; e++ {
			if len(live) > 0 {
				k := len(live) / 3
				a.Release(live[:k])
				live = live[k:]
			}
			rep, err := a.Allocate(4000)
			if err != nil {
				t.Fatalf("%s epoch %d: %v", alg, e, err)
			}
			live = append(live, rep.IDs()...)
			if rep.Pending != 0 {
				t.Fatalf("%s epoch %d: %d pending", alg, e, rep.Pending)
			}
			if rep.Excess > 8 {
				t.Errorf("%s epoch %d: excess %d (max %d over ceil %d)",
					alg, e, rep.Excess, rep.MaxLoad, rep.MaxLoad-rep.Excess)
			}
		}
		checkConservation(t, a)
	}
}

func TestReleasePendingAndUnknown(t *testing.T) {
	a, err := New(Config{N: 4, Alg: "greedy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	ids := rep.IDs()
	if got := a.Release([]int64{ids[0], ids[0], 999}); got != 1 {
		t.Fatalf("released %d, want 1 (duplicates and unknown IDs ignored)", got)
	}
	checkConservation(t, a)
	if st := a.Stats(); st.Live != 9 {
		t.Fatalf("live %d, want 9", st.Live)
	}
}

func TestScenarioRunsAndConserves(t *testing.T) {
	for _, alg := range []string{"aheavy", "adaptive:2", "greedy:2", "oneshot"} {
		res, err := Scenario{Balls: 3000, Epochs: 6, ChurnRate: 0.2}.Run(
			Config{N: 32, Alg: alg, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Problem.M >= 3000 {
			t.Fatalf("%s: churn departed nothing (live %d)", alg, res.Problem.M)
		}
		if res.Rounds < 6 {
			t.Fatalf("%s: %d rounds over 6 epochs", alg, res.Rounds)
		}
	}
}

func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	var want *model.Result
	for _, workers := range []int{1, 4, 8} {
		res, err := Scenario{Balls: 2000, Epochs: 5, ChurnRate: 0.25}.Run(
			Config{N: 32, Alg: "aheavy", Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if res.Problem.M != want.Problem.M || res.Rounds != want.Rounds || res.Metrics != want.Metrics {
			t.Fatalf("workers=%d: result header differs: %+v vs %+v", workers, res, want)
		}
		for i := range want.Loads {
			if res.Loads[i] != want.Loads[i] {
				t.Fatalf("workers=%d: bin %d load %d != %d", workers, i, res.Loads[i], want.Loads[i])
			}
		}
	}
}

func TestResolveAlgRoundTrip(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "aheavy"},
		{"aheavy", "aheavy"},
		{"AHEAVY:0.5", "aheavy:0.5"},
		{"aheavy:0", "aheavy"},
		{"aheavy:0.0", "aheavy"},
		{"aheavy:0!mass", "aheavy!mass"},
		{"adaptive", "adaptive:2"},
		{"adaptive:7", "adaptive:7"},
		{"greedy", "greedy:2"},
		{"greedy:3", "greedy:3"},
		{"oneshot", "oneshot"},
	}
	for _, tc := range cases {
		got, err := ResolveAlg(tc.in)
		if err != nil {
			t.Errorf("ResolveAlg(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ResolveAlg(%q) = %q, want %q", tc.in, got, tc.want)
		}
		again, err := ResolveAlg(got)
		if err != nil || again != got {
			t.Errorf("canonical %q does not round-trip: %q, %v", got, again, err)
		}
	}
	for _, bad := range []string{"nope", "aheavy:2", "aheavy:", "adaptive:-1", "greedy:0", "oneshot:1", "greedy:2:3"} {
		if _, err := ResolveAlg(bad); err == nil {
			t.Errorf("ResolveAlg(%q) succeeded, want error", bad)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{N: 0, Alg: "aheavy"}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := New(Config{N: 8, Alg: "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	a, err := New(Config{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Alg() != "aheavy" {
		t.Errorf("default alg %q, want aheavy", a.Alg())
	}
	if _, err := a.Allocate(-1); err == nil {
		t.Error("negative arrival count accepted")
	}
}

// FuzzAllocatorChurn interprets fuzz bytes as an arrival/departure event
// trace and checks the conservation invariants after every step: no ball
// lost, none double-placed, no bin driven negative. It also checks replay
// against the live path: arm picks the step before which SnapshotAndLog
// arms (len(ops) arms after the last one), and after the trace the cut log
// applied to the restored snapshot must land on the live allocator's
// chain, fingerprint and stats.
func FuzzAllocatorChurn(f *testing.F) {
	f.Add(uint64(1), uint8(7), []byte{10, 3, 200, 5, 0, 255, 9}, uint8(0))
	f.Add(uint64(42), uint8(2), []byte{1, 1, 1, 1}, uint8(3))
	f.Add(uint64(9), uint8(31), []byte{250, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(8))
	f.Add(uint64(5), uint8(12), []byte{120, 7, 0, 99, 251, 60}, uint8(6))
	algs := []string{"greedy:2", "oneshot", "adaptive:1"}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, ops []byte, armRaw uint8) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		n := int(nRaw%16) + 1
		a, err := New(Config{N: n, Alg: algs[int(seed%uint64(len(algs)))], Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		arm := int(armRaw) % (len(ops) + 1)
		var snap *Snapshot
		var live []int64
		for i, op := range ops {
			if i == arm {
				if snap, err = a.SnapshotAndLog(); err != nil {
					t.Fatal(err)
				}
			}
			if op%4 == 3 && len(live) > 0 { // depart a prefix
				k := int(op>>2)%len(live) + 1
				if k > len(live) {
					k = len(live)
				}
				a.Release(live[:k])
				live = live[k:]
			} else { // admit a batch (possibly empty)
				rep, err := a.Allocate(int(op >> 2))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, rep.IDs()...)
			}
			st := a.Stats()
			if st.Live != st.Arrived-st.Departed || st.Placed+st.Pending != st.Live {
				t.Fatalf("conservation broken: %+v", st)
			}
			var sum int64
			for _, l := range a.Loads() {
				if l < 0 {
					t.Fatalf("negative load: %+v", st)
				}
				sum += l
			}
			if sum != st.Placed {
				t.Fatalf("loads sum %d != placed %d", sum, st.Placed)
			}
		}
		if snap == nil {
			if snap, err = a.SnapshotAndLog(); err != nil {
				t.Fatal(err)
			}
		}
		log, chainHex, err := a.CutDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Restore(Config{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyDeltaLog(log); err != nil {
			t.Fatalf("replaying the cut log: %v", err)
		}
		if got := b.ChainFingerprint(); got != chainHex || got != a.ChainFingerprint() {
			t.Fatalf("replayed chain %s, cut at %s", got, chainHex)
		}
		if got, want := b.Fingerprint(), a.Fingerprint(); got != want {
			t.Fatalf("replayed fingerprint %s != live %s", got, want)
		}
		if got, want := b.Stats(), a.Stats(); got != want {
			t.Fatalf("replayed stats diverge:\n live   %+v\n replay %+v", want, got)
		}
	})
}
