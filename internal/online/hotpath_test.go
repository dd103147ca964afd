package online

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// releaseAll expands rep's fresh grants into buf and releases them,
// allocation-free (Report.IDs would allocate a fresh slice per epoch).
func releaseAll(a *Allocator, rep *Report, buf []int64) []int64 {
	buf = buf[:0]
	for i := 0; i < rep.Admitted; i++ {
		buf = append(buf, rep.IDBase+int64(i))
	}
	a.Release(buf)
	return buf
}

// TestSteadyStateChurnAllocs pins the hot-path refactor: once the epoch
// scratch is warm, a steady-state Allocate+Release cycle performs only the
// per-epoch report allocations (the Report and its Placements slice, which
// escape to the caller by contract) — no engine, runner, table, or
// histogram allocations, independent of batch size. The "instrumented"
// variants re-assert the same bounds with the obs instrumentation wired
// in: metric recording is atomic-only and must not add a single
// allocation to the epoch hot path.
func TestSteadyStateChurnAllocs(t *testing.T) {
	for _, alg := range []string{"aheavy", "aheavy!mass", "adaptive:2", "greedy:2", "oneshot", "oneshot!mass"} {
		for _, instrumented := range []bool{false, true} {
			alg, instrumented := alg, instrumented
			name := alg
			if instrumented {
				name += "/instrumented"
			}
			t.Run(name, func(t *testing.T) {
				measure := func(batch int) float64 {
					var ins *Instrumentation
					if instrumented {
						ins = NewInstrumentation(obs.NewRegistry(), obs.L("cell", "0"))
					}
					a, err := New(Config{N: 256, Alg: alg, Seed: 1, Workers: 1, Ins: ins})
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]int64, 0, batch)
					var failed error
					cycle := func() {
						rep, err := a.Allocate(batch)
						if err != nil {
							failed = err
							return
						}
						buf = releaseAll(a, rep, buf)
					}
					for i := 0; i < 20; i++ { // warm the scratch to its high-water mark
						cycle()
					}
					allocs := testing.AllocsPerRun(50, cycle)
					if failed != nil {
						t.Fatal(failed)
					}
					return allocs
				}
				small := measure(64)
				large := measure(512)
				// "~0" above the reporting contract: a handful of fixed-size
				// allocations per epoch, none proportional to the batch.
				if small > 10 {
					t.Errorf("steady-state epoch allocates %.1f times (batch 64); want ~0 beyond the report", small)
				}
				if large > small+4 {
					t.Errorf("allocations scale with batch size: %.1f at batch 64 vs %.1f at batch 512", small, large)
				}
				t.Logf("%s: %.1f allocs/epoch (batch 64), %.1f (batch 512)", name, small, large)
			})
		}
	}
}

// TestVerifyFingerprintOnRandomizedChurn is the old-vs-new fingerprint
// equality proof: over randomized churn traces, the paged-table fast path
// must hash byte-identically to the historical sorted recomputation, and
// every incremental structure (load histogram, placed counts, pending
// markers) must agree with a full audit.
func TestVerifyFingerprintOnRandomizedChurn(t *testing.T) {
	for _, alg := range []string{"aheavy", "aheavy!mass", "greedy:2", "adaptive:1"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			a, err := New(Config{N: 48, Alg: alg, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(123)
			var live []int64
			for step := 0; step < 60; step++ {
				if len(live) > 0 && r.Bernoulli(0.4) {
					k := 1 + r.Intn(len(live))
					// Random victims, shuffled to the front.
					for j := 0; j < k; j++ {
						x := j + r.Intn(len(live)-j)
						live[j], live[x] = live[x], live[j]
					}
					a.Release(live[:k])
					live = live[k:]
				} else {
					rep, err := a.Allocate(r.Intn(400))
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, rep.IDs()...)
				}
				if step%7 == 0 {
					if _, err := a.VerifyFingerprint(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			want, err := a.VerifyFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Fingerprint(); got != want {
				t.Fatalf("fast fingerprint %s != verified slow path %s", got, want)
			}
		})
	}
}

// TestChainFingerprintDeterministic extends the determinism contract to
// the incremental chain: same (seed, event trace) ⇒ same chain at any
// worker count; different traces ⇒ different chains.
func TestChainFingerprintDeterministic(t *testing.T) {
	for _, alg := range []string{"aheavy", "adaptive:2"} {
		var want string
		for _, workers := range []int{1, 4, 8} {
			a := playTrace(t, alg, workers)
			chain := a.ChainFingerprint()
			if st := a.StatsLite(); st.Chain != chain {
				t.Fatalf("%s: StatsLite chain %s != ChainFingerprint %s", alg, st.Chain, chain)
			}
			if want == "" {
				want = chain
			} else if chain != want {
				t.Errorf("%s: workers=%d chain %s != workers=1 %s", alg, workers, chain, want)
			}
		}
		// A diverging trace must diverge the chain.
		a, err := New(Config{N: 32, Alg: alg, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Allocate(400); err != nil {
			t.Fatal(err)
		}
		if a.ChainFingerprint() == want {
			t.Errorf("%s: different traces share a chain", alg)
		}
	}
}

// TestChainSurvivesSnapshot: the chain folds event history, so restore
// must resume it exactly — an interrupted-and-restored stream ends with
// the same chain as an uninterrupted one.
func TestChainSurvivesSnapshot(t *testing.T) {
	cfg := Config{N: 24, Alg: "aheavy", Seed: 13}
	drive := func(a *Allocator, epochs int) {
		var buf []int64
		for i := 0; i < epochs; i++ {
			rep, err := a.Allocate(100)
			if err != nil {
				t.Fatal(err)
			}
			buf = releaseAll(a, rep, buf[:0])
		}
	}
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(full, 6)
	want := full.ChainFingerprint()

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(first, 3)
	restored, err := first.Snapshot().Restore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.ChainFingerprint() != first.ChainFingerprint() {
		t.Fatal("restore changed the chain")
	}
	drive(restored, 3)
	if got := restored.ChainFingerprint(); got != want {
		t.Fatalf("restored chain %s != uninterrupted %s", got, want)
	}
}

// TestStatsLiteMatchesStats: the O(1) snapshot must agree with the full
// one on every field except the (deliberately omitted) fingerprint.
func TestStatsLiteMatchesStats(t *testing.T) {
	a := playTrace(t, "aheavy", 1)
	lite := a.StatsLite()
	if lite.Fingerprint != "" {
		t.Fatalf("StatsLite computed a fingerprint: %s", lite.Fingerprint)
	}
	full := a.Stats()
	if full.Fingerprint == "" {
		t.Fatal("Stats omitted the fingerprint")
	}
	full.Fingerprint = ""
	if lite != full {
		t.Fatalf("StatsLite diverges from Stats:\n lite %+v\n full %+v", lite, full)
	}
}

// benchChurn is the steady-state churn shape: one epoch admits batch balls
// into n bins and departs them again — live returns to zero between ops,
// so every op pays the full epoch machinery (the regime ServeSmallBatch
// measures through the service stack).
func benchChurn(b *testing.B, alg string, n, batch int) {
	a, err := New(Config{N: n, Alg: alg, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int64, 0, batch)
	for i := 0; i < 10; i++ { // warm the scratch
		rep, err := a.Allocate(batch)
		if err != nil {
			b.Fatal(err)
		}
		buf = releaseAll(a, rep, buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.Allocate(batch)
		if err != nil {
			b.Fatal(err)
		}
		buf = releaseAll(a, rep, buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "epochs/s")
	b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "balls/s")
	if st := a.StatsLite(); st.Live != 0 {
		b.Fatalf("bench left %d balls live", st.Live)
	}
}

// BenchmarkChurnSteadyState measures the allocator's epoch throughput for
// the serving batch shape (512 balls into 1024 bins) across the inner
// algorithms. Recorded in BENCH_pr5.json.
func BenchmarkChurnSteadyState(b *testing.B) {
	for _, alg := range []string{"aheavy", "aheavy!mass", "adaptive:2", "greedy:2"} {
		b.Run(alg, func(b *testing.B) { benchChurn(b, alg, 1024, 512) })
	}
}

// BenchmarkChurnSmallEpoch is the small-batch regime (64 balls into 1024
// bins) where per-epoch fixed costs dominate — the direct single-cell
// analogue of ServeSmallBatch/seed.
func BenchmarkChurnSmallEpoch(b *testing.B) {
	benchChurn(b, "aheavy", 1024, 64)
}

// TestStandingRandomFootprint gates the ID table's sparse form in
// BenchmarkChurnStandingLive's release=random shape: a standing population
// of 64k balls, each epoch departing a seeded uniform pick of 512 and
// admitting 512 fresh ones, warmed well past page turnover. A dense-only
// table keeps every page with any live ball at 64 KiB and reads about 54
// bytes of allocator state per live ball here; sparse drained pages bring
// it to about 23.
func TestStandingRandomFootprint(t *testing.T) {
	const standing, batch, maxBytesPerBall = 1 << 16, 512, 30
	a, err := New(Config{N: 256, Alg: "oneshot", Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Allocate(standing)
	if err != nil {
		t.Fatal(err)
	}
	live := rep.AppendIDs(nil)
	buf := make([]int64, 0, batch)
	r := rng.New(1)
	// A page's last ball departs after about 128·ln 2^14 ≈ 1250 epochs.
	for e := 0; e < 3000; e++ {
		buf = buf[:0]
		for i := 0; i < batch; i++ {
			x := r.Intn(len(live))
			buf = append(buf, live[x])
			live[x] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		a.Release(buf)
		if rep, err = a.Allocate(batch); err != nil {
			t.Fatal(err)
		}
		live = rep.AppendIDs(live)
	}
	perBall := float64(a.Footprint()) / standing
	t.Logf("%.1f state-B/ball", perBall)
	if perBall > maxBytesPerBall {
		t.Fatalf("%.1f bytes of allocator state per live ball, want at most %d: drained ID pages are not going sparse",
			perBall, maxBytesPerBall)
	}
}

// BenchmarkChurnStandingLive holds a standing population of 64k live
// balls in 1024 bins and churns 512 per epoch. Reports bytes of live
// allocator state per live ball alongside throughput; methodology in
// EXPERIMENTS.md. release=fifo departs the oldest balls, the one pattern
// that retires whole ID pages. release=random departs a seeded uniform
// pick of the live balls, the way serve-heavy's clients do: a page then
// drains slowly, staying dense until an eighth of it is live and sparse
// after that, until its last ball departs.
func BenchmarkChurnStandingLive(b *testing.B) {
	const n, standing, batch = 1024, 65536, 512
	for _, order := range []string{"fifo", "random"} {
		b.Run("release="+order, func(b *testing.B) {
			a, err := New(Config{N: n, Alg: "aheavy", Seed: 1, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]int64, 0, batch)
			var live []int64 // release=random: every live ID, unordered
			fill := func(k int) {
				rep, err := a.Allocate(k)
				if err != nil {
					b.Fatal(err)
				}
				if order == "random" {
					live = rep.AppendIDs(live)
				}
			}
			oldest := int64(0)
			r := rng.New(1)
			release := func() {
				buf = buf[:0]
				if order == "fifo" {
					for i := int64(0); i < batch; i++ {
						buf = append(buf, oldest+i)
					}
					oldest += batch
				} else {
					for i := 0; i < batch; i++ {
						x := r.Intn(len(live))
						buf = append(buf, live[x])
						live[x] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				a.Release(buf)
			}
			fill(standing)
			// Random release frees a 2^14-ID page only once its last ball
			// goes, after about 128·ln 2^14 ≈ 1250 epochs; warm well past
			// that so the page residency is steady.
			warm := 10
			if order == "random" {
				warm = 5000
			}
			for i := 0; i < warm; i++ {
				release()
				fill(batch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				release()
				fill(batch)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "epochs/s")
			st := a.StatsLite()
			if st.Live != standing {
				b.Fatalf("standing population drifted to %d", st.Live)
			}
			b.ReportMetric(float64(a.Footprint())/float64(st.Live), "state-B/ball")
		})
	}
}

// BenchmarkStats contrasts the O(live) full-state snapshot with the O(1)
// lite path at a large live population.
func BenchmarkStats(b *testing.B) {
	a, err := New(Config{N: 1024, Alg: "aheavy", Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a.Allocate(1 << 18); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"full", "lite"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "full" {
					_ = a.Stats()
				} else {
					_ = a.StatsLite()
				}
			}
		})
	}
}
