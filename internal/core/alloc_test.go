package core

import (
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestRunFreshMemoryPerBall fences a fresh Run's heap traffic. The agent
// engine throws round 0 before it stores a ball, sizes every round buffer
// once, for its whole input, reads the worker shards in place, and commits
// each request of a large degree-1 round at its gather position. So a run
// allocates round 0's gather shard (8 B per ball) and the stay marks (1 B),
// and stores only the survivors of round 0, a sixteenth of the balls at
// m/n = 4096, at about 57 B each: about 12.6 B per ball at any worker
// count. Storing every ball up front (about 69 B), buffers that grow by
// doubling, a concatenation of the request shards, a by-bin copy of round
// 0's ball indices (4 B per ball), or a buffer of accept records in
// degree-1 rounds push it past the bound; per-worker copies push workers 2
// and 4 past 1.01x the bytes of workers 1.
func TestRunFreshMemoryPerBall(t *testing.T) {
	const maxBytesPerBall = 16
	const maxWorkerGrowth = 1.01
	p := model.Problem{M: 1 << 20, N: 256}
	var oneWorker float64
	for _, w := range []int{1, 2, 4} {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := Run(p, Config{Seed: 1, Workers: w})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Unallocated != 0 {
			t.Fatalf("workers=%d: %d balls unallocated", w, res.Unallocated)
		}
		perBall := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(p.M)
		t.Logf("workers=%d: %.1f B/ball", w, perBall)
		if perBall > maxBytesPerBall {
			t.Errorf("workers=%d: fresh Run allocated %.1f B/ball, want at most %d", w, perBall, maxBytesPerBall)
		}
		if w == 1 {
			oneWorker = perBall
		} else if perBall > maxWorkerGrowth*oneWorker {
			t.Errorf("workers=%d: fresh Run allocated %.1f B/ball, want at most %.2fx the %.1f of workers=1",
				w, perBall, maxWorkerGrowth, oneWorker)
		}
	}
}

// TestRunFastMemoryPerBin fences a fresh RunFast's heap traffic per real
// bin. Phase 1's mass engine holds four int64 vectors over the n bins, and
// phase 2 (light.RunMass) a byte per virtual bin plus an agent-engine run
// over round 0's survivors only, with a 4-byte request counter per virtual
// bin: about 112 B per bin at g = 4 virtual bins per bin. Building agents
// for every phase-2 ball (about 290 B per bin) or 8-byte request counters
// (about 128 B) fail the bound; per-worker copies push workers 2 past
// 1.01x the bytes of workers 1.
func TestRunFastMemoryPerBin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates allocations")
	}
	const maxBytesPerBin = 120
	const maxWorkerGrowth = 1.01
	p := model.Problem{M: 10_000_000_000, N: 100_000}
	var oneWorker float64
	for _, w := range []int{1, 2} {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := RunFast(p, Config{Seed: 1, Workers: w})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Unallocated != 0 {
			t.Fatalf("workers=%d: %d balls unallocated", w, res.Unallocated)
		}
		perBin := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(p.N)
		t.Logf("workers=%d: %.1f B/bin", w, perBin)
		if perBin > maxBytesPerBin {
			t.Errorf("workers=%d: fresh RunFast allocated %.1f B/bin, want at most %d", w, perBin, maxBytesPerBin)
		}
		if w == 1 {
			oneWorker = perBin
		} else if perBin > maxWorkerGrowth*oneWorker {
			t.Errorf("workers=%d: fresh RunFast allocated %.1f B/bin, want at most %.2fx the %.1f of workers=1",
				w, perBin, maxWorkerGrowth, oneWorker)
		}
	}
}

// TestResultRetainsOnlyItsSlices: a Result made without a Scratch keeps
// alive its own Loads, Placements and TraceRemaining and nothing of the
// run that made it — not the agent engine's balls and worker scratch, nor
// the mass engine's count vectors. A Result drawn from the agent run's
// own arena keeps about 19 MB alive here for its 8 KB of loads.
func TestResultRetainsOnlyItsSlices(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates allocations")
	}
	const slack = 8 << 10
	for _, c := range []struct {
		name string
		run  func(model.Problem, Config) (*model.Result, error)
		p    model.Problem
	}{
		{"Run", Run, model.Problem{M: 1 << 20, N: 1 << 10}},
		{"RunFast", RunFast, model.Problem{M: 10_000_000_000, N: 100_000}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := c.run(c.p, Config{Seed: 1, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		own := 8*cap(res.Loads) + 4*cap(res.Placements) + 8*cap(res.TraceRemaining)
		retained := int(after.HeapAlloc) - int(before.HeapAlloc)
		t.Logf("%s: %d bytes retained, %d of them the Result's own slices", c.name, retained, own)
		if retained > own+slack {
			t.Errorf("%s: a held Result keeps %d bytes alive, want at most its own %d plus %d",
				c.name, retained, own, slack)
		}
		runtime.KeepAlive(res)
	}
}
