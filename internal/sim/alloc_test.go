package sim

import (
	"testing"

	"repro/internal/model"
)

// quotaProto drip-feeds capacity so a run takes a predictable number of
// rounds: every bin's cumulative cap grows by quota per round.
func quotaProto(quota int64) *uniformProto {
	return &uniformProto{threshold: func(round int) int64 { return quota * int64(round+1) }}
}

// runRounds executes a run sized to take ~rounds rounds and returns the
// result.
func runRounds(tb testing.TB, n int, quota int64, rounds, workers int) *model.Result {
	tb.Helper()
	p := model.Problem{M: int64(n) * quota * int64(rounds), N: n}
	res, err := New(p, quotaProto(quota), Config{Seed: 1, Workers: workers}).Run()
	if err != nil {
		tb.Fatal(err)
	}
	if err := res.Check(); err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestAgentEngineSteadyStateAllocs pins the arena refactor: once the
// scratch buffers reach their high-water mark (first round), additional
// rounds allocate nothing — the engine's total allocation count is a
// constant independent of the round count. Steps smaller than forkMin run
// inline, so this holds at any worker count; larger steps fork workers
// and allocate their goroutine spawns, nothing that scales with the step.
func TestAgentEngineSteadyStateAllocs(t *testing.T) {
	perRound := func(n int, quota int64, workers int) float64 {
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(3, func() { runRounds(t, n, quota, rounds, workers) })
		}
		short := measure(8)
		long := measure(72)
		t.Logf("n=%d workers=%d: short run %.0f allocs, long run %.0f", n, workers, short, long)
		return (long - short) / 64
	}
	// At one worker every step runs inline; 16·3·72 balls keep every round
	// below forkMin at any worker count. The 64 extra rounds may differ by
	// one stray runtime allocation, never by one per round.
	for _, c := range []struct {
		n       int
		quota   int64
		workers int
	}{{256, 4, 1}, {16, 3, 1}, {16, 3, 4}} {
		if got := perRound(c.n, c.quota, c.workers); got > 1.0/64 {
			t.Errorf("n=%d workers=%d: %.3f allocations per round; want 0", c.n, c.workers, got)
		}
	}
	// 256·4·72 balls: most rounds fork, which the race detector then
	// covers. Each forked step spawns workers-1 goroutines; the bound
	// allows three allocations per spawn of two steps. A round that
	// commits in place forks three steps (gather, bin pass, request
	// pass), at one allocation per spawn plus one per step: 12 per round
	// at 4 workers.
	const w = 4
	if got, spawns := perRound(256, 4, w), 2*(w-1); got > 3*float64(spawns) {
		t.Errorf("workers=%d, forked rounds: %.2f allocations per round for %d goroutine spawns", w, got, spawns)
	}
}

// BenchmarkAgentEngineSteadyState reports the agent engine's per-round
// allocation behaviour (the first rounds grow the arena; everything after
// reuses it). Recorded in BENCH_pr3.json.
func BenchmarkAgentEngineSteadyState(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runRounds(b, 256, 4, 64, 1)
	}
}

// BenchmarkAgentEngineParallel is the multi-worker variant. Its rounds
// above forkMin balls fork workers, and their goroutine spawns are its
// only per-round allocations; the last few rounds run inline and
// allocate nothing.
func BenchmarkAgentEngineParallel(b *testing.B) {
	b.ReportAllocs()
	p := model.Problem{M: 256 * 4 * 64, N: 256}
	for i := 0; i < b.N; i++ {
		res, err := New(p, quotaProto(4), Config{Seed: 1, Workers: 4}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Unallocated != 0 {
			b.Fatal("incomplete")
		}
	}
}
