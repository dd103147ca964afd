package sim

import (
	"repro/internal/model"
	"repro/internal/rng"
)

// Arena is a reusable pool of one engine execution's run state: the ball
// array, per-bin and per-ball vectors, the worker scratch (scratch.go),
// and the Result header itself. PR 3 made a *single run's* round loop
// allocation-free; the arena extends that to *repeated runs* — the regime
// of the online/churn layer, which executes one small engine run per
// epoch, forever. A serving epoch over a warm arena performs no heap
// allocations in the engine at all.
//
// Contract: an arena serves one run at a time (never share one arena
// between concurrent engines), and the Result a run returns — including
// Loads, Placements, and TraceRemaining — is valid only until the same
// arena's next run. Callers that retain results must copy what they keep.
// Both the agent engine (Engine.Run) and the mass engine (RunMass) draw
// from the same Arena type; they use disjoint buffer sets, so one arena
// may serve either mode run-by-run. A run without an arena draws from a
// private one (runStorage).
type Arena struct {
	eng Engine // New's engine storage
	run agentRun
	res model.Result

	// agent-mode buffers beside those run owns (balls, active, stay,
	// ballSent)
	loads       []int64
	binReceived []int32
	placements  []int32
	trace       []int64
	held        []request

	// mass-mode buffers
	massLoads    []int64
	massReceived []int64
	massCounts   []int64
	massCaps     []int64
	massTrace    []int64
	sampler      rng.Rand
}

// runStorage returns the arena a run draws its buffers from and the Result
// it fills: a itself and a's Result header, or, for a run without an
// arena, a private arena and a Result allocated apart from it, so that a
// held Result keeps alive only its Loads, Placements and TraceRemaining.
func runStorage(a *Arena) (*Arena, *model.Result) {
	if a != nil {
		return a, &a.res
	}
	return new(Arena), new(model.Result)
}

// ResultBuffers hands out a Result for degenerate runs that bypass the
// engine entirely (e.g. Aheavy with an empty threshold schedule, where
// every ball goes straight to phase 2): Loads is zeroed to length N and,
// when requested, Placements is filled with -1 for all M balls. A nil
// arena follows the engines' rule (runStorage); otherwise the same
// validity contract as engine runs applies.
func (a *Arena) ResultBuffers(p model.Problem, recordPlacements bool) *model.Result {
	a, res := runStorage(a)
	a.loads = growZero(a.loads, p.N)
	*res = model.Result{Problem: p, Loads: a.loads, Unallocated: p.M}
	if recordPlacements {
		a.placements = grow(a.placements, int(p.M))
		for i := range a.placements {
			a.placements[i] = -1
		}
		res.Placements = a.placements
	}
	return res
}

// GrowInt64 returns buf resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified (callers overwrite
// them). Shared by the scratch plumbing in core and threshold so the
// grow-to-fit idiom has one spelling.
func GrowInt64(buf []int64, n int) []int64 { return grow(buf, n) }

// grow returns buf resized to n entries, reallocating (to exactly n) only
// when the capacity is insufficient. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growZero is grow with all n entries zeroed. A fresh slice comes zeroed
// from make, so only a reused one is cleared.
func growZero[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// join concatenates head and parts into dst's storage, growing it at most
// once, to exactly their summed length.
func join[T any](dst, head []T, parts [][]T) []T {
	total := len(head)
	for _, p := range parts {
		total += len(p)
	}
	dst = append(grow(dst, total)[:0], head...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// flatten returns parts as one slice: the only part itself, or all of them
// joined into *buf's storage.
func flatten[T any](buf *[]T, parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	*buf = join(*buf, nil, parts)
	return *buf
}
