// Package pba (parallel balanced allocations) is the public API of this
// reproduction of Lenzen, Parter, Yogev — "Parallel Balanced Allocations:
// The Heavily Loaded Case" (SPAA 2019).
//
// The package allocates m balls (jobs, keys, items) into n bins (servers,
// buckets, machines) using parallel message-passing algorithms, the primary
// one being the paper's symmetric threshold algorithm Aheavy: maximal load
// m/n + O(1) within O(log log(m/n) + log* n) synchronous rounds w.h.p.,
// with O(m) total messages.
//
// # Quick start
//
//	p := pba.Problem{M: 1_000_000, N: 1_000}
//	res, err := pba.Aheavy(p, pba.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(res.MaxLoad(), res.Rounds) // ~1005, ~9
//
// Alternatives: Asymmetric (constant rounds, needs globally known bin IDs),
// OneShot (no communication, excess Θ(sqrt((m/n) log n))), Greedy and
// Batched (sequential / semi-parallel d-choice), FixedThreshold and
// Deterministic (the paper's foils), and Alight (the lightly loaded
// substrate). See DESIGN.md for the full system inventory and EXPERIMENTS.md
// for the measured reproduction of every claim.
package pba

import (
	"repro/internal/asym"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/light"
	"repro/internal/model"
)

// Problem specifies an instance: M balls into N bins.
type Problem = model.Problem

// Result is the outcome of a run: per-bin loads, rounds, message metrics.
type Result = model.Result

// Metrics carries message accounting; see Result.Metrics.
type Metrics = model.Metrics

// AheavyParams exposes the tunables of the threshold algorithm; the zero
// value selects the paper's parameters (slack exponent 2/3, degree 1).
type AheavyParams = core.Params

// Options carries run-level knobs shared by all algorithms.
type Options struct {
	// Seed makes runs reproducible; runs with the same seed and worker
	// count produce identical allocations.
	Seed uint64
	// Workers bounds the parallelism (0 = GOMAXPROCS).
	Workers int
	// Trace records the number of unallocated balls at each round start in
	// Result.TraceRemaining.
	Trace bool
}

// Aheavy allocates with the paper's symmetric threshold algorithm
// (Theorem 1): max load m/n + O(1) in O(log log(m/n) + log* n) rounds
// w.h.p. This entry point treats balls as exchangeable (exact in
// distribution, scales to ~10^12 balls): phase 1 runs on the count-based
// mass engine, and phase 2 throws Alight's first round count-based and
// builds agents only for its survivors. See AheavyAgent for the
// message-level agent simulation.
func Aheavy(p Problem, o Options) (*Result, error) {
	return core.RunFast(p, core.Config{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace})
}

// AheavyWithParams is Aheavy with explicit algorithm parameters (used by
// the ablation experiments; most callers want Aheavy).
func AheavyWithParams(p Problem, o Options, params AheavyParams) (*Result, error) {
	return core.RunFast(p, core.Config{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace, Params: params})
}

// AheavyAgent runs Aheavy on the agent-based synchronous message-passing
// engine: every request, reply, and commit is simulated and counted
// exactly. Slower than Aheavy; prefer it when per-message fidelity matters
// (it also honours AheavyParams.Degree > 1).
func AheavyAgent(p Problem, o Options) (*Result, error) {
	return core.Run(p, core.Config{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace})
}

// Asymmetric allocates with the superbin algorithm of Theorem 3: max load
// m/n + O(1) within a constant number of rounds, using globally known bin
// IDs; each bin receives (1+o(1))m/n + O(log n) messages.
func Asymmetric(p Problem, o Options) (*Result, error) {
	return asym.Run(p, asym.Config{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace})
}

// Alight allocates with the lightly-loaded-case algorithm (Theorem 5,
// Lenzen–Wattenhofer): per-bin load at most 2, about log*(n) + O(1)
// rounds. Requires m <= 2n.
func Alight(p Problem, o Options) (*Result, error) {
	return light.Run(p, light.Config{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace})
}

// OneShot allocates every ball to one uniform bin with no communication:
// one round, excess load Θ(sqrt((m/n)·log n)) for m >= n log n.
func OneShot(p Problem, o Options) (*Result, error) {
	return baseline.OneShot(p, baseline.Config{Seed: o.Seed})
}

// Greedy runs the classic sequential d-choice process (Azar et al.;
// Berenbrink et al. for the heavily loaded case): m sequential steps,
// excess O(log log n) for d >= 2.
func Greedy(p Problem, d int, o Options) (*Result, error) {
	return baseline.Greedy(p, d, baseline.Config{Seed: o.Seed})
}

// Batched runs the semi-parallel d-choice process: balls arrive in batches
// and each batch places against a stale load snapshot.
func Batched(p Problem, d int, batch int64, o Options) (*Result, error) {
	return baseline.Batched(p, d, batch, baseline.Config{Seed: o.Seed, Workers: o.Workers})
}

// FixedThreshold runs the naive parallel threshold algorithm (Section 1.1):
// every bin caps its total load at ceil(m/n) + slack. Completes, but needs
// Ω(log n) rounds — the foil motivating Aheavy's undershooting thresholds.
func FixedThreshold(p Problem, slack int64, o Options) (*Result, error) {
	return baseline.FixedThreshold(p, slack, baseline.Config{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace})
}

// Deterministic runs the trivial n-round algorithm: balls probe all bins
// one by one against threshold ceil(m/n). Deterministically exact balance
// within n rounds; the paper's fallback for n < log log(m/n).
func Deterministic(p Problem, o Options) (*Result, error) {
	return baseline.Deterministic(p, baseline.Config{Seed: o.Seed, Workers: o.Workers})
}
