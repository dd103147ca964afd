package pba

// Extensions beyond the paper: weighted balls and fault-tolerant
// allocation. Both build on the same threshold mechanism; see the package
// docs of internal/core (weighted) and internal/adversary (faults).

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// WeightClass groups identical balls: Count balls of weight Weight.
type WeightClass = core.WeightClass

// WeightedProblem specifies a weighted instance: minimize the maximum
// total weight per bin.
type WeightedProblem = core.WeightedProblem

// WeightedResult reports a weighted allocation.
type WeightedResult = core.WeightedResult

// AllocateWeighted places weighted balls with the threshold mechanism:
// max weighted load W/n + O(w_max) w.h.p. — the weighted generalization
// of the paper's guarantee (recovered exactly when all weights are 1).
func AllocateWeighted(p WeightedProblem, o Options) (*WeightedResult, error) {
	return core.RunWeighted(p, core.Config{Seed: o.Seed, Workers: o.Workers})
}

// Faults describes an injected failure scenario for AdaptiveThreshold.
type Faults struct {
	// DropProbability loses each ball→bin request independently with this
	// probability (lossy network). Must be in [0, 1).
	DropProbability float64
	// CrashedBins stop accepting from CrashFromRound onward (fail-stop;
	// they keep the load already placed). Each must be a distinct bin in
	// [0, N), and at least one bin must survive.
	CrashedBins    []int
	CrashFromRound int
	// ThrottlePerRound caps every bin's accepts per round (slow bins);
	// 0 means unthrottled. Must not be negative.
	ThrottlePerRound int64
}

// validate reports the first fault that cannot describe a run on n bins.
func (f Faults) validate(n int) error {
	if !(f.DropProbability >= 0 && f.DropProbability < 1) {
		return fmt.Errorf("pba: drop probability %v outside [0, 1)", f.DropProbability)
	}
	if f.ThrottlePerRound < 0 {
		return fmt.Errorf("pba: negative throttle %d per round", f.ThrottlePerRound)
	}
	crashed := make(map[int]bool, len(f.CrashedBins))
	for _, b := range f.CrashedBins {
		if b < 0 || b >= n {
			return fmt.Errorf("pba: crashed bin %d outside [0, %d)", b, n)
		}
		if crashed[b] {
			return fmt.Errorf("pba: crashed bin %d listed twice", b)
		}
		crashed[b] = true
	}
	if len(crashed) == n {
		return fmt.Errorf("pba: all %d bins crashed", n)
	}
	return nil
}

// AdaptiveThreshold allocates with the state-adaptive threshold algorithm
// (every round, bins cap their load at the current average plus slack) under
// the given fault scenario. Unlike Aheavy's precomputed schedule, the
// adaptive policy re-reads the system state each round, so it completes as
// long as surviving capacity covers the balls — the fault-tolerant variant
// of the paper's mechanism. With zero Faults it is a clean (slower,
// Θ(log n)-round) threshold allocator.
//
// Capacity planning under crashes: surviving bins can only absorb the
// crashed bins' share if slack >= (m/n)·(n/survivors − 1) plus headroom;
// with insufficient slack the run exhausts its round budget and returns
// sim's round-limit error with the partial allocation.
func AdaptiveThreshold(p Problem, slack int64, f Faults, o Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if slack < 0 {
		return nil, fmt.Errorf("pba: negative slack %d", slack)
	}
	if err := f.validate(p.N); err != nil {
		return nil, err
	}
	alg := threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Greedy(slack)}
	proto, err := alg.Protocol(p.N)
	if err != nil {
		return nil, err
	}
	if f.DropProbability > 0 {
		proto = adversary.DropRequests(proto, f.DropProbability, o.Seed^0xFA11)
	}
	if len(f.CrashedBins) > 0 {
		proto = adversary.CrashBins(proto, f.CrashedBins, f.CrashFromRound)
	}
	if f.ThrottlePerRound > 0 {
		proto = adversary.Throttle(proto, f.ThrottlePerRound)
	}
	// Round budget: a healthy run needs O(log n) rounds plus the
	// throughput floor under throttling; stalled runs (insufficient slack)
	// should fail fast rather than spin to the engine default.
	budget := 512
	if f.ThrottlePerRound > 0 {
		budget += int(p.M / (int64(p.N) * f.ThrottlePerRound))
	}
	eng := sim.New(p, proto, sim.Config{
		Seed:      o.Seed,
		Workers:   o.Workers,
		Trace:     o.Trace,
		MaxRounds: budget,
	})
	return eng.Run()
}
