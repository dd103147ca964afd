package sim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/rng"
)

// MassProtocol is the count-based counterpart of Protocol: a degree-1
// uniform-request algorithm described purely by per-round bin capacities.
// Balls are exchangeable, so a round's evolution depends only on the
// multinomial split of the remaining balls over the bins — the mass engine
// samples that split exactly (internal/rng's conditional-binomial chain)
// and never materializes an agent, lifting the ball limit to MassMaxBalls.
//
// Degree-1 threshold protocols typically implement both Protocol and
// MassProtocol on the same type, and their caller picks the engine per run
// (Engine.Run never routes to RunMass).
type MassProtocol interface {
	// MassCapacities writes each bin's acceptance capacity for round into
	// caps, given the per-bin loads at the round start and the number of
	// unallocated balls. Values <= 0 mean the bin rejects all requests.
	// loads is read-only; caps is fully overwritten by the callee.
	MassCapacities(round int, loads []int64, remaining int64, caps []int64)

	// MassDone reports whether the algorithm stops before executing round.
	// The engine always stops when no balls remain.
	MassDone(round int, remaining int64) bool
}

// MassMaxBalls is the ball-count ceiling of the mass engine (~10^12).
// Beyond it, int64 message totals (2m per round and counting) approach
// overflow territory and float64 binomial parameters lose integer
// precision, so the limit is enforced rather than discovered.
const MassMaxBalls = int64(1) << 40

// RunMass executes a MassProtocol to completion on the count-based mass
// engine. Results are bit-identical for a fixed seed at any worker count
// (the sampling stream does not depend on Workers at all, which also makes
// it reproduce the historical single-worker count-based Aheavy path). If
// MaxRounds elapse with balls unallocated, the partial result is returned
// along with ErrRoundLimit; a MassDone stop with balls remaining is a
// valid partial result.
func RunMass(p model.Problem, proto MassProtocol, cfg Config) (*model.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if p.M > MassMaxBalls {
		return nil, fmt.Errorf("sim: mass engine supports at most %d balls, got %d", MassMaxBalls, p.M)
	}
	if cfg.RecordPlacements {
		return nil, fmt.Errorf("sim: mass engine treats balls as exchangeable and cannot record placements; use the agent engine")
	}
	if cfg.InitState != nil {
		return nil, fmt.Errorf("sim: mass engine has no per-ball state; InitState requires the agent engine")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	n := p.N
	arena, res := runStorage(cfg.Arena)

	// The sampling stream is the first split of the master stream the
	// historical count-based path derived its worker streams from, so a
	// fixed seed reproduces those results exactly — now at every worker
	// count, not only one. SplitInto is Split into the arena's storage.
	var parent rng.Rand
	parent.Seed(rng.Mix64(cfg.Seed ^ 0xA5A5A5A5A5A5A5A5))
	parent.SplitInto(&arena.sampler)
	sampler := &arena.sampler
	arena.massLoads = growZero(arena.massLoads, n)
	arena.massReceived = growZero(arena.massReceived, n)
	arena.massCounts = growZero(arena.massCounts, n)
	arena.massCaps = growZero(arena.massCaps, n)
	loads, received, counts, caps := arena.massLoads, arena.massReceived, arena.massCounts, arena.massCaps
	var metrics model.Metrics
	var trace []int64
	if cfg.Trace {
		trace = arena.massTrace[:0]
	}

	remaining := p.M
	round := 0
	hitLimit := true
	for ; round < cfg.MaxRounds; round++ {
		if remaining == 0 || proto.MassDone(round, remaining) {
			hitLimit = false
			break
		}
		if cfg.Trace {
			trace = append(trace, remaining)
		}

		// Step 1: the remaining balls' uniform choices, as exact counts.
		sampler.Multinomial(remaining, counts)
		metrics.BallRequests += remaining
		metrics.BinReplies += remaining
		metrics.TotalMessages += 2 * remaining

		// Steps 2–3: bins accept up to capacity; accepted balls commit.
		proto.MassCapacities(round, loads, remaining, caps)
		var allocated int64
		for b := 0; b < n; b++ {
			c := counts[b]
			received[b] += c
			free := caps[b]
			if free <= 0 || c == 0 {
				continue
			}
			take := c
			if take > free {
				take = free
			}
			loads[b] += take
			allocated += take
		}
		metrics.CommitMessages += allocated
		metrics.TotalMessages += allocated
		remaining -= allocated
	}

	for _, v := range received {
		if v > metrics.MaxBinReceived {
			metrics.MaxBinReceived = v
		}
	}
	// Exchangeability: every ball still unallocated after the last round
	// sent exactly `round` requests; an allocated ball sent at most that.
	metrics.MaxBallSent = int64(round)

	if cfg.Trace {
		arena.massTrace = trace
	}
	*res = model.Result{
		Problem:        p,
		Loads:          loads,
		Rounds:         round,
		Metrics:        metrics,
		Unallocated:    remaining,
		TraceRemaining: trace,
	}
	if hitLimit && remaining > 0 {
		return res, ErrRoundLimit
	}
	return res, nil
}
