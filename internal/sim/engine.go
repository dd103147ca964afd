// Package sim implements the paper's computation model: a synchronous
// message-passing system in which m balls and n bins interact in rounds.
// Each round consists of three steps (Section 3 of the paper):
//
//  1. balls perform local computation and send requests to bins;
//  2. bins receive the requests, decide which to accept, and reply;
//  3. balls receive replies and may commit to a bin (and terminate).
//
// The package is a two-mode simulation substrate:
//
//   - Agent mode (Engine.Run, agent.go): every ball is an explicit agent
//     with its own randomness stream, seeded when the ball is
//     initialized, so per-ball and per-bin message statistics are
//     measured rather than estimated and arbitrary protocols
//     (multi-target, payloads, per-ball state) are expressible. A run of
//     at least forkMin balls without InitState stores a ball only once it
//     survives round 0: round 0's gather workers build each ball in a
//     Ball of their own, and each survivor is then stored by replaying
//     its seed and its round-0 Targets call. Rounds draw every buffer from
//     reusable scratch arenas (scratch.go), sized once per round, and read
//     the per-worker shards in place. Steps of at least forkMin balls or
//     requests (ball initialization and storage included) run in parallel
//     over per-worker shards; smaller steps run on the engine's goroutine,
//     so small rounds allocate nothing. A round in which each ball sent at
//     most one request commits inside step 2, since a ball's one accept
//     comes from the bin it contacted. In a large such round a request's
//     fate depends only on its rank among its bin's requests, so nothing
//     is copied by bin: each gather worker counts its requests by bin, a
//     bin pass turns the counts into each gather shard's first rank in
//     every bin and answers every bin, and each gather worker then commits
//     its accepted requests, and keeps its rejected balls, at their gather
//     positions. Smaller such rounds, and TieRandom ones, counting-sort
//     their requests by bin, and the worker that answers a bin commits
//     what it accepts. Choose runs only for a ball with several accepts.
//     Other rounds commit by ball on the engine's goroutine. Active-set
//     marks live in the arena, never in the Ball. Capped at 2^31-2 balls.
//
//   - Mass mode (RunMass, mass.go): balls are exchangeable counts. A
//     round evolves a per-bin ball-count vector via exact multinomial
//     request splitting (internal/rng's conditional-binomial chain), so
//     cost per round is O(n) independent of the ball count and the limit
//     rises to ~10^12 balls. Protocols are expressed as MassProtocol —
//     per-round capacity vectors. The caller picks the engine: Engine.Run
//     never hands a run to mass mode, and refuses one above MaxAgentBalls.
//
// Both modes are deterministic for a fixed seed at any worker count, and
// both keep one per-round record, Result.TraceRemaining (Config.Trace).
// Both follow one buffer rule: a run draws its buffers from Config.Arena,
// or, without one, from a private arena, and then allocates its Result
// apart from that arena, so a held Result keeps alive only its Loads,
// Placements and TraceRemaining.
// The agent engine's rules are stated once, in a serial reference engine
// (reference_test.go) that the tests compare it with.
//
// Algorithms are expressed as implementations of the Protocol (and
// optionally MassProtocol) interfaces; the packages core (Aheavy), light
// (Alight), asym (superbin algorithm), baseline, and threshold all
// provide protocols executed by this substrate.
package sim

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/model"
)

// Config controls an engine run.
type Config struct {
	Seed      uint64
	Workers   int // 0 means GOMAXPROCS
	MaxRounds int // safety bound; 0 means DefaultMaxRounds
	// Trace keeps the run's per-round record, Result.TraceRemaining: the
	// unallocated balls at the start of each executed round, hold rounds
	// included. The drop from one entry to the next, or from the last to
	// Result.Unallocated, is that round's commits.
	Trace    bool
	TieBreak TieBreak
	// RecordPlacements records every ball's final bin in Result.Placements
	// (-1 for balls left unallocated). Costs one int32 per ball. Agent mode
	// only: mass mode treats balls as exchangeable.
	RecordPlacements bool
	// InitState, if non-nil, is called once per ball before the run to set
	// Ball.State (used e.g. by the deterministic prober). A run with
	// InitState stores every ball up front. Agent mode only.
	InitState func(b *Ball)
	// Arena, if non-nil, supplies reusable run-state buffers so repeated
	// runs allocate nothing once it is warm: the engine itself (New), the
	// ball array, per-bin/per-ball vectors, worker scratch, and the Result
	// are drawn from it. The returned Result (Loads, Placements,
	// TraceRemaining included) is valid only until the arena's next run;
	// an arena must not be shared by concurrent engines. Without an arena
	// a run uses a private one and allocates its Result apart from it.
	// Used by the online/churn layer, which runs one small engine
	// execution per epoch in steady state.
	Arena *Arena
}

// DefaultMaxRounds bounds runaway protocols.
const DefaultMaxRounds = 100000

// MaxAgentBalls is the ball-count ceiling of the agent engine (ball
// indices are int32).
const MaxAgentBalls = int64(1)<<31 - 2

// ErrRoundLimit is returned when MaxRounds elapse with balls unallocated.
var ErrRoundLimit = errors.New("sim: round limit exceeded with unallocated balls")

// Engine executes a Protocol on a Problem.
type Engine struct {
	p     model.Problem
	proto Protocol
	cfg   Config
}

// New constructs an engine, inside cfg.Arena when it is set (reclaimed by
// that arena's next New). It panics on an invalid problem.
func New(p model.Problem, proto Protocol, cfg Config) *Engine {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	var e *Engine
	if cfg.Arena != nil {
		e = &cfg.Arena.eng
	} else {
		e = new(Engine)
	}
	*e = Engine{p: p, proto: proto, cfg: cfg}
	return e
}

// Run executes the protocol to completion and returns the result. If the
// round limit is hit, the partial result is returned along with
// ErrRoundLimit. An instance beyond MaxAgentBalls is an error: the caller
// chooses the mass engine (RunMass) for it.
func (e *Engine) Run() (*model.Result, error) {
	if e.p.M > MaxAgentBalls {
		return nil, fmt.Errorf("sim: agent engine supports at most 2^31-2 balls, got %d (select a mass-capable algorithm with the registry's '!mass' suffix, e.g. \"aheavy!mass\")", e.p.M)
	}
	return e.runAgent()
}
