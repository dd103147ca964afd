// Package threshold implements the family of uniform threshold algorithms
// from Section 4 of the paper — the class over which the lower bound
// (Theorem 2 / Theorem 7) is proved — together with the simulation
// transforms of Lemmas 2 and 3.
//
// A member of the family works in phases. In phase i:
//
//  1. every bin b determines a threshold T_{i,b}, as an arbitrary function
//     of the system state at the beginning of the phase (but stochastically
//     independent of the balls' current and future random choices);
//  2. every unallocated ball picks d·k bins uniformly and independently at
//     random and sends requests to them, spread over k rounds (at most d
//     per round);
//  3. in the last round of the phase, bin b accepts up to T_{i,b} − ℓ_b of
//     the requests it collected (ℓ_b its load) and rejects the rest;
//  4. balls receiving accepts commit.
//
// The family strictly generalizes Aheavy: it allows per-bin thresholds,
// degree d > 1, and request collection over k rounds. Lemma 2 simulates a
// degree-d algorithm by a degree-1 algorithm with k·d-round phases; Lemma 3
// reduces phase length back to 1. Experiment E12 validates both transforms
// by checking that the transformed algorithms achieve the same load
// distribution; E9/E10 use the family for the lower-bound measurements.
package threshold

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
)

// Policy decides every bin's threshold at the start of each phase, given
// the full system state: bin loads and the number of unallocated balls.
// Implementations write the per-bin *cumulative load caps* into out.
//
// Policies must not retain loads; it is reused by the engine.
type Policy interface {
	Thresholds(phase int, loads []int64, remaining int64, out []int64)
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(phase int, loads []int64, remaining int64, out []int64)

// Thresholds implements Policy.
func (f PolicyFunc) Thresholds(phase int, loads []int64, remaining int64, out []int64) {
	f(phase, loads, remaining, out)
}

// Fixed returns a policy giving every bin the same constant load cap in
// every phase — the naive algorithm of Section 1.1 ("each bin agrees to
// accept at most T balls in total").
func Fixed(t int64) Policy {
	return PolicyFunc(func(_ int, _ []int64, _ int64, out []int64) {
		for i := range out {
			out[i] = t
		}
	})
}

// Uniform returns a policy applying schedule[phase] to every bin (the shape
// of Aheavy's phase 1); phases beyond the schedule reuse the last entry.
func Uniform(schedule []int64) Policy {
	if len(schedule) == 0 {
		panic("threshold: Uniform requires a non-empty schedule")
	}
	return PolicyFunc(func(phase int, _ []int64, _ int64, out []int64) {
		if phase >= len(schedule) {
			phase = len(schedule) - 1
		}
		for i := range out {
			out[i] = schedule[phase]
		}
	})
}

// TwoClass returns a policy splitting bins into two classes: the first
// fraction f of bins get load cap tLow, the rest tHigh, in every phase.
// Used by the lower-bound experiments to show that distinct thresholds do
// not help (the lower bound allows them).
func TwoClass(f float64, tLow, tHigh int64) Policy {
	if f < 0 || f > 1 {
		panic("threshold: TwoClass fraction must be in [0,1]")
	}
	return PolicyFunc(func(_ int, _ []int64, _ int64, out []int64) {
		cut := int(f * float64(len(out)))
		for i := range out {
			if i < cut {
				out[i] = tLow
			} else {
				out[i] = tHigh
			}
		}
	})
}

// Greedy returns the state-adaptive policy that spreads the remaining balls
// plus slack evenly: every bin's cap is ceil((allocated+remaining)/n) +
// slack. It exercises the "arbitrary function of the system state" power of
// the family.
func Greedy(slack int64) Policy {
	return PolicyFunc(func(_ int, loads []int64, remaining int64, out []int64) {
		var total int64
		for _, l := range loads {
			total += l
		}
		total += remaining
		n := int64(len(out))
		perBin := (total + n - 1) / n
		for i := range out {
			out[i] = perBin + slack
		}
	})
}

// Stretch wraps a policy so that thresholds are recomputed only every k
// phases (the inner policy's phase i covers outer phases ik..(i+1)k-1).
// This is the bins' side of the Lemma 2/3 simulations: a simulated
// algorithm commits to its thresholds for the duration of one original
// phase.
func Stretch(inner Policy, k int) Policy {
	if k < 1 {
		panic("threshold: Stretch requires k >= 1")
	}
	return PolicyFunc(func(phase int, loads []int64, remaining int64, out []int64) {
		inner.Thresholds(phase/k, loads, remaining, out)
	})
}

// Algorithm is a member of the uniform threshold family.
type Algorithm struct {
	Degree   int // d: requests per ball per round
	PhaseLen int // k: rounds per phase; requests are collected, accepts sent in the k-th
	Policy   Policy
	// MaxPhases stops the algorithm after this many phases even if balls
	// remain (0 = run until allocation completes or the engine's round
	// budget is exhausted). The partial result carries Unallocated.
	MaxPhases int
}

// Degree1 returns the Lemma 2 simulation: a degree-1 algorithm with phase
// length d·k that reproduces the load distribution of a in d·r rounds.
func (a Algorithm) Degree1() Algorithm {
	return Algorithm{
		Degree:    1,
		PhaseLen:  a.Degree * a.PhaseLen,
		Policy:    a.Policy,
		MaxPhases: a.MaxPhases,
	}
}

// PhaseLen1 returns the phase-length-1 counterpart of a: bins commit to
// each original phase's thresholds for k consecutive single-round phases,
// and the request budget per original phase is unchanged (d·k requests per
// ball), but accepts are now sent every round.
//
// Note on Lemma 3: the paper's simulation is *exact* — it reproduces the
// phase-length-k execution verbatim through port renumbering and deferred
// commit decisions, so its output is identical by construction. This
// transform instead runs the flat algorithm independently. The load caps
// (and hence the lower-bound-relevant load distribution) are preserved, but
// round counts can differ: pooled flushes fill bins more evenly, so the
// independent flat variant can have a slower end-game. Experiment E12
// quantifies this.
func (a Algorithm) PhaseLen1() Algorithm {
	return Algorithm{
		Degree:    a.Degree,
		PhaseLen:  1,
		Policy:    Stretch(a.Policy, a.PhaseLen),
		MaxPhases: a.MaxPhases * a.PhaseLen,
	}
}

// Config carries run-level knobs.
type Config struct {
	Seed     uint64
	Workers  int
	TieBreak sim.TieBreak
	Trace    bool
	// BaseLoads, if non-nil, gives pre-existing per-bin loads (length N,
	// entries >= 0). Policies then see base+new loads as the system state
	// and the caps they set are interpreted against that total, so the run
	// balances residual load; Result.Loads reports only the newly placed
	// balls. The slice is read, never written.
	BaseLoads []int64
	// RecordPlacements records every ball's final bin in Result.Placements;
	// see sim.Config.RecordPlacements.
	RecordPlacements bool
	// Scratch, if non-nil, supplies reusable per-run state (the protocol
	// value and the engine arena) so repeated runs — the online layer's
	// epoch-per-Allocate regime — allocate (almost) nothing. The returned
	// Result is then valid only until the next run using the same Scratch;
	// one Scratch serves one run at a time.
	Scratch *Scratch
}

// Scratch pools the per-run protocol value and the engine arena reused
// across repeated Run/RunMass invocations.
type Scratch struct {
	proto protocol
	arena sim.Arena
}

// protocol adapts Algorithm to sim.Protocol and, for the degree-1,
// phase-length-1 corner RunMass accepts, to sim.MassProtocol. On either
// engine, with BaseLoads set, the policy sees base+new loads as the
// system state.
type protocol struct {
	alg    Algorithm
	caps   []int64 // agent engine: current phase's per-bin load caps
	base   []int64 // pre-existing per-bin loads (nil = none)
	totals []int64 // scratch: base+current loads handed to the policy
}

// view returns the system state the policy sees for the engine's loads.
func (p *protocol) view(loads []int64) []int64 {
	if p.base == nil {
		return loads
	}
	for i, l := range loads {
		p.totals[i] = l + p.base[i]
	}
	return p.totals
}

func (p *protocol) RoundStart(round int, loads []int64, remaining int64) {
	if round%p.alg.PhaseLen != 0 {
		return // thresholds are fixed for the duration of a phase
	}
	p.alg.Policy.Thresholds(round/p.alg.PhaseLen, p.view(loads), remaining, p.caps)
}

func (p *protocol) Targets(round int, b *sim.Ball, n int, buf []int) []int {
	for i := 0; i < p.alg.Degree; i++ {
		buf = append(buf, b.Rand().Intn(n))
	}
	return buf
}

// Hold collects requests until the last round of the phase.
func (p *protocol) Hold(round int) bool {
	return round%p.alg.PhaseLen != p.alg.PhaseLen-1
}

func (p *protocol) Capacity(_ int, bin int, load int64) int64 {
	c := p.caps[bin] - load
	if p.base != nil {
		c -= p.base[bin]
	}
	return c
}

func (p *protocol) Payload(int, int, int64) int64 { return 0 }

func (p *protocol) Choose(_ int, _ *sim.Ball, _ []sim.Accept) int { return 0 }

func (p *protocol) Place(a sim.Accept) int { return a.From }

func (p *protocol) Done(round int, _ int64) bool {
	return p.alg.MaxPhases > 0 && round >= p.alg.MaxPhases*p.alg.PhaseLen
}

// MassCapacities turns the policy's cumulative per-bin load caps into the
// round's acceptance capacities over the count vector; every mass round
// is a phase.
func (p *protocol) MassCapacities(phase int, loads []int64, remaining int64, caps []int64) {
	view := p.view(loads)
	p.alg.Policy.Thresholds(phase, view, remaining, caps)
	for i := range caps {
		caps[i] -= view[i]
	}
}

func (p *protocol) MassDone(phase int, remaining int64) bool { return p.Done(phase, remaining) }

// Validate reports whether the algorithm's parameters are well-formed.
func (a Algorithm) Validate() error {
	if a.Degree < 1 {
		return fmt.Errorf("threshold: Degree must be >= 1, got %d", a.Degree)
	}
	if a.PhaseLen < 1 {
		return fmt.Errorf("threshold: PhaseLen must be >= 1, got %d", a.PhaseLen)
	}
	if a.Policy == nil {
		return fmt.Errorf("threshold: nil Policy")
	}
	if a.MaxPhases < 0 {
		return fmt.Errorf("threshold: negative MaxPhases")
	}
	return nil
}

// Protocol returns the sim.Protocol implementing a on n bins. Exposed so
// that fault-injection decorators (package adversary) and custom engine
// configurations can wrap it; most callers want Run. Each returned
// protocol carries per-run state and must not be shared between engines.
func (a Algorithm) Protocol(n int) (sim.Protocol, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &protocol{alg: a, caps: make([]int64, n)}, nil
}

// RunMass executes the algorithm on the count-based mass engine, lifting
// the ball limit to sim.MassMaxBalls. Only the exchangeable corner of the
// family is expressible there: Degree == 1 and PhaseLen == 1 (bins reply
// every round). Semantics match Run — same policies, same BaseLoads view,
// same MaxPhases partial-stop — but balls carry no identities, so
// RecordPlacements is rejected and tie-breaking is moot (any rule yields
// the same count evolution).
func (a Algorithm) RunMass(p model.Problem, cfg Config) (*model.Result, error) {
	proto, arena, err := a.setup(p, cfg)
	if err != nil {
		return nil, err
	}
	if a.Degree != 1 || a.PhaseLen != 1 {
		return nil, fmt.Errorf("threshold: RunMass requires Degree == 1 and PhaseLen == 1, got d=%d k=%d (use Run, or the Lemma 2/3 transforms to flatten first)", a.Degree, a.PhaseLen)
	}
	if cfg.RecordPlacements {
		return nil, fmt.Errorf("threshold: RunMass cannot record placements (balls are exchangeable); use Run")
	}
	return sim.RunMass(p, proto, sim.Config{
		Seed:  cfg.Seed,
		Trace: cfg.Trace,
		Arena: arena,
	})
}

// Run executes the algorithm. A complete allocation returns a nil error;
// stopping at MaxPhases returns the partial result (Unallocated > 0) with a
// nil error; exhausting the engine round budget returns sim.ErrRoundLimit.
func (a Algorithm) Run(p model.Problem, cfg Config) (*model.Result, error) {
	proto, arena, err := a.setup(p, cfg)
	if err != nil {
		return nil, err
	}
	proto.caps = sim.GrowInt64(proto.caps, p.N)
	return sim.New(p, proto, sim.Config{
		Seed:             cfg.Seed,
		Workers:          cfg.Workers,
		TieBreak:         cfg.TieBreak,
		Trace:            cfg.Trace,
		RecordPlacements: cfg.RecordPlacements,
		Arena:            arena,
	}).Run()
}

// setup validates a run of a on p and readies its protocol value and
// arena: the scratch's when cfg carries one, a fresh protocol and no
// arena otherwise.
func (a Algorithm) setup(p model.Problem, cfg Config) (*protocol, *sim.Arena, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.BaseLoads != nil && len(cfg.BaseLoads) != p.N {
		return nil, nil, fmt.Errorf("threshold: BaseLoads has %d entries, want %d", len(cfg.BaseLoads), p.N)
	}
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	var proto *protocol
	var arena *sim.Arena
	if scr := cfg.Scratch; scr != nil {
		proto, arena = &scr.proto, &scr.arena
	} else {
		proto = new(protocol)
	}
	proto.alg, proto.base = a, cfg.BaseLoads
	if cfg.BaseLoads != nil {
		proto.totals = sim.GrowInt64(proto.totals, p.N)
	}
	return proto, arena, nil
}
