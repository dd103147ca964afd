// Package core implements Aheavy, the paper's main contribution: a parallel,
// symmetric threshold algorithm that allocates m balls into n bins with
// maximal load m/n + O(1) in O(log log(m/n) + log* n) rounds w.h.p.
// (Theorem 1 / Theorem 6).
//
// The algorithm has two phases:
//
//   - Phase 1 (threshold rounds): in round i every unallocated ball sends a
//     request to one uniformly random bin; all bins accept requests up to the
//     common cumulative threshold T_i = m/n − (m̃_i/n)^(2/3), where m̃_0 = m
//     and m̃_{i+1} = m̃_i^(2/3)·n^(1/3) is the bins' (deterministic) estimate
//     of the remaining balls. The deliberately *undershooting* threshold is
//     the paper's key idea: it keeps all bins equally loaded, so rejected
//     balls never search blindly among full bins. The phase ends when
//     m̃_i ≤ O(n), after O(log log(m/n)) rounds.
//
//   - Phase 2 (Alight): the O(n) leftover balls are placed by the
//     lightly-loaded-case algorithm of Lenzen & Wattenhofer (package light)
//     with every real bin simulating O(1) virtual bins, adding O(1) load
//     per real bin in log*(n) + O(1) rounds.
//
// Two interchangeable implementations are provided: Run (agent-based, exact
// message accounting, executed on the sim engine's agent mode) and RunFast
// (count-based, exploiting ball exchangeability to scale to ~10^12 balls:
// phase 1 runs on the sim engine's mass mode, and phase 2 on
// light.RunMass, which throws Alight's degree-1 first round count-based
// and builds agents only for its survivors). Both produce distributionally
// identical allocations; tests cross-validate them. Both share one body,
// which picks each phase's engine: Run runs a degree-1 instance beyond
// sim.MaxAgentBalls count-based, both phases, exactly as RunFast does.
package core

import (
	"fmt"
	"math"

	"repro/internal/light"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Params tunes Aheavy. The zero value selects the paper's parameters.
// The experiments vary only these two; the paper's other constants are
// stopFactor and lightCap.
type Params struct {
	// Beta is the threshold slack exponent; the paper uses 2/3. Must lie in
	// (0, 1). Experiment E13 ablates it.
	Beta float64
	// Degree is the number of bins each unallocated ball contacts per
	// phase-1 round; the paper's algorithm uses 1 (experiment E14 ablates
	// it). Only Run honours Degree; RunFast requires Degree == 1.
	Degree int
}

const (
	// stopFactor ends phase 1 once m̃_i <= stopFactor·n, as in the
	// paper's proof.
	stopFactor = 2
	// lightCap is the per-virtual-bin load cap of phase 2 (2 in LW16).
	lightCap = 2
)

func (p Params) withDefaults() Params {
	if p.Beta == 0 {
		p.Beta = 2.0 / 3.0
	}
	if p.Degree == 0 {
		p.Degree = 1
	}
	return p
}

func (p Params) validate() error {
	if !(p.Beta > 0 && p.Beta < 1) { // positive form rejects NaN
		return fmt.Errorf("core: Beta must be in (0,1), got %g", p.Beta)
	}
	if p.Degree < 1 {
		return fmt.Errorf("core: Degree must be >= 1, got %d", p.Degree)
	}
	return nil
}

// Config holds run-level knobs shared by Run and RunFast.
type Config struct {
	Seed     uint64
	Workers  int
	TieBreak sim.TieBreak
	Trace    bool
	Params   Params
	// BaseLoads, if non-nil, gives pre-existing per-bin loads (length N,
	// entries >= 0) that the threshold schedule and bin capacities account
	// for: the run places M *additional* balls so that base+new loads stay
	// balanced, and Result.Loads reports only the newly placed balls. The
	// slice is read, never written. Used by the online/churn layer
	// (internal/online) to re-run the protocol per epoch over residual load.
	//
	// With BaseLoads set, phase 2 is the base-aware adaptive cleanup (a
	// state-adaptive member of the paper's threshold family) instead of the
	// Alight substrate: Alight assumes empty bins, which contradicts
	// residual load — without this, batches of M <= 2n balls
	// would place residual-blind, exactly what the churn layer must avoid.
	BaseLoads []int64
	// RecordPlacements asks the agent-based path (Run) to record every
	// ball's final bin in Result.Placements. RunFast rejects it: the
	// count-based path treats balls as exchangeable and has no identities.
	RecordPlacements bool
	// Scratch, if non-nil, supplies reusable per-run state (protocol
	// values with their schedule and load buffers, and the two engine
	// arenas) so repeated runs — the online layer's epoch-per-Allocate
	// regime — allocate (almost) nothing. The returned Result is then
	// valid only until the next run using the same Scratch; one Scratch
	// serves one run at a time. Without one, a run gets fresh protocol
	// values and no arenas, and its Result keeps nothing else alive.
	Scratch *Scratch
}

// Scratch pools every reusable buffer of one Run/RunFast invocation: the
// phase-1 protocol (with its threshold schedule), the cleanup protocol
// (with its per-bin totals), and one sim.Arena per phase (both phases'
// results are alive simultaneously while finish merges them, so they
// cannot share an arena).
type Scratch struct {
	p1      phase1
	cl      cleanup
	arenaP1 sim.Arena
	arenaP2 sim.Arena
}

// validateBase checks a BaseLoads slice against the instance and returns
// its total.
func validateBase(base []int64, n int) (int64, error) {
	if base == nil {
		return 0, nil
	}
	if len(base) != n {
		return 0, fmt.Errorf("core: BaseLoads has %d entries, want %d", len(base), n)
	}
	var total int64
	for i, l := range base {
		if l < 0 {
			return 0, fmt.Errorf("core: BaseLoads[%d] = %d is negative", i, l)
		}
		total += l
	}
	return total, nil
}

// Schedule computes the cumulative phase-1 thresholds T_0 < T_1 < ... and
// the bins' remaining-ball estimates m̃_0, m̃_1, ... (with m̃_0 = m). The
// schedule ends when m̃_i <= 2n or when the floor'd threshold
// stops increasing (no further progress is possible). Both slices have one
// entry per phase-1 round; estimates additionally carries the final
// estimate, so len(estimates) == len(thresholds)+1.
func Schedule(p model.Problem, params Params) (thresholds []int64, estimates []float64) {
	return ScheduleOffset(p, 0, params)
}

// ScheduleOffset is Schedule for a system already holding baseTotal balls:
// thresholds target the combined average (baseTotal+M)/n, while the
// remaining-ball estimates track only the M balls being placed. With
// baseTotal == 0 it is exactly Schedule.
func ScheduleOffset(p model.Problem, baseTotal int64, params Params) (thresholds []int64, estimates []float64) {
	return scheduleOffsetInto(p, baseTotal, params, stopFactor*float64(p.N), nil, nil)
}

// scheduleOffsetInto is ScheduleOffset appending into caller-owned buffers
// (pass length-0 slices to reuse their capacity across runs), with the
// schedule ending once the estimate is at most stop: 2n for unit balls,
// 2·n·w_max in weight units for RunWeighted.
func scheduleOffsetInto(p model.Problem, baseTotal int64, params Params, stop float64, thresholds []int64, estimates []float64) ([]int64, []float64) {
	params = params.withDefaults()
	mu := (float64(baseTotal) + float64(p.M)) / float64(p.N)
	ns := float64(p.N)
	mt := float64(p.M)
	estimates = append(estimates, mt)
	prev := int64(0)
	for mt > stop && len(thresholds) < 512 {
		ti := int64(math.Floor(mu - math.Pow(mt/ns, params.Beta)))
		if ti <= prev {
			break
		}
		thresholds = append(thresholds, ti)
		prev = ti
		mt = ns * math.Pow(mt/ns, params.Beta)
		estimates = append(estimates, mt)
	}
	return thresholds, estimates
}

// PredictedRemaining returns the paper's closed-form prediction for the
// number of unallocated balls after round i of phase 1 (Claim 2):
// m̃_i = n·(m/n)^(beta^i).
func PredictedRemaining(p model.Problem, beta float64, i int) float64 {
	if beta == 0 {
		beta = 2.0 / 3.0
	}
	return float64(p.N) * math.Pow(p.AvgLoad(), math.Pow(beta, float64(i)))
}

// phase1 implements sim.Protocol and sim.MassProtocol for the threshold
// rounds. Only the paper's degree-1 algorithm is exchangeable, so run puts
// it on the mass engine only when Degree == 1.
type phase1 struct {
	thresholds []int64
	estimates  []float64 // the schedule's remaining-ball estimates, kept for their buffer
	degree     int
	base       []int64 // pre-existing per-bin loads (nil = none)
}

func (h *phase1) Targets(round int, b *sim.Ball, n int, buf []int) []int {
	for i := 0; i < h.degree; i++ {
		buf = append(buf, b.Rand().Intn(n))
	}
	return buf
}

func (h *phase1) Hold(int) bool { return false }

func (h *phase1) Capacity(round int, bin int, load int64) int64 {
	t := h.thresholds[round]
	if h.base != nil {
		t -= h.base[bin]
	}
	return t - load
}

func (h *phase1) Payload(int, int, int64) int64 { return 0 }

func (h *phase1) Choose(_ int, _ *sim.Ball, accepts []sim.Accept) int { return 0 }

func (h *phase1) Place(a sim.Accept) int { return a.From }

func (h *phase1) Done(round int, _ int64) bool { return round >= len(h.thresholds) }

func (h *phase1) MassCapacities(round int, loads []int64, _ int64, caps []int64) {
	for b := range caps {
		caps[b] = h.Capacity(round, b, loads[b])
	}
}

func (h *phase1) MassDone(round int, remaining int64) bool { return h.Done(round, remaining) }

// Run executes Aheavy agent-based on the sim engine and returns the complete
// allocation. A degree-1 instance beyond sim.MaxAgentBalls runs
// count-based, both phases, exactly as RunFast; it cannot record
// placements.
func Run(p model.Problem, cfg Config) (*model.Result, error) {
	mass := cfg.Params.withDefaults().Degree == 1 && p.M > sim.MaxAgentBalls
	if mass && cfg.RecordPlacements {
		return nil, fmt.Errorf("core: %d balls exceed the agent engine's limit, and the count-based path cannot record placements (balls are exchangeable)", p.M)
	}
	return run(p, cfg, mass)
}

// run is Run and RunFast: it computes the schedule, runs phase 1 on the
// mass engine when mass is set and on the agent engine otherwise, and
// hands the leftover balls to phase 2 (finish).
func run(p model.Problem, cfg Config, mass bool) (*model.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	baseTotal, err := validateBase(cfg.BaseLoads, p.N)
	if err != nil {
		return nil, err
	}
	var p1 *phase1
	var arena *sim.Arena
	if scr := cfg.Scratch; scr != nil {
		p1, arena = &scr.p1, &scr.arenaP1
	} else {
		p1 = new(phase1)
	}
	p1.thresholds, p1.estimates = scheduleOffsetInto(p, baseTotal, params, stopFactor*float64(p.N), p1.thresholds[:0], p1.estimates[:0])
	p1.degree, p1.base = params.Degree, cfg.BaseLoads

	var res *model.Result
	if len(p1.thresholds) == 0 {
		// Degenerate heavily-loaded ratio: everything goes to phase 2. This
		// is also the small-batch churn regime (m̃_0 <= 2n), so
		// with a Scratch the empty result comes from its arena instead of
		// fresh O(n+m) slices.
		res = arena.ResultBuffers(p, cfg.RecordPlacements)
	} else {
		scfg := sim.Config{
			Seed:             cfg.Seed,
			Workers:          cfg.Workers,
			TieBreak:         cfg.TieBreak,
			Trace:            cfg.Trace,
			RecordPlacements: cfg.RecordPlacements,
			MaxRounds:        len(p1.thresholds) + 1,
			Arena:            arena,
		}
		if mass {
			res, err = sim.RunMass(p, p1, scfg)
		} else {
			res, err = sim.New(p, p1, scfg).Run()
		}
		if err != nil {
			return res, fmt.Errorf("core: phase 1: %w", err)
		}
	}
	return finish(p, res, cfg, mass)
}

// finish dispatches phase 2: the Alight substrate for the batch case, the
// base-aware adaptive cleanup when residual loads are in play. mass says
// phase 1 ran on the mass engine, and Alight then runs count-based too.
func finish(p model.Problem, phase1Res *model.Result, cfg Config, mass bool) (*model.Result, error) {
	if cfg.BaseLoads != nil {
		return finishWithCleanup(p, phase1Res, cfg)
	}
	return finishWithLight(p, phase1Res, cfg, mass)
}

// finishWithLight runs phase 2 on the leftover balls and merges results.
// After a count-based phase 1 it runs light.RunMass, which builds agents
// only for the balls that survive Alight's degree-1 first round.
func finishWithLight(p model.Problem, phase1Res *model.Result, cfg Config, mass bool) (*model.Result, error) {
	leftover := phase1Res.Unallocated
	if leftover == 0 {
		return phase1Res, nil
	}
	// Each real bin simulates g virtual bins; g is a constant for any fixed
	// leftover/n ratio (and the ratio is O(1) w.h.p. by Claim 4).
	g := virtualFactor(leftover, p.N, lightCap)
	nv := g * p.N
	runLight := light.Run
	if mass {
		runLight = light.RunMass
	}
	lightRes, err := runLight(model.Problem{M: leftover, N: nv}, light.Config{
		Cap:              lightCap,
		Seed:             rng.Mix64(cfg.Seed ^ 0xD1B54A32D192ED03),
		Workers:          cfg.Workers,
		TieBreak:         cfg.TieBreak,
		Trace:            cfg.Trace,
		RecordPlacements: phase1Res.Placements != nil,
	})
	if err != nil {
		return phase1Res, fmt.Errorf("core: phase 2: %w", err)
	}
	// Virtual bin v belongs to real bin v mod n.
	for v, l := range lightRes.Loads {
		phase1Res.Loads[v%p.N] += l
	}
	if phase1Res.Placements != nil {
		// Phase-2 ball j is the j-th phase-1 survivor in ball-index order
		// (any fixed order works: survivors are fresh exchangeable agents in
		// the phase-2 engine).
		j := 0
		for i, b := range phase1Res.Placements {
			if b < 0 {
				if v := lightRes.Placements[j]; v >= 0 {
					phase1Res.Placements[i] = v % int32(p.N)
				}
				j++
			}
		}
	}
	phase1Res.Unallocated = 0
	phase1Res.Rounds += lightRes.Rounds
	merged := phase1Res.Metrics
	lm := lightRes.Metrics
	// A ball surviving phase 1 already sent one request per phase-1 round.
	lm.MaxBallSent += phase1Res.Metrics.MaxBallSent
	// A real bin aggregates up to g virtual bins (upper bound).
	lm.MaxBinReceived *= int64(g)
	merged.Add(lm)
	phase1Res.Metrics = merged
	phase1Res.TraceRemaining = append(phase1Res.TraceRemaining, lightRes.TraceRemaining...)
	return phase1Res, nil
}

// virtualFactor picks the number of virtual bins per real bin so that phase
// 2 has at least 2x capacity headroom, with a floor of 4 (the paper's g(c)).
func virtualFactor(leftover int64, n int, cap int64) int {
	need := int(math.Ceil(2 * float64(leftover) / (float64(cap) * float64(n))))
	if need < 4 {
		return 4
	}
	return need
}

// RunFast executes Aheavy with a count-based phase 1 that scales to very
// large m (sim.MassMaxBalls, ~10^12). Balls are exchangeable, so the
// per-round evolution depends only on the multinomial request counts per
// bin; phase 1 runs on the shared mass engine (sim.RunMass), which samples
// those counts exactly and is bit-identical for a fixed seed at any worker
// count. Phase 2 (with only O(n) balls) is light.RunMass: Alight's
// degree-1 first round thrown count-based, then its later rounds on the
// agent engine over that round's survivors only. It draws a different
// stream from Run's phase 2 with the same distribution.
func RunFast(p model.Problem, cfg Config) (*model.Result, error) {
	if d := cfg.Params.withDefaults().Degree; d != 1 {
		return nil, fmt.Errorf("core: RunFast supports Degree == 1 only, got %d", d)
	}
	if cfg.RecordPlacements {
		return nil, fmt.Errorf("core: RunFast cannot record placements (balls are exchangeable); use Run")
	}
	return run(p, cfg, true)
}

// cleanup is the phase-2 protocol for the residual-load case: a
// state-adaptive uniform threshold (a member of the paper's Section 4
// family) over *total* load, with slack growing by one per round so that
// termination is guaranteed once the slack covers the most overfull bin.
type cleanup struct {
	base    []int64 // base + phase-1 loads, per bin
	ceilAvg int64   // ceil(total system load / n)
}

func (c *cleanup) Targets(_ int, b *sim.Ball, n int, buf []int) []int {
	return append(buf, b.Rand().Intn(n))
}
func (c *cleanup) Hold(int) bool { return false }
func (c *cleanup) Capacity(round int, bin int, load int64) int64 {
	return c.ceilAvg + 1 + int64(round) - c.base[bin] - load
}
func (c *cleanup) Payload(int, int, int64) int64           { return 0 }
func (c *cleanup) Choose(int, *sim.Ball, []sim.Accept) int { return 0 }
func (c *cleanup) Place(a sim.Accept) int                  { return a.From }
func (c *cleanup) Done(int, int64) bool                    { return false }

// finishWithCleanup places the leftover balls base-aware: capacities are
// derived from base + phase-1 load, so bins emptied by departures absorb
// proportionally more — the property the online/churn layer depends on,
// and which the Alight substrate (built for empty bins) cannot provide.
func finishWithCleanup(p model.Problem, phase1Res *model.Result, cfg Config) (*model.Result, error) {
	leftover := phase1Res.Unallocated
	if leftover == 0 {
		return phase1Res, nil
	}
	n := p.N
	var cl *cleanup
	var arena *sim.Arena
	if scr := cfg.Scratch; scr != nil {
		// Phase 2 runs while the phase-1 result (arenaP1) is still live, so
		// it gets its own arena.
		cl, arena = &scr.cl, &scr.arenaP2
	} else {
		cl = new(cleanup)
	}
	cl.base = sim.GrowInt64(cl.base, n)
	var total, maxTotal int64
	for i := range cl.base {
		cl.base[i] = cfg.BaseLoads[i] + phase1Res.Loads[i]
		total += cl.base[i]
		maxTotal = max(maxTotal, cl.base[i])
	}
	total += leftover
	cl.ceilAvg = (total + int64(n) - 1) / int64(n)
	// Once round > maxTotal - ceilAvg every bin has spare capacity; the
	// +128 margin covers the randomized tail with room to spare.
	maxRounds := 128
	if over := maxTotal - cl.ceilAvg; over > 0 {
		maxRounds += int(over)
	}
	res, err := sim.New(model.Problem{M: leftover, N: n}, cl, sim.Config{
		Seed:             rng.Mix64(cfg.Seed ^ 0xE07AB8F2C4D59A17),
		Workers:          cfg.Workers,
		TieBreak:         cfg.TieBreak,
		Trace:            cfg.Trace,
		RecordPlacements: phase1Res.Placements != nil,
		MaxRounds:        maxRounds,
		Arena:            arena,
	}).Run()
	if err != nil {
		return phase1Res, fmt.Errorf("core: phase 2 (cleanup): %w", err)
	}
	for b, l := range res.Loads {
		phase1Res.Loads[b] += l
	}
	if phase1Res.Placements != nil {
		j := 0
		for i, b := range phase1Res.Placements {
			if b < 0 {
				phase1Res.Placements[i] = res.Placements[j]
				j++
			}
		}
	}
	phase1Res.Unallocated = 0
	phase1Res.Rounds += res.Rounds
	merged := phase1Res.Metrics
	cm := res.Metrics
	// A leftover ball's requests span both phases.
	cm.MaxBallSent += phase1Res.Metrics.MaxBallSent
	merged.Add(cm)
	phase1Res.Metrics = merged
	phase1Res.TraceRemaining = append(phase1Res.TraceRemaining, res.TraceRemaining...)
	return phase1Res, nil
}
