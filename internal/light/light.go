// Package light implements Alight, the symmetric parallel algorithm for the
// lightly loaded case (about n balls into n bins) that the paper uses as a
// black-box final phase (its Theorem 5, from Lenzen & Wattenhofer 2016,
// "Tight bounds for parallel randomized load balancing").
//
// Guarantees reproduced: bin load at most Cap (2 by default), termination in
// about log*(n) + O(1) rounds, and O(n) total messages w.h.p.
//
// # Substitution note
//
// The original LW16 algorithm is stated as a black box by the paper. We
// implement the standard mechanism behind its log* round bound: an adaptive
// request schedule in which an unallocated ball contacts k_r bins chosen
// uniformly at random in round r, with k_1 = 1 and k_{r+1} = 2^{k_r}
// (capped). Because the number of unallocated balls drops roughly by the
// factor that the request count gains, the schedule terminates after a
// log*-type number of rounds. Bins accept requests up to a hard load cap.
// EXPERIMENTS.md (E7) validates the load cap, the round scaling, and the
// message totals empirically.
//
// # Exchangeable balls
//
// Run gives every ball an agent on the sim engine. RunMass runs the same
// protocol for callers that treat balls as exchangeable (core's
// count-based Aheavy): round 0 has degree 1 and every bin starts empty, so
// a bin accepts min(its request count, Cap), a function of one multinomial
// vector. RunMass throws the M balls one by one from a single seeded
// stream into one byte per bin and builds agents for round 0's survivors
// only, which run rounds 1, 2, ... over those byte loads. Its results
// have Run's distribution, not Run's stream.
package light

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config parameterizes Alight.
type Config struct {
	// Cap is the hard per-bin load cap (2 in LW16's guarantee).
	Cap      int64
	Seed     uint64
	Workers  int
	TieBreak sim.TieBreak
	Trace    bool
	// RecordPlacements records every ball's final (virtual) bin in
	// Result.Placements; see sim.Config.RecordPlacements.
	RecordPlacements bool
}

// MaxRequests bounds the adaptive request schedule, and with it the
// worst-case message blowup: a ball contacts at most min(n, MaxRequests)
// bins in one round. 2^16 is the next schedule value after 16 and already
// far beyond what n <= 10^9 needs.
const MaxRequests = 1 << 16

// Schedule returns the number of bins an unallocated ball contacts in round
// r (0-based): 1, 2, 4, 16, 65536, ... capped at maxReq.
func Schedule(r int, maxReq int) int {
	k := 1
	for i := 0; i < r; i++ {
		if k >= 63 || (1<<uint(k)) >= maxReq { // next step would overflow the cap
			return maxReq
		}
		k = 1 << uint(k)
	}
	if k > maxReq {
		return maxReq
	}
	return k
}

// protocol implements sim.Protocol for Alight. RunMass's survivors run it
// from schedule index first = 1 over their bins' round-0 loads, base.
type protocol struct {
	cap   int64
	first int     // schedule index of the engine's round 0
	base  []uint8 // per-bin load before the engine's round 0 (nil = empty)
}

func (p *protocol) Targets(round int, b *sim.Ball, n int, buf []int) []int {
	k := Schedule(p.first+round, min(n, MaxRequests))
	for i := 0; i < k; i++ {
		buf = append(buf, b.Rand().Intn(n))
	}
	return buf
}

func (p *protocol) Hold(int) bool { return false }

func (p *protocol) Capacity(_ int, bin int, load int64) int64 {
	if p.base != nil {
		load += int64(p.base[bin])
	}
	return p.cap - load
}

func (p *protocol) Payload(int, int, int64) int64 { return 0 }

func (p *protocol) Choose(_ int, _ *sim.Ball, accepts []sim.Accept) int { return 0 }

func (p *protocol) Place(a sim.Accept) int { return a.From }

func (p *protocol) Done(int, int64) bool { return false }

// Run allocates p.M balls into p.N bins with per-bin load at most cfg.Cap.
// It returns an error if the instance cannot fit (M > Cap*N) or the engine
// exhausts its round budget.
func Run(p model.Problem, cfg Config) (*model.Result, error) {
	cfg, err := cfg.resolve(p)
	if err != nil {
		return nil, err
	}
	return sim.New(p, &protocol{cap: cfg.Cap}, cfg.simConfig(p.N, 0)).Run()
}

// RunMass is Run for exchangeable balls: the same protocol and result
// distribution, with agents for round 0's survivors only. Its message
// totals and MaxBallSent are exact, as Run's are; MaxBinReceived is an
// upper bound, round 0's largest request count plus the later rounds'.
// Round-0 loads live in one byte per bin and balls have no identities, so
// RunMass rejects Cap > 255 and RecordPlacements; Run serves both.
func RunMass(p model.Problem, cfg Config) (*model.Result, error) {
	cfg, err := cfg.resolve(p)
	if err != nil {
		return nil, err
	}
	if cfg.Cap > math.MaxUint8 {
		return nil, fmt.Errorf("light: RunMass keeps round-0 loads in one byte and supports Cap <= %d, got %d; use light.Run", math.MaxUint8, cfg.Cap)
	}
	if cfg.RecordPlacements {
		return nil, fmt.Errorf("light: RunMass treats balls as exchangeable and cannot record placements; use light.Run")
	}
	if p.M == 0 {
		return &model.Result{Problem: p, Loads: make([]int64, p.N)}, nil
	}

	base := make([]uint8, p.N)
	survivors, maxReceived := throw(rng.New(rng.Mix64(cfg.Seed^0xA54FF53A5F1D36F1)), p.M, uint8(cfg.Cap), base)
	var res *model.Result
	if survivors > 0 {
		proto := &protocol{cap: cfg.Cap, first: 1, base: base}
		res, err = sim.New(model.Problem{M: survivors, N: p.N}, proto, cfg.simConfig(p.N, 1)).Run()
		if res == nil {
			return nil, err
		}
	} else {
		res = &model.Result{Loads: make([]int64, p.N)}
	}
	for v, l := range base {
		res.Loads[v] += int64(l)
	}
	res.Problem = p
	res.Rounds++
	// Round 0 as the agent engine counts it: one request and one reply per
	// ball, one commit per accepted ball. Every survivor sent exactly one
	// request in round 0, and with no survivors every ball did.
	accepted := p.M - survivors
	res.Metrics.BallRequests += p.M
	res.Metrics.BinReplies += p.M
	res.Metrics.CommitMessages += accepted
	res.Metrics.TotalMessages += 2*p.M + accepted
	res.Metrics.MaxBallSent++
	res.Metrics.MaxBinReceived += maxReceived
	if cfg.Trace {
		res.TraceRemaining = append([]int64{p.M}, res.TraceRemaining...)
	}
	return res, err
}

// throw is RunMass's round 0: each of m balls contacts one uniform bin,
// and a bin accepts up to cap of its requests. loads first counts each
// bin's requests, saturating at 255, and ends as its load, min(count,
// cap). It returns the rejected balls and the largest request count, an
// upper bound once a count saturated.
func throw(r *rng.Rand, m int64, cap uint8, loads []uint8) (survivors, maxReceived int64) {
	var spill int64 // requests to a bin whose count had saturated
	for ; m > 0; m-- {
		v := r.Intn(len(loads))
		if c := loads[v]; c < math.MaxUint8 {
			loads[v] = c + 1
		} else {
			spill++
		}
	}
	for v, c := range loads {
		maxReceived = max(maxReceived, int64(c))
		if c > cap {
			survivors += int64(c - cap)
			loads[v] = cap
		}
	}
	return survivors + spill, maxReceived + spill
}

// resolve applies cfg's defaults and checks that p fits its capacity.
func (cfg Config) resolve(p model.Problem) (Config, error) {
	if err := p.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Cap <= 0 {
		cfg.Cap = 2
	}
	if p.M > cfg.Cap*int64(p.N) {
		return cfg, fmt.Errorf("light: %d balls exceed capacity %d of %d bins with cap %d",
			p.M, cfg.Cap*int64(p.N), p.N, cfg.Cap)
	}
	return cfg, nil
}

// simConfig is the sim configuration for Alight's rounds on n bins from
// schedule index first on.
func (cfg Config) simConfig(n, first int) sim.Config {
	return sim.Config{
		Seed:             cfg.Seed,
		Workers:          cfg.Workers,
		TieBreak:         cfg.TieBreak,
		Trace:            cfg.Trace,
		RecordPlacements: cfg.RecordPlacements,
		// log*-round algorithm; a generous fixed budget that still catches
		// runaway behaviour in tests.
		MaxRounds: 64 + int(math.Log2(float64(n)+2)) - first,
	}
}

// ExpectedRounds returns the theoretical round count log*(n) + O(1) used by
// the experiment harness as the comparison curve.
func ExpectedRounds(n int) int {
	logStar := 0
	x := float64(n)
	for x > 1 {
		x = math.Log2(x)
		logStar++
	}
	return logStar + 2
}
