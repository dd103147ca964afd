package online

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// runOpts carries the per-epoch knobs handed to an epochRunner.
type runOpts struct {
	Seed    uint64
	Workers int
	Trace   bool
	// Scratch is the allocator's reusable epoch buffers (engine arenas,
	// runner protocol values, placement/load vectors), so steady-state
	// epochs allocate (almost) nothing. Results produced against it are
	// valid only until its next epoch.
	Scratch *epochScratch
}

// epochScratch pools every reusable buffer of the allocator's epoch path:
// the core and threshold run scratches (each carrying sim engine arenas),
// and the flat buffers of the self-contained runners (greedy, oneshot,
// mass placement synthesis). One scratch serves one epoch at a time.
type epochScratch struct {
	core       core.Scratch
	thr        threshold.Scratch
	rand       rng.Rand
	loads      []int64
	placements []int32
	res        model.Result
}

// epochBuffers returns the scratch's n-bin load vector, zeroed, its m-slot
// placement vector (contents unspecified; runners overwrite every slot),
// and its Result header.
func epochBuffers(scr *epochScratch, p model.Problem) (loads []int64, placements []int32, res *model.Result) {
	scr.loads = sim.GrowInt64(scr.loads, p.N)
	clear(scr.loads)
	return scr.loads, scr.placementBuf(p.M), &scr.res
}

// placementBuf returns the scratch's placement vector resized to m slots
// (contents unspecified).
func (scr *epochScratch) placementBuf(m int64) []int32 {
	if cap(scr.placements) < int(m) {
		scr.placements = make([]int32, m)
	}
	scr.placements = scr.placements[:m]
	return scr.placements
}

// epochRunner places p.M fresh balls on top of the base per-bin loads and
// must return a Result with Placements recorded (delta loads only).
type epochRunner func(p model.Problem, base []int64, opt runOpts) (*model.Result, error)

// ResolveAlg parses an inner-algorithm name and returns its canonical
// spelling (defaults materialized, e.g. "greedy" -> "greedy:2").
func ResolveAlg(name string) (string, error) {
	canon, _, err := resolveAlg(name)
	return canon, err
}

// AlgNames lists the supported inner-algorithm usage patterns.
func AlgNames() []string {
	return []string{"aheavy[:beta][!mass]", "adaptive[:slack][!mass]", "greedy[:d]", "oneshot[!mass]"}
}

// massSuffix selects an inner algorithm's count-based mass-engine
// implementation (same spelling as the sweep registry). Mass epochs treat
// the batch as exchangeable: the protocol produces only the delta load
// vector, and the allocator's per-ball placements are synthesized from it
// (see massEpoch), which keeps the (seed, event trace) determinism
// contract intact.
const massSuffix = "!mass"

func resolveAlg(name string) (string, epochRunner, error) {
	spec := strings.ToLower(strings.TrimSpace(name))
	if spec == "" {
		spec = "aheavy"
	}
	mass := false
	if s, ok := strings.CutSuffix(spec, massSuffix); ok {
		spec, mass = s, true
	}
	parts := strings.Split(spec, ":")
	fam, args := parts[0], parts[1:]
	if s, ok := strings.CutSuffix(fam, massSuffix); ok {
		fam, mass = s, true
	}
	badArity := func(max int) error {
		return fmt.Errorf("online: %s takes at most %d parameter(s), got %q", fam, max, strings.Join(args, ":"))
	}
	// Each family parses its parameters once; the mass flag only selects
	// which engine the runner executes on.
	switch fam {
	case "aheavy":
		if len(args) > 1 {
			return "", nil, badArity(1)
		}
		// beta 0 selects the paper's 2/3 and canonicalizes to plain aheavy,
		// as in the sweep registry.
		beta := 0.0
		canon := "aheavy"
		if len(args) == 1 {
			v, err := strconv.ParseFloat(args[0], 64)
			if err != nil || !(v >= 0 && v < 1) { // positive form rejects NaN
				return "", nil, fmt.Errorf("online: aheavy needs beta in [0, 1) (0 = paper's 2/3), got %q", args[0])
			}
			beta = v
			if v > 0 {
				canon = "aheavy:" + strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if mass {
			return canon + massSuffix, massEpoch(func(p model.Problem, base []int64, opt runOpts) (*model.Result, error) {
				return core.RunFast(p, core.Config{
					Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace,
					Params: core.Params{Beta: beta}, BaseLoads: base,
					Scratch: &opt.Scratch.core,
				})
			}), nil
		}
		return canon, func(p model.Problem, base []int64, opt runOpts) (*model.Result, error) {
			return core.Run(p, core.Config{
				Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace,
				Params: core.Params{Beta: beta}, BaseLoads: base, RecordPlacements: true,
				Scratch: &opt.Scratch.core,
			})
		}, nil
	case "adaptive":
		if len(args) > 1 {
			return "", nil, badArity(1)
		}
		slack := int64(2)
		if len(args) == 1 {
			v, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil || v < 0 {
				return "", nil, fmt.Errorf("online: adaptive needs slack >= 0, got %q", args[0])
			}
			slack = v
		}
		alg := threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Greedy(slack)}
		canon := "adaptive:" + strconv.FormatInt(slack, 10)
		if mass {
			return canon + massSuffix, massEpoch(func(p model.Problem, base []int64, opt runOpts) (*model.Result, error) {
				return alg.RunMass(p, threshold.Config{
					Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace, BaseLoads: base,
					Scratch: &opt.Scratch.thr,
				})
			}), nil
		}
		return canon, func(p model.Problem, base []int64, opt runOpts) (*model.Result, error) {
			return alg.Run(p, threshold.Config{
				Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace,
				BaseLoads: base, RecordPlacements: true,
				Scratch: &opt.Scratch.thr,
			})
		}, nil
	case "greedy":
		if len(args) > 1 {
			return "", nil, badArity(1)
		}
		d := 2
		if len(args) == 1 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v < 1 {
				return "", nil, fmt.Errorf("online: greedy needs d >= 1, got %q", args[0])
			}
			d = v
		}
		if mass {
			return "", nil, fmt.Errorf("online: greedy has no mass-mode epoch runner (its load walk is inherently sequential and already count-based; drop the %s suffix)", massSuffix)
		}
		return "greedy:" + strconv.Itoa(d), greedyRunner(d), nil
	case "oneshot":
		if len(args) != 0 {
			return "", nil, badArity(0)
		}
		if mass {
			return "oneshot" + massSuffix, massEpoch(func(p model.Problem, _ []int64, opt runOpts) (*model.Result, error) {
				// Residual-blind by design, like the agent oneshot foil; the
				// mass spelling draws the exact multinomial count vector.
				r := &opt.Scratch.rand
				r.Seed(rng.Mix64(opt.Seed ^ 0xBB67AE8584CAA73B))
				loads, _, res := epochBuffers(opt.Scratch, p)
				baseline.OneShotInto(p, r, loads, res)
				if opt.Trace {
					res.TraceRemaining = []int64{p.M}
				}
				return res, nil
			}), nil
		}
		return "oneshot", oneshotRunner, nil
	default:
		return "", nil, fmt.Errorf("online: unknown algorithm %q (known: %s)", name, strings.Join(AlgNames(), ", "))
	}
}

// massEpoch lifts a mass-engine run (loads only, balls exchangeable) into
// an epochRunner: per-ball placements are synthesized from the delta load
// vector by filling bins in ascending order and then applying a seeded
// Fisher–Yates permutation of the id→slot assignment. The shuffle matters:
// without it, low ids would always land in low bins, and a structured
// release pattern (e.g. FIFO churn departing the oldest ids) would drain
// exactly the low bins — a bias no exchangeable protocol has. With it,
// any id subset's bin multiset is a uniform draw, matching agent-mode
// placements in distribution. The permutation depends only on the epoch
// seed, so the allocator's fingerprint stays deterministic for a fixed
// (seed, event trace) at any worker count.
func massEpoch(run epochRunner) epochRunner {
	return func(p model.Problem, base []int64, opt runOpts) (*model.Result, error) {
		res, err := run(p, base, opt)
		if err != nil {
			return nil, err
		}
		// The load/result buffers stay with the inner run; only the
		// placement synthesis buffer is drawn here.
		placements := opt.Scratch.placementBuf(p.M)
		i := 0
		for b, l := range res.Loads {
			for j := int64(0); j < l && i < len(placements); j++ {
				placements[i] = int32(b)
				i++
			}
		}
		for ; i < len(placements); i++ {
			placements[i] = -1
		}
		r := &opt.Scratch.rand
		r.Seed(rng.Mix64(opt.Seed ^ 0x9216D5D98979FB1B))
		r.Shuffle(len(placements), func(a, b int) {
			placements[a], placements[b] = placements[b], placements[a]
		})
		res.Placements = placements
		return res, nil
	}
}

// greedyRunner is sequential d-choice over the *total* (base+new) loads —
// the textbook balancer, here churn-aware. One round by convention.
func greedyRunner(d int) epochRunner {
	return func(p model.Problem, base []int64, opt runOpts) (*model.Result, error) {
		r := &opt.Scratch.rand
		r.Seed(rng.Mix64(opt.Seed ^ 0x6A09E667F3BCC909))
		loads, placements, res := epochBuffers(opt.Scratch, p)
		for i := int64(0); i < p.M; i++ {
			best := -1
			var bestLoad int64
			for j := 0; j < d; j++ {
				b := r.Intn(p.N)
				t := loads[b]
				if base != nil {
					t += base[b]
				}
				if best < 0 || t < bestLoad {
					best, bestLoad = b, t
				}
			}
			loads[best]++
			placements[i] = int32(best)
		}
		*res = model.Result{
			Problem: p, Loads: loads, Rounds: 1, Placements: placements,
			Metrics: model.Metrics{
				BallRequests: p.M * int64(d), BinReplies: p.M * int64(d),
				TotalMessages: 2 * p.M * int64(d), MaxBallSent: int64(d),
			},
		}
		if opt.Trace {
			res.TraceRemaining = []int64{p.M}
		}
		return res, nil
	}
}

// oneshotRunner hashes every ball to a uniform bin; no coordination, so
// residual loads are ignored (that is the point of the foil).
func oneshotRunner(p model.Problem, _ []int64, opt runOpts) (*model.Result, error) {
	r := &opt.Scratch.rand
	r.Seed(rng.Mix64(opt.Seed ^ 0xBB67AE8584CAA73B))
	loads, placements, res := epochBuffers(opt.Scratch, p)
	for i := int64(0); i < p.M; i++ {
		b := r.Intn(p.N)
		loads[b]++
		placements[i] = int32(b)
	}
	*res = model.Result{
		Problem: p, Loads: loads, Rounds: 1, Placements: placements,
		Metrics: model.Metrics{BallRequests: p.M, TotalMessages: p.M, MaxBallSent: 1},
	}
	if opt.Trace {
		res.TraceRemaining = []int64{p.M}
	}
	return res, nil
}
