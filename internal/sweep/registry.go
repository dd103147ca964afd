// Package sweep is the experiment-orchestration engine: a registry of
// every allocation algorithm under parameterized names, a declarative grid
// Spec expanded into cells, a parallel runner with deterministic per-cell
// seeding, per-cell aggregation through package stats, and resumable JSON
// manifests with content fingerprints.
//
// The registry is the single dispatch point: cmd/pba-run, cmd/pba-sweep
// and the experiment harness behind cmd/pba-bench and cmd/pba-verify
// (internal/bench) all resolve algorithm names here instead of
// hand-rolling switch statements. Names are lower-case families
// with colon-separated parameters:
//
//	aheavy[:beta]        agent-based Aheavy (slack exponent beta, 0 = 2/3)
//	asym                 asymmetric algorithm (Theorem 3)
//	alight               lightly loaded substrate (Theorem 5)
//	oneshot              one-shot random allocation
//	greedy:d             sequential d-choice
//	batched:d[:b]        batched d-choice, batch size b (default n)
//	fixed:slack          fixed-threshold foil (§1.1)
//	det                  deterministic n-round fallback
//	adaptive:slack       state-adaptive threshold allocator
//	online:alg:churn[:epochs]  streaming churn scenario driving alg
//	                     (aheavy[:beta], adaptive[:slack], greedy[:d],
//	                     oneshot, each optionally !mass) through
//	                     internal/online epochs (epochs defaults to 8 and
//	                     is materialized in the canonical name)
//
// A trailing "!mass" suffix selects the count-based mass engine instead of
// the agent engine for the families that support it (aheavy, oneshot,
// fixed, adaptive, greedy): same algorithm, ball limit lifted to ~10^12.
//
// Legacy spellings remain as aliases: greedy2 (pba-sweep), light,
// deterministic, and aheavy-fast[:beta] for aheavy[:beta]!mass.
package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asym"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/light"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/threshold"
)

// Options carries the run-level knobs every registered runner accepts.
type Options struct {
	Seed    uint64
	Workers int
	Trace   bool
}

// Runner executes one algorithm on one instance.
type Runner func(p model.Problem, opt Options) (*model.Result, error)

// MassSuffix selects an algorithm's count-based mass-engine implementation
// when appended to its registry name (e.g. "aheavy!mass", "fixed:2!mass").
const MassSuffix = "!mass"

// Algorithm is a resolved registry entry: a canonical name bound to a
// fully parameterized runner.
type Algorithm struct {
	Name   string // canonical spelling, e.g. "greedy:2" or "aheavy!mass"
	Family string // registry family, e.g. "greedy"
	Mass   bool   // true when the runner executes on the mass engine
	run    Runner
}

// Run executes the algorithm.
func (a Algorithm) Run(p model.Problem, opt Options) (*model.Result, error) {
	return a.run(p, opt)
}

// family is one registry row: a usage pattern plus a builder that turns
// the colon-separated parameter list into a concrete Algorithm. A family
// with a count-based implementation sets mass, and its builder picks that
// runner when the spec carries the "!mass" suffix.
type family struct {
	usage string
	desc  string
	mass  bool
	build func(args []string, mass bool) (Algorithm, error)
}

// aliases maps legacy spellings onto canonical names before family lookup.
// An alias may carry the mass suffix on its family token (aheavy-fast);
// Canonicalize floats it to the end of the spelled-out name.
var aliases = map[string]string{
	"greedy2":       "greedy:2", // pba-sweep's historical spelling
	"light":         "alight",
	"deterministic": "det",
	"aheavy-fast":   "aheavy" + MassSuffix, // pre-substrate spelling of the count-based path
}

var families = map[string]family{
	"aheavy": {
		usage: "aheavy[:beta][!mass]",
		desc:  "symmetric threshold algorithm (Theorem 1); !mass = count-based engine",
		mass:  true,
		build: func(args []string, mass bool) (Algorithm, error) {
			beta, name, err := betaArg("aheavy", args)
			if err != nil {
				return Algorithm{}, err
			}
			run := core.Run
			if mass {
				run = core.RunFast
			}
			return Algorithm{Name: name, Family: "aheavy", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return run(p, core.Config{Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace,
					Params: core.Params{Beta: beta}})
			}}, nil
		},
	},
	"asym": {
		usage: "asym",
		desc:  "asymmetric algorithm: constant rounds (Theorem 3)",
		build: func(args []string, _ bool) (Algorithm, error) {
			if err := noArgs("asym", args); err != nil {
				return Algorithm{}, err
			}
			return Algorithm{Name: "asym", Family: "asym", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return asym.Run(p, asym.Config{Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace})
			}}, nil
		},
	},
	"alight": {
		usage: "alight",
		desc:  "lightly loaded substrate: load cap 2 (Theorem 5)",
		build: func(args []string, _ bool) (Algorithm, error) {
			if err := noArgs("alight", args); err != nil {
				return Algorithm{}, err
			}
			return Algorithm{Name: "alight", Family: "alight", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return light.Run(p, light.Config{Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace})
			}}, nil
		},
	},
	"oneshot": {
		usage: "oneshot[!mass]",
		desc:  "one-shot random allocation, no communication",
		// One-shot already samples the exact multinomial count vector: the
		// agent and mass spellings run the same sampler, bit for bit.
		mass: true,
		build: func(args []string, _ bool) (Algorithm, error) {
			if err := noArgs("oneshot", args); err != nil {
				return Algorithm{}, err
			}
			return Algorithm{Name: "oneshot", Family: "oneshot", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return baseline.OneShot(p, baseline.Config{Seed: opt.Seed})
			}}, nil
		},
	},
	"greedy": {
		usage: "greedy:d[!mass]",
		desc:  "sequential d-choice (BCSV06 baseline)",
		// Greedy is inherently sequential but already count-based (it holds
		// only the load vector, never per-ball agents), so the mass spelling
		// resolves to the same runner: full m range, O(m·d) time.
		mass: true,
		build: func(args []string, _ bool) (Algorithm, error) {
			d, err := intArg("greedy", "d", args, 0, 2)
			if err != nil {
				return Algorithm{}, err
			}
			if len(args) > 1 {
				return Algorithm{}, fmt.Errorf("sweep: greedy takes one parameter (greedy:d), got %d", len(args))
			}
			if d < 1 {
				return Algorithm{}, fmt.Errorf("sweep: greedy needs d >= 1, got %d", d)
			}
			return Algorithm{Name: fmt.Sprintf("greedy:%d", d), Family: "greedy", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return baseline.Greedy(p, d, baseline.Config{Seed: opt.Seed})
			}}, nil
		},
	},
	"batched": {
		usage: "batched:d[:b]",
		desc:  "batched d-choice with batch size b (default n)",
		build: func(args []string, _ bool) (Algorithm, error) {
			if len(args) > 2 {
				return Algorithm{}, fmt.Errorf("sweep: batched takes at most two parameters (batched:d:b), got %d", len(args))
			}
			d, err := intArg("batched", "d", args, 0, 2)
			if err != nil {
				return Algorithm{}, err
			}
			if d < 1 {
				return Algorithm{}, fmt.Errorf("sweep: batched needs d >= 1, got %d", d)
			}
			batch, err := int64Arg("batched", "b", args, 1, 0)
			if err != nil {
				return Algorithm{}, err
			}
			if len(args) == 2 && batch < 1 {
				return Algorithm{}, fmt.Errorf("sweep: batched needs batch >= 1, got %d", batch)
			}
			name := fmt.Sprintf("batched:%d", d)
			if batch > 0 {
				name = fmt.Sprintf("batched:%d:%d", d, batch)
			}
			return Algorithm{Name: name, Family: "batched", run: func(p model.Problem, opt Options) (*model.Result, error) {
				b := batch
				if b == 0 {
					b = int64(p.N)
				}
				return baseline.Batched(p, d, b, baseline.Config{Seed: opt.Seed, Workers: opt.Workers})
			}}, nil
		},
	},
	"fixed": {
		usage: "fixed:slack[!mass]",
		desc:  "fixed-threshold foil: caps at ceil(m/n)+slack every round (§1.1)",
		mass:  true,
		build: func(args []string, mass bool) (Algorithm, error) {
			if len(args) > 1 {
				return Algorithm{}, fmt.Errorf("sweep: fixed takes one parameter (fixed:slack), got %d", len(args))
			}
			slack, err := int64Arg("fixed", "slack", args, 0, 2)
			if err != nil {
				return Algorithm{}, err
			}
			if slack < 0 {
				return Algorithm{}, fmt.Errorf("sweep: fixed needs slack >= 0, got %d", slack)
			}
			run := baseline.FixedThreshold
			if mass {
				run = baseline.FixedThresholdMass
			}
			return Algorithm{Name: fmt.Sprintf("fixed:%d", slack), Family: "fixed", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return run(p, slack, baseline.Config{Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace})
			}}, nil
		},
	},
	"det": {
		usage: "det",
		desc:  "deterministic fallback: exact balance within n rounds (§3)",
		build: func(args []string, _ bool) (Algorithm, error) {
			if err := noArgs("det", args); err != nil {
				return Algorithm{}, err
			}
			return Algorithm{Name: "det", Family: "det", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return baseline.Deterministic(p, baseline.Config{Seed: opt.Seed, Workers: opt.Workers})
			}}, nil
		},
	},
	"adaptive": {
		usage: "adaptive:slack[!mass]",
		desc:  "state-adaptive threshold allocator (fault-tolerant variant's core)",
		mass:  true,
		build: func(args []string, mass bool) (Algorithm, error) {
			if len(args) > 1 {
				return Algorithm{}, fmt.Errorf("sweep: adaptive takes one parameter (adaptive:slack), got %d", len(args))
			}
			slack, err := int64Arg("adaptive", "slack", args, 0, 2)
			if err != nil {
				return Algorithm{}, err
			}
			if slack < 0 {
				return Algorithm{}, fmt.Errorf("sweep: adaptive needs slack >= 0, got %d", slack)
			}
			alg := threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Greedy(slack)}
			run := alg.Run
			if mass {
				run = alg.RunMass
			}
			return Algorithm{Name: fmt.Sprintf("adaptive:%d", slack), Family: "adaptive", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return run(p, threshold.Config{Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace})
			}}, nil
		},
	},
	"online": {
		usage: "online:alg:churn[:epochs]",
		desc:  "streaming churn scenario: alg re-run per epoch over residual load (internal/online)",
		build: func(args []string, _ bool) (Algorithm, error) {
			// The inner algorithm may itself carry colon parameters, so the
			// spec parses from the right: an optional integer epoch count,
			// then the churn rate, then everything left is the algorithm.
			if len(args) < 2 {
				return Algorithm{}, fmt.Errorf("sweep: online needs an algorithm and a churn rate (online:alg:churn[:epochs]), got %q", strings.Join(args, ":"))
			}
			epochs := 0
			if len(args) >= 3 {
				if v, err := strconv.Atoi(args[len(args)-1]); err == nil {
					if v < 1 {
						return Algorithm{}, fmt.Errorf("sweep: online needs epochs >= 1, got %d", v)
					}
					epochs = v
					args = args[:len(args)-1]
				}
			}
			churn, err := strconv.ParseFloat(args[len(args)-1], 64)
			if err != nil {
				return Algorithm{}, fmt.Errorf("sweep: online parameter churn: bad float %q", args[len(args)-1])
			}
			if !(churn >= 0 && churn < 1) { // positive form rejects NaN
				return Algorithm{}, fmt.Errorf("sweep: online needs churn in [0, 1), got %v", churn)
			}
			inner, err := online.ResolveAlg(strings.Join(args[:len(args)-1], ":"))
			if err != nil {
				return Algorithm{}, fmt.Errorf("sweep: %w", err)
			}
			if epochs == 0 {
				epochs = online.DefaultEpochs
			}
			// The default epoch count materializes in the canonical name
			// (like greedy -> greedy:2), so one scenario has one spelling.
			name := "online:" + inner + ":" + formatChurn(churn) + ":" + strconv.Itoa(epochs)
			return Algorithm{Name: name, Family: "online", run: func(p model.Problem, opt Options) (*model.Result, error) {
				return online.Scenario{Balls: p.M, Epochs: epochs, ChurnRate: churn}.Run(online.Config{
					N: p.N, Alg: inner, Seed: opt.Seed, Workers: opt.Workers, Trace: opt.Trace,
				})
			}}, nil
		},
	},
}

// Canonicalize lower-cases, trims, expands legacy aliases (greedy2 →
// greedy:2, aheavy-fast → aheavy!mass), and floats the mass suffix to the
// end, without resolving parameters. Callers that special-case
// parameterized names (those containing ':') should canonicalize first so
// aliases of parameterized names are not mistaken for bare families.
func Canonicalize(name string) string {
	spec := strings.ToLower(strings.TrimSpace(name))
	mass := false
	if s, ok := strings.CutSuffix(spec, MassSuffix); ok {
		spec, mass = s, true
	}
	parts := strings.SplitN(spec, ":", 2)
	if canon, ok := aliases[parts[0]]; ok {
		parts[0] = canon
	}
	// An alias may expand to a mass spelling (aheavy-fast:0.9 →
	// aheavy!mass + ":0.9"); keep the suffix at the very end.
	if s, ok := strings.CutSuffix(parts[0], MassSuffix); ok {
		parts[0], mass = s, true
	}
	spec = strings.Join(parts, ":")
	if mass {
		spec += MassSuffix
	}
	return spec
}

// Resolve parses an algorithm name (family plus colon-separated
// parameters and an optional "!mass" suffix, aliases accepted,
// case-insensitive) into an Algorithm.
func Resolve(name string) (Algorithm, error) {
	spec := Canonicalize(name)
	mass := false
	if s, ok := strings.CutSuffix(spec, MassSuffix); ok {
		spec, mass = s, true
	}
	parts := strings.Split(spec, ":")
	fam, ok := families[parts[0]]
	if !ok {
		return Algorithm{}, fmt.Errorf("sweep: unknown algorithm %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	if mass && !fam.mass {
		return Algorithm{}, fmt.Errorf("sweep: %s has no mass-mode implementation (mass-capable: %s); drop the %q suffix for the agent engine", parts[0], strings.Join(MassNames(), ", "), MassSuffix)
	}
	a, err := fam.build(parts[1:], mass)
	if err != nil || !mass {
		return a, err
	}
	a.Name += MassSuffix
	a.Mass = true
	return a, nil
}

// MustResolve is Resolve for statically known names; it panics on error.
func MustResolve(name string) Algorithm {
	a, err := Resolve(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Run resolves name and executes it on p — the one-line entry point.
func Run(name string, p model.Problem, opt Options) (*model.Result, error) {
	a, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	return a.Run(p, opt)
}

// Names returns every registry family's usage pattern, sorted.
func Names() []string {
	out := make([]string, 0, len(families))
	for _, f := range families {
		out = append(out, f.usage)
	}
	sort.Strings(out)
	return out
}

// MassNames returns the usage patterns of the mass-capable families,
// sorted.
func MassNames() []string {
	var out []string
	for _, f := range families {
		if f.mass {
			out = append(out, f.usage)
		}
	}
	sort.Strings(out)
	return out
}

// Describe returns "usage — desc" lines for CLI help output, sorted.
func Describe() []string {
	out := make([]string, 0, len(families))
	for _, f := range families {
		out = append(out, fmt.Sprintf("%-20s %s", f.usage, f.desc))
	}
	sort.Strings(out)
	return out
}

// formatChurn renders a churn rate so that it can never be mistaken for
// the integer epochs parameter by the right-to-left online spec parser:
// an all-digit rendering (only churn 0) gains an explicit ".0".
func formatChurn(c float64) string {
	s := strconv.FormatFloat(c, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func noArgs(fam string, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("sweep: %s takes no parameters, got %q", fam, strings.Join(args, ":"))
	}
	return nil
}

// intArg returns args[idx] parsed as int, or def when absent.
func intArg(fam, param string, args []string, idx, def int) (int, error) {
	if idx >= len(args) {
		return def, nil
	}
	v, err := strconv.Atoi(args[idx])
	if err != nil {
		return 0, fmt.Errorf("sweep: %s parameter %s: bad integer %q", fam, param, args[idx])
	}
	return v, nil
}

// int64Arg returns args[idx] parsed as int64, or def when absent. For
// two-parameter families the value parameter sits at index 1.
func int64Arg(fam, param string, args []string, idx int, def int64) (int64, error) {
	if idx >= len(args) {
		return def, nil
	}
	v, err := strconv.ParseInt(args[idx], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sweep: %s parameter %s: bad integer %q", fam, param, args[idx])
	}
	return v, nil
}

// betaArg parses the optional slack-exponent parameter of the Aheavy
// variants and renders the canonical name.
func betaArg(fam string, args []string) (beta float64, name string, err error) {
	if len(args) == 0 {
		return 0, fam, nil
	}
	if len(args) > 1 {
		return 0, "", fmt.Errorf("sweep: %s takes one optional parameter (%s:beta), got %d", fam, fam, len(args))
	}
	beta, err = strconv.ParseFloat(args[0], 64)
	if err != nil {
		return 0, "", fmt.Errorf("sweep: %s parameter beta: bad float %q", fam, args[0])
	}
	// Positive-form range check so NaN is rejected too.
	if !(beta >= 0 && beta < 1) {
		return 0, "", fmt.Errorf("sweep: %s needs beta in [0, 1) (0 = paper's 2/3), got %v", fam, beta)
	}
	if beta == 0 {
		return 0, fam, nil
	}
	return beta, fam + ":" + strconv.FormatFloat(beta, 'g', -1, 64), nil
}
