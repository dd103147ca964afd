package bench

import (
	"fmt"
	"math"

	"repro/internal/asym"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ratioSweep returns the m/n sweep used by the upper-bound experiments.
func ratioSweep(quick bool) []int64 {
	if quick {
		return []int64{16, 256, 4096}
	}
	return []int64{16, 64, 256, 1024, 4096, 16384, 65536, 1 << 20}
}

// E1AheavyLoad measures the excess load of Aheavy across the ratio sweep:
// the paper's headline m/n + O(1).
func E1AheavyLoad(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E1",
		Title:   "Aheavy maximal load",
		Claim:   "max load = m/n + O(1) w.h.p. (Theorem 1/6)",
		Columns: []string{"n", "m/n", "excess(mean)", "excess(max)", "one-shot excess", "gini"},
	}
	var worstExcess float64
	for _, ratio := range ratioSweep(cfg.Quick) {
		p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
		var excess stats.Running
		var gini stats.Running
		for s := 0; s < cfg.Seeds; s++ {
			res, err := cfg.run("aheavy", p, s)
			if err != nil {
				return nil, fmt.Errorf("E1 ratio %d: %w", ratio, err)
			}
			excess.Add(float64(res.Excess()))
			gini.Add(res.Gini())
		}
		if excess.Max() > worstExcess {
			worstExcess = excess.Max()
		}
		t.AddRow(
			fmt.Sprintf("%d", cfg.N),
			fmt.Sprintf("%d", ratio),
			fmt.Sprintf("%.2f", excess.Mean()),
			fmt.Sprintf("%.0f", excess.Max()),
			fmt.Sprintf("%.0f", model.TheoreticalOneShotExcess(p)),
			fmt.Sprintf("%.5f", gini.Mean()),
		)
	}
	t.AddCheck("worst excess", worstExcess, "<=", 10)
	return t, nil
}

// E2AheavyRounds measures Aheavy's rounds against log log(m/n) + log* n.
func E2AheavyRounds(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E2",
		Title:   "Aheavy round count",
		Claim:   "O(log log(m/n) + log* n) rounds (Theorem 1/6)",
		Columns: []string{"m/n", "rounds(mean)", "rounds(max)", "phase1(planned)", "loglog(m/n)", "log* n"},
	}
	var xs, ys, maxRounds []float64
	for _, ratio := range ratioSweep(cfg.Quick) {
		p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
		sched, _ := core.Schedule(p, core.Params{})
		var rounds stats.Running
		for s := 0; s < cfg.Seeds; s++ {
			res, err := cfg.run("aheavy", p, s)
			if err != nil {
				return nil, fmt.Errorf("E2 ratio %d: %w", ratio, err)
			}
			rounds.Add(float64(res.Rounds))
		}
		maxRounds = append(maxRounds, rounds.Max())
		ll := stats.LogLog(float64(ratio))
		t.AddRow(
			fmt.Sprintf("%d", ratio),
			fmt.Sprintf("%.1f", rounds.Mean()),
			fmt.Sprintf("%.0f", rounds.Max()),
			fmt.Sprintf("%d", len(sched)),
			fmt.Sprintf("%.1f", ll),
			fmt.Sprintf("%d", stats.LogStar(float64(cfg.N))),
		)
		if ll > 0 {
			xs = append(xs, ll)
			ys = append(ys, rounds.Mean())
		}
	}
	t.AddCheck("rounds(max) rise from smallest to largest m/n", maxRounds[len(maxRounds)-1]-maxRounds[0], "<=", 6)
	if len(xs) >= 2 {
		_, slope, r2 := stats.LinearFit(xs, ys)
		t.AddNote("rounds vs loglog(m/n): slope %.2f (r2=%.3f)", slope, r2)
	}
	return t, nil
}

// E3Messages measures the message complexity of Theorem 6.
func E3Messages(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E3",
		Title:   "Aheavy message complexity",
		Claim:   "O(m) total; balls send O(1) expected / O(log n) whp; bins receive (1+o(1))m/n + O(log n) (Theorem 6)",
		Columns: []string{"m/n", "total/m", "per-ball avg", "max ball sent", "max bin recv", "(m/n)+10ln(n)"},
	}
	var worstTotal float64
	for _, ratio := range ratioSweep(cfg.Quick) {
		p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
		var totalPerM, perBall, maxBall, maxBin stats.Running
		for s := 0; s < cfg.Seeds; s++ {
			res, err := cfg.run("aheavy", p, s)
			if err != nil {
				return nil, fmt.Errorf("E3 ratio %d: %w", ratio, err)
			}
			totalPerM.Add(float64(res.Metrics.BallRequests) / float64(p.M))
			perBall.Add(res.Metrics.PerBallAvg(p.M))
			maxBall.Add(float64(res.Metrics.MaxBallSent))
			maxBin.Add(float64(res.Metrics.MaxBinReceived))
		}
		worstTotal = max(worstTotal, totalPerM.Max())
		bound := p.AvgLoad() + 10*math.Log(float64(cfg.N))
		t.AddRow(
			fmt.Sprintf("%d", ratio),
			fmt.Sprintf("%.3f", totalPerM.Mean()),
			fmt.Sprintf("%.3f", perBall.Mean()),
			fmt.Sprintf("%.0f", maxBall.Max()),
			fmt.Sprintf("%.0f", maxBin.Max()),
			fmt.Sprintf("%.0f", bound),
		)
	}
	t.AddCheck("worst total requests/m", worstTotal, "<=", 3)
	t.AddNote("max bin recv is shown beside (m/n)+10ln(n) for comparison; no bound is checked on it")
	return t, nil
}

// E4Trajectory compares the measured remaining-ball trajectory against the
// deterministic estimate m̃_i (Claim 2: they agree exactly w.h.p. while
// m̃_i is large).
func E4Trajectory(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ratio := int64(1 << 16)
	if cfg.Quick {
		ratio = 1 << 12
	}
	p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
	res, err := sweep.Run("aheavy!mass", p, sweep.Options{Seed: cfg.seed(0), Workers: cfg.Workers, Trace: true})
	if err != nil {
		return nil, err
	}
	_, est := core.Schedule(p, core.Params{})
	t := &Table{
		ID:      "E4",
		Title:   "Phase-1 trajectory vs bins' estimate",
		Claim:   "m_i = m̃_i w.h.p. while m̃_i > n·polylog(n) (Claim 2); m̃_{i+1} = m̃_i^(2/3)·n^(1/3)",
		Columns: []string{"round", "remaining (measured)", "estimate m̃_i", "measured/estimate"},
	}
	exact, compared := 0, min(len(res.TraceRemaining), len(est))
	for i := 0; i < compared; i++ {
		got := float64(res.TraceRemaining[i])
		want := est[i]
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.0f", got),
			fmt.Sprintf("%.0f", want),
			fmt.Sprintf("%.4f", got/want),
		)
		if math.Abs(got-want) <= 0.01*want {
			exact++
		}
	}
	t.AddNote("%d of %d compared rounds match the estimate within 1%%", exact, compared)
	return t, nil
}

// E5OneShot measures the naive one-shot allocation and fits the excess
// growth exponent.
func E5OneShot(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E5",
		Title:   "One-shot random allocation",
		Claim:   "max load = m/n + Θ(sqrt((m/n)·log n)) for m ≥ n log n",
		Columns: []string{"m/n", "excess(mean)", "predicted sqrt(2(m/n)ln n)", "ratio"},
	}
	var mus, excesses []float64
	for _, ratio := range ratioSweep(cfg.Quick) {
		p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
		var excess stats.Running
		for s := 0; s < cfg.Seeds; s++ {
			res, err := cfg.run("oneshot", p, s)
			if err != nil {
				return nil, err
			}
			excess.Add(float64(res.Excess()))
		}
		pred := model.TheoreticalOneShotExcess(p)
		t.AddRow(
			fmt.Sprintf("%d", ratio),
			fmt.Sprintf("%.1f", excess.Mean()),
			fmt.Sprintf("%.1f", pred),
			fmt.Sprintf("%.3f", excess.Mean()/pred),
		)
		mus = append(mus, float64(ratio))
		excesses = append(excesses, excess.Mean())
	}
	_, alpha, r2 := stats.PowerFit(mus, excesses)
	t.AddNote("excess grows like (m/n)^%.3f (r2=%.3f); theory predicts exponent 0.5", alpha, r2)
	return t, nil
}

// E6Greedy compares the sequential/batched multiple-choice baselines with
// Aheavy at two load ratios.
func E6Greedy(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E6",
		Title:   "d-choice baselines vs Aheavy",
		Claim:   "Greedy[2] excess = O(log log n), independent of m (BCSV06); Aheavy matches with O(loglog(m/n)) parallel rounds",
		Columns: []string{"m/n", "algorithm", "excess(mean)", "excess(max)", "rounds"},
	}
	ratios := []int64{16, 1024}
	if cfg.Quick {
		ratios = []int64{16, 256}
	}
	seeds := cfg.Seeds
	if seeds > 5 {
		seeds = 5 // sequential Greedy is O(m); cap the repetition
	}
	for _, ratio := range ratios {
		p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
		variants := []struct{ name, alg string }{
			{"greedy[1]", "greedy:1"},
			{"greedy[2]", "greedy:2"},
			{"batched[2] b=n", "batched:2"},
			{"aheavy", "aheavy"},
		}
		for _, v := range variants {
			var excess stats.Running
			var rounds stats.Running
			for s := 0; s < seeds; s++ {
				res, err := cfg.run(v.alg, p, s)
				if err != nil {
					return nil, fmt.Errorf("E6 %s: %w", v.name, err)
				}
				excess.Add(float64(res.Excess()))
				rounds.Add(float64(res.Rounds))
			}
			t.AddRow(
				fmt.Sprintf("%d", ratio),
				v.name,
				fmt.Sprintf("%.1f", excess.Mean()),
				fmt.Sprintf("%.0f", excess.Max()),
				fmt.Sprintf("%.0f", rounds.Mean()),
			)
		}
	}
	t.AddNote("greedy[2] and aheavy keep O(1)-ish excess independent of m/n; greedy[1] degrades; aheavy needs only O(loglog(m/n)) rounds vs m sequential steps")
	return t, nil
}

// E7Alight validates the Alight substrate: load cap 2, ~log* n rounds,
// O(n) messages.
func E7Alight(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E7",
		Title:   "Alight substrate (m = n)",
		Claim:   "bin load ≤ 2 within log*(n)+O(1) rounds, O(n) messages (Theorem 5, LW16)",
		Columns: []string{"n", "rounds(mean)", "rounds(max)", "log* n", "max load", "msgs/ball"},
	}
	ns := []int{1 << 10, 1 << 14, 1 << 17, 1 << 20}
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 13, 1 << 16}
	}
	seeds := cfg.Seeds
	if seeds > 5 {
		seeds = 5
	}
	var worstLoad int64
	var worstRounds float64
	for _, n := range ns {
		var rounds, msgs stats.Running
		var maxLoad int64
		for s := 0; s < seeds; s++ {
			res, err := cfg.run("alight", model.Problem{M: int64(n), N: n}, s)
			if err != nil {
				return nil, fmt.Errorf("E7 n=%d: %w", n, err)
			}
			rounds.Add(float64(res.Rounds))
			msgs.Add(res.Metrics.PerBallAvg(int64(n)))
			if res.MaxLoad() > maxLoad {
				maxLoad = res.MaxLoad()
			}
		}
		worstLoad, worstRounds = max(worstLoad, maxLoad), max(worstRounds, rounds.Max())
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", rounds.Mean()),
			fmt.Sprintf("%.0f", rounds.Max()),
			fmt.Sprintf("%d", stats.LogStar(float64(n))),
			fmt.Sprintf("%d", maxLoad),
			fmt.Sprintf("%.2f", msgs.Mean()),
		)
	}
	t.AddCheck("max load", float64(worstLoad), "<=", 2)
	t.AddCheck("rounds(max)", worstRounds, "<=", 8)
	return t, nil
}

// E8Asymmetric validates Theorem 3.
func E8Asymmetric(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "E8",
		Title:   "Asymmetric superbin algorithm",
		Claim:   "m/n + O(1) load in O(1) rounds; bins receive (1+o(1))m/n + O(log n) messages (Theorem 3)",
		Columns: []string{"m/n", "rounds(max)", "planned", "excess(max)", "max bin recv", "(m/n)+O(log n) scale"},
	}
	ratios := []int64{1, 16, 128, 1024}
	if cfg.Quick {
		ratios = []int64{1, 64}
	}
	seeds := cfg.Seeds
	if seeds > 5 {
		seeds = 5
	}
	var worstRounds, worstExcess float64
	for _, ratio := range ratios {
		p := model.Problem{M: int64(cfg.N) * ratio, N: cfg.N}
		planned := asym.PlannedRounds(p)
		var rounds, excess, maxBin stats.Running
		for s := 0; s < seeds; s++ {
			res, err := cfg.run("asym", p, s)
			if err != nil {
				return nil, fmt.Errorf("E8 ratio %d: %w", ratio, err)
			}
			rounds.Add(float64(res.Rounds))
			excess.Add(float64(res.Excess()))
			maxBin.Add(float64(res.Metrics.MaxBinReceived))
		}
		worstRounds, worstExcess = max(worstRounds, rounds.Max()), max(worstExcess, excess.Max())
		logn := math.Log(float64(cfg.N))
		t.AddRow(
			fmt.Sprintf("%d", ratio),
			fmt.Sprintf("%.0f", rounds.Max()),
			fmt.Sprintf("%d", planned),
			fmt.Sprintf("%.0f", excess.Max()),
			fmt.Sprintf("%.0f", maxBin.Max()),
			fmt.Sprintf("%.0f", p.AvgLoad()+400*logn),
		)
	}
	t.AddCheck("rounds(max)", worstRounds, "<=", 7)
	t.AddCheck("excess(max)", worstExcess, "<=", 30)
	return t, nil
}
