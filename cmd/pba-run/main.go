// Command pba-run executes one allocation algorithm on one instance and
// prints the outcome: load statistics, rounds, and message counts.
//
// Usage:
//
//	pba-run -alg aheavy -m 1000000 -n 1000
//	pba-run -alg asym -m 65536 -n 256 -seed 7
//	pba-run -alg greedy:3 -m 100000 -n 100
//	pba-run -alg aheavy -m 1e7 -n 1e4 -trace
//	pba-run -alg 'aheavy!mass' -m 1e10 -n 1e6   # count-based mass engine
//
// Algorithms are resolved through the internal/sweep registry: aheavy
// [:beta], asym, alight, oneshot, greedy:d, batched:d[:b], fixed:slack,
// det, adaptive:slack (plus legacy aliases greedy2, light, deterministic,
// aheavy-fast). Parameters ride in the name, and a bare family name takes
// the registry's defaults (greedy is greedy:2). A "!mass" suffix selects
// the count-based mass engine for the families that support it, lifting
// the ball limit to ~10^12.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func parseSize(s string) (int64, error) {
	// Accept integers and forms like 1e7.
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return int64(f), nil
}

func main() {
	var (
		alg     = flag.String("alg", "aheavy!mass", "algorithm (registry name; parameters ride in it, e.g. greedy:3 or aheavy:0.5)")
		mStr    = flag.String("m", "1000000", "number of balls")
		nStr    = flag.String("n", "1000", "number of bins")
		seed    = flag.Uint64("seed", 1, "random seed")
		trace   = flag.Bool("trace", false, "print per-round remaining-ball trace")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list registry algorithms and exit")
	)
	flag.Parse()

	if *list {
		for _, line := range sweep.Describe() {
			fmt.Println(line)
		}
		return
	}

	m, err := parseSize(*mStr)
	if err != nil {
		fatal("bad -m: %v", err)
	}
	nn, err := parseSize(*nStr)
	if err != nil {
		fatal("bad -n: %v", err)
	}
	p := model.Problem{M: m, N: int(nn)}

	algorithm, err := sweep.Resolve(*alg)
	if err != nil {
		fatal("%v", err)
	}
	res, err := algorithm.Run(p, sweep.Options{Seed: *seed, Workers: *workers, Trace: *trace})
	if err != nil {
		fatal("%v", err)
	}
	if err := res.Check(); err != nil {
		fatal("invariant violation: %v", err)
	}

	loads := make([]float64, len(res.Loads))
	for i, l := range res.Loads {
		loads[i] = float64(l)
	}
	qs := stats.Quantiles(loads, 0, 0.5, 0.99, 1)
	fmt.Printf("algorithm      %s\n", algorithm.Name)
	fmt.Printf("instance       m=%d n=%d (m/n = %.1f)\n", p.M, p.N, p.AvgLoad())
	fmt.Printf("rounds         %d\n", res.Rounds)
	fmt.Printf("max load       %d (avg ceil %d, excess %d)\n", res.MaxLoad(), p.CeilAvg(), res.Excess())
	fmt.Printf("load quantiles min=%.0f median=%.0f p99=%.0f max=%.0f\n", qs[0], qs[1], qs[2], qs[3])
	fmt.Printf("gini           %.5f\n", res.Gini())
	fmt.Printf("messages       %s\n", res.Metrics)
	if *trace && len(res.TraceRemaining) > 0 {
		fmt.Printf("trace          %v\n", res.TraceRemaining)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pba-run: "+format+"\n", args...)
	os.Exit(1)
}
