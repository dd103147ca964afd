// Command pba-verify is the reproduction gate: it runs the experiments of
// internal/bench that the registry marks as computing a verdict, at full
// scale (10 seeds, n = 1024), and prints the verdict each one computes
// from its own rows — PASS or FAIL per paper claim, with the statistic and
// its bound. It exits 1 on any FAIL or run error, so it serves as a
// post-install smoke test and as a CI step. An unknown ID, or one whose
// experiment has no verdict, exits 2 before anything runs.
//
//	pba-verify                 # every experiment that has a verdict
//	pba-verify -checks E1,E15  # a subset, by experiment ID
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	only := flag.String("checks", "", "comma-separated experiment IDs to verify (e.g. E1,E15); empty = every experiment with a verdict")
	flag.Parse()
	var list []bench.Experiment
	if *only == "" {
		for _, e := range bench.Registry() {
			if e.Verdict {
				list = append(list, e)
			}
		}
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "pba-verify: unknown experiment %q\n", id)
				os.Exit(2)
			}
			if !e.Verdict {
				fmt.Fprintf(os.Stderr, "pba-verify: %s has no verdict\n", e.ID)
				os.Exit(2)
			}
			list = append(list, e)
		}
	}
	failed := 0
	for _, e := range list {
		tbl, err := e.Run(bench.Config{})
		if err != nil {
			fmt.Printf("FAIL %-4s %s: %v\n", e.ID, e.Title, err)
			failed++
			continue
		}
		if !tbl.Passed() {
			failed++
		}
		word, checks, _ := strings.Cut(tbl.Verdict(), " ")
		fmt.Printf("%s %-4s %s: %s\n", word, e.ID, e.Title, checks)
	}
	if failed > 0 {
		fmt.Printf("\n%d of %d verdicts failed\n", failed, len(list))
		os.Exit(1)
	}
	fmt.Printf("\nall %d verdicts passed\n", len(list))
}
