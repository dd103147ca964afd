// Command pba-bench regenerates the reproduction's experiment tables
// (E1–E17; see DESIGN.md for the experiment index). By default every
// experiment runs at full scale and tables print to stdout; -quick shrinks
// the sweeps for a fast smoke run. A table that restates a paper claim
// ends in a "verdict: PASS|FAIL" line computed from its own rows
// (pba-verify prints only those lines).
//
// Usage:
//
//	pba-bench                 # run everything (E1..E17)
//	pba-bench -e E9           # one experiment
//	pba-bench -quick -seeds 3 # fast pass
//	pba-bench -csv -out dir   # also write one CSV per experiment
//
// With -serve or -check it becomes instead a load driver for a running
// pba-serve or pba-router; both speak the same client protocol. Each of
// -clients concurrent clients plays its own churn trace over one
// persistent pipelined connection, speaking the JSON API or the compact
// binary wire framing (-proto json|binary): every batch it departs a
// -churn fraction of its live jobs, then allocates -batch fresh ones.
// Both modes end with the same report: per-client and merged epoch
// latency percentiles (p50/p95/p99), throughput (epochs/s, balls/s), the
// target's /metrics delta and its final /stats. The delta is the
// per-stage table of where the latency went inside the server (decode,
// route, batch_wait, epoch_run, commit, encode) and, from a router, the
// per-upstream group-commit table (frames, mean subs per frame, flush
// reasons).
//
// -serve soaks the target; more clients exercise the server's per-cell
// epoch coalescing and the router's multi-sub upstream frames.
//
//	pba-serve -n 512 -shards 4 &
//	pba-bench -serve http://127.0.0.1:8380 -clients 4 -batches 20 -batch 5000 -churn 0.2 -proto binary
//
// -check asserts the determinism contract against a fresh target. Its one
// client's trace replays batch by batch on an in-process service with the
// topology the target's /stats reports: both must grant the same ball IDs
// every batch and end with the same fingerprint. Against a router,
// -migrate-every schedules live cell migrations mid-trace, which must not
// perturb either stream.
//
//	pba-bench -check http://127.0.0.1:9100 -batches 20 -batch 2000 -churn 0.3 -migrate-every 5
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp      = flag.String("e", "all", "experiment ID (E1..E17) or 'all'")
		seeds    = flag.Int("seeds", 10, "independent runs per configuration")
		n        = flag.Int("n", 1024, "default bin count for single-n sweeps")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast pass")
		csv      = flag.Bool("csv", false, "also write CSV files")
		outDir   = flag.String("out", ".", "directory for CSV output")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		baseSeed = flag.Uint64("seed", 0, "base seed offset")
		mode     = flag.String("mode", "", "engine for the Aheavy sweeps: mass (default) or agent")

		serveURL = flag.String("serve", "", "load driver: soak a running pba-serve or pba-router at this base URL (e.g. http://127.0.0.1:8380)")
		checkURL = flag.String("check", "", "load driver: check a fresh pba-serve or pba-router at this base URL against an in-process replay (grant IDs and fingerprint)")
		migEvery = flag.Int("migrate-every", 0, "-check against a router: live-migrate one cell every this many batches (0 = none)")
		clients  = flag.Int("clients", 1, "load driver: concurrent clients, each playing its own churn trace (-check plays one)")
		batches  = flag.Int("batches", 10, "load driver: allocate batches (epochs) per client")
		batch    = flag.Int("batch", 1000, "load driver: jobs per batch")
		churn    = flag.Float64("churn", 0.2, "load driver: fraction of live jobs released before each batch")
		proto    = flag.String("proto", "json", "load driver: data-plane encoding, json or binary (the compact wire framing)")
	)
	flag.Parse()

	if *serveURL != "" || *checkURL != "" {
		err := drive(driveConfig{
			Serve: *serveURL, Check: *checkURL, Clients: *clients,
			Batches: *batches, Batch: *batch, Churn: *churn, Seed: *baseSeed,
			Proto: *proto, MigrateEvery: *migEvery,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pba-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.Config{
		Seeds:    *seeds,
		N:        *n,
		Quick:    *quick,
		Workers:  *workers,
		BaseSeed: *baseSeed,
		Mode:     *mode,
	}

	var list []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		list = bench.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "pba-bench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			list = append(list, e)
		}
	}

	failed := 0
	for _, e := range list {
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pba-bench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		tbl.AddNote("elapsed: %s", time.Since(start).Round(time.Millisecond))
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pba-bench: render %s: %v\n", e.ID, err)
			failed++
			continue
		}
		if *csv {
			path := filepath.Join(*outDir, strings.ToLower(e.ID)+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pba-bench: %v\n", err)
				failed++
				continue
			}
			if err := tbl.RenderCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "pba-bench: csv %s: %v\n", e.ID, err)
				failed++
			}
			f.Close()
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
