// Command pba-bench regenerates the reproduction's experiment tables
// (E1–E17; see DESIGN.md for the experiment index). By default every
// experiment runs at full scale and tables print to stdout; -quick shrinks
// the sweeps for a fast smoke run.
//
// Usage:
//
//	pba-bench                 # run everything (E1..E17)
//	pba-bench -e E9           # one experiment
//	pba-bench -quick -seeds 3 # fast pass
//	pba-bench -csv -out dir   # also write one CSV per experiment
//
// With -serve it becomes a load generator for a running pba-serve
// instance instead: -clients concurrent clients each depart a -churn
// fraction of their live jobs and allocate -batch fresh ones per batch
// (probing /healthz first), reporting epoch-latency percentiles
// (p50/p95/p99), aggregate throughput (epochs/s, balls/s), and the
// server's final /stats. Each client drives the data plane over one
// persistent pipelined TCP connection (release and allocate flushed
// together; -pipeline=false falls back to net/http keep-alive), speaking
// either the JSON API or the compact binary wire framing (-proto
// json|binary). The server's /metrics is scraped before and after the
// run and the delta printed as a per-stage breakdown (decode, route,
// batch_wait, epoch_run, commit, encode) of where the client-side
// latency went; -metrics-out writes that summary as JSON. More than one
// client exercises the server's per-cell epoch coalescing.
//
//	pba-serve -n 512 -shards 4 &
//	pba-bench -serve http://127.0.0.1:8380 -clients 4 -batches 20 -batch 5000 -churn 0.2 -proto binary
//
// With -cluster it instead checks the cluster tier's determinism
// contract against a fresh pba-router: a sequential churn trace plays
// against the router while the identical trace replays on an in-process
// single-node service with the router's topology, asserting batch by
// batch that both grant the same ball IDs and, at the end, that the
// cluster fingerprint equals the single process's combined fingerprint.
// -migrate-every schedules live cell migrations mid-trace, which must
// not perturb either stream.
//
//	pba-bench -cluster http://127.0.0.1:9100 -batches 20 -batch 2000 -churn 0.3 -migrate-every 5
//
// With -cluster and -clients > 1 it becomes a concurrent soak against
// the router instead (no sequential replay — concurrency voids the
// fixed-trace contract): each client plays its own churn trace over a
// pipelined connection, per-client epoch-latency percentiles
// (p50/p95/p99) are printed alongside the aggregate throughput, and the
// router's group-commit telemetry — the per-upstream batch-size
// histogram, frame counts, and flush reasons — is scraped from /metrics
// before and after the run; watch the coalescing window engage as
// -clients grows.
//
//	pba-bench -cluster http://127.0.0.1:9100 -clients 8 -batches 50 -batch 512 -churn 0.3 -proto binary
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

		serveURL   = flag.String("serve", "", "load-generator mode: base URL of a running pba-serve (e.g. http://127.0.0.1:8380)")
		clusterURL = flag.String("cluster", "", "determinism-check mode: base URL of a fresh pba-router; replays the trace on an in-process single service and asserts ID + fingerprint identity")
		migEvery   = flag.Int("migrate-every", 0, "cluster mode: live-migrate one cell every this many batches (0 = none)")
		clients    = flag.Int("clients", 1, "loadgen: concurrent clients (each plays its own churn trace)")
		batches    = flag.Int("batches", 10, "loadgen: allocate batches (epochs) per client")
		batch      = flag.Int("batch", 1000, "loadgen: jobs per batch")
		churn      = flag.Float64("churn", 0.2, "loadgen: fraction of live jobs released before each batch")
		proto      = flag.String("proto", "json", "loadgen: data-plane encoding, json or binary (the compact wire framing)")
		pipeline   = flag.Bool("pipeline", true, "loadgen: one persistent pipelined connection per client (release+allocate flushed together); false uses net/http keep-alive")
		metricsOut = flag.String("metrics-out", "", "loadgen: write the server-side stage summary (from /metrics deltas) to this JSON file")
	)
	flag.Parse()

	if *clusterURL != "" {
		cfg := clustergenConfig{
			Base: *clusterURL, Batches: *batches, Batch: *batch,
			Churn: *churn, Seed: *baseSeed, Proto: *proto,
			Pipeline: *pipeline, MigrateEvery: *migEvery,
		}
		var err error
		if *clients > 1 {
			err = clustersoak(cfg, *clients)
		} else {
			err = clustergen(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pba-bench: cluster: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serveURL != "" {
		err := loadgen(loadgenConfig{
			Base: *serveURL, Clients: *clients, Batches: *batches,
			Batch: *batch, Churn: *churn, Seed: *baseSeed,
			Proto: *proto, Pipeline: *pipeline,
			MetricsOut: *metricsOut,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pba-bench: loadgen: %v\n", err)
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
