// Command pba-sweep runs algorithms over a geometric m/n grid through the
// internal/sweep engine and emits one CSV row per (algorithm, n, ratio,
// seed) — the raw data behind the E-series tables, convenient for external
// plotting. With -json the full manifest (spec, per-cell aggregates,
// fingerprints) is persisted incrementally, and -resume continues an
// interrupted sweep, re-running only the missing cells.
//
// Usage:
//
//	pba-sweep -alg 'aheavy!mass' -n 1024 -ratios 16,256,4096 -seeds 10 > sweep.csv
//	pba-sweep -alg 'aheavy!mass',oneshot,greedy:2 -n 256,1024 -seeds 5 -json sweep.json
//	pba-sweep -json sweep.json -resume ...            # continue after an interrupt
//
// Algorithm names are registry names (see internal/sweep): aheavy[:beta],
// asym, alight, oneshot, greedy:d, batched:d[:b], fixed:slack, det,
// adaptive:slack — each optionally suffixed "!mass" for the count-based
// mass engine — plus the legacy aliases greedy2, light, deterministic, and
// aheavy-fast (= aheavy!mass). The CSV alg column reports the canonical
// spelling (greedy2 prints as greedy:2, aheavy-fast as aheavy!mass).
//
// -workers parallelizes over grid cells; the worker count inside each
// algorithm run is part of the spec (-alg-workers, default 1) so that a
// sweep's results and manifest fingerprint are bit-identical regardless of
// -workers, machine, or interruption. Raise -alg-workers explicitly for
// single-cell sweeps of very large instances.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

func main() {
	var (
		alg      = flag.String("alg", "aheavy!mass", "comma-separated registry algorithm names")
		nStr     = flag.String("n", "1024", "comma-separated bin counts")
		ratioStr = flag.String("ratios", "16,64,256,1024,4096,16384", "comma-separated m/n values")
		seeds    = flag.Int("seeds", 10, "seeds per cell")
		baseSeed = flag.Uint64("seed", 0, "base seed offset")
		workers  = flag.Int("workers", 0, "parallel cells (0 = GOMAXPROCS)")
		algWork  = flag.Int("alg-workers", 1, "workers inside each algorithm run (kept in the spec so results are scheduling-independent)")
		jsonPath = flag.String("json", "", "persist the sweep manifest to this file (incrementally)")
		resume   = flag.Bool("resume", false, "resume the manifest at -json, skipping completed cells")
		verbose  = flag.Bool("v", false, "log per-cell progress to stderr")
	)
	flag.Parse()

	ns, err := parseInts(*nStr)
	if err != nil {
		fatal(2, "bad -n: %v", err)
	}
	ratios, err := parseInt64s(*ratioStr)
	if err != nil {
		fatal(2, "bad -ratios: %v", err)
	}
	if *resume && *jsonPath == "" {
		fatal(2, "-resume requires -json")
	}
	eng := &sweep.Engine{
		Spec: sweep.Spec{
			Algorithms: strings.Split(*alg, ","),
			Ns:         ns,
			Ratios:     ratios,
			Seeds:      *seeds,
			BaseSeed:   *baseSeed,
			AlgWorkers: *algWork,
		},
		Workers:      *workers,
		ManifestPath: *jsonPath,
		Resume:       *resume,
	}
	// Without a manifest there is no resume safety net, so stream rows to
	// stdout as cells complete (in cell order, like the historical
	// sequential sweep): an interrupted run keeps the rows already done.
	// With -json the manifest holds partial results, cells can be resumed
	// (and skipped cells bypass Progress), so the CSV is written at the
	// end from the manifest instead.
	var str *streamer
	streaming := *jsonPath == ""
	if streaming {
		if err := sweep.WriteCSVHeader(os.Stdout); err != nil {
			fatal(1, "writing CSV: %v", err)
		}
		str = &streamer{cells: make(map[int]*sweep.CellResult)}
	}
	eng.Progress = func(res *sweep.CellResult, done, total int) {
		if str != nil {
			str.add(res)
		}
		if *verbose {
			status := "ok"
			if res.Err != "" {
				status = "FAIL: " + res.Err
			}
			fmt.Fprintf(os.Stderr, "pba-sweep: [%d/%d] %s (%.0f ms) %s\n",
				done, total, res.Key(), res.ElapsedMS, status)
		}
	}

	out, err := eng.Run()
	if err != nil {
		// The engine finishes every cell it can even when some fail; emit
		// the completed cells' rows before exiting nonzero so a long sweep
		// with one bad cell doesn't lose its results.
		if out != nil && !streaming {
			if werr := sweep.WriteCSV(os.Stdout, out.Manifest); werr != nil {
				fmt.Fprintf(os.Stderr, "pba-sweep: writing CSV: %v\n", werr)
			}
		}
		fatal(1, "%v", err)
	}
	if !streaming {
		if err := sweep.WriteCSV(os.Stdout, out.Manifest); err != nil {
			fatal(1, "writing CSV: %v", err)
		}
	}
	if *verbose || out.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "pba-sweep: %d cells run, %d resumed, fingerprint %.12s, %.1fs\n",
			out.Ran, out.Skipped, out.Manifest.ResultFingerprint, out.Elapsed.Seconds())
	}
}

// streamer emits completed cells' CSV rows in cell-index order as soon as
// the contiguous prefix is done. The engine serializes Progress calls, so
// no extra locking is needed.
type streamer struct {
	cells map[int]*sweep.CellResult
	next  int
}

func (s *streamer) add(res *sweep.CellResult) {
	s.cells[res.Index] = res
	for {
		c, ok := s.cells[s.next]
		if !ok {
			return
		}
		if err := sweep.WriteCellCSV(os.Stdout, c); err != nil {
			fmt.Fprintf(os.Stderr, "pba-sweep: writing CSV: %v\n", err)
			return
		}
		delete(s.cells, s.next)
		s.next++
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("%q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pba-sweep: "+format+"\n", args...)
	os.Exit(code)
}
