// Command benchmark is the repository's end-to-end benchmark. It runs the
// real stack in process — the paper's Aheavy on both engines, a sharded
// serve.Service behind its HTTP handler, and a cluster.Router over two
// replicas — under four workloads, checks that every output is correct,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
//
// An untraced run reports the end-to-end metrics; a traced run (-trace 1)
// reports the per-layer metrics instead, timed from outside around each
// layer's public calls. Any failed correctness gate or operation exits 1
// without metrics.
//
// Usage:
//
//	benchmark -workload <name|all> -seed S [-seconds T] [-trace 0|1] [-out file]
//	benchmark -agree a.json b.json
//
// See README.md for the workloads, the metrics and the recipes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every workload input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window, in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	out := fs.String("out", "", "append each run's record (environment, manifest, metrics, spans) to this file, one JSON object per line")
	agreeMode := fs.Bool("agree", false, "compare the untraced runs of two -out files against BENCHMARK.json's bounds: -agree a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agreeMode {
		return runAgree(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1, -seconds must be positive, and no arguments follow the flags")
		return 2
	}
	if *workloadName == "all" {
		return runAll(names, *seed, *seconds, *trace, *out, stdout, stderr)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s, or all)\n", *workloadName, strings.Join(names, ", "))
		return 2
	}
	cfg := w.full
	cfg.Seconds = *seconds
	rec, err := measure(w.name, cfg, *seed, *trace == 1)
	if *out != "" {
		if werr := appendRecord(*out, rec); werr != nil {
			fmt.Fprintf(stderr, "benchmark: writing %s: %v\n", *out, werr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printRecord(stdout, rec)
	return 0
}

// printRecord prints a run's metrics and diagnostics for people, then
// the result line.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  measured %gs  %s GOMAXPROCS=%d nproc=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Config.Seconds, rec.Env.Go, rec.Env.GOMAXPROCS, rec.Env.NProc)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	var diag []string
	for k, v := range rec.Diagnostics {
		diag = append(diag, fmt.Sprintf("%s=%.6g", k, v))
	}
	sort.Strings(diag)
	fmt.Fprintf(w, "  diagnostics: %s\n", strings.Join(diag, " "))
	var checks []string
	for _, name := range rec.Manifest.ChecksExecuted {
		checks = append(checks, fmt.Sprintf("%s=%d", name, rec.Manifest.PassCounts[name]))
	}
	fmt.Fprintf(w, "  checks passed: %s\n", strings.Join(checks, " "))
	line, _ := json.Marshal(resultLine{Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// runAll runs every workload, each in its own process so that peak RSS
// is the workload's own, and ends with one result line whose metrics are
// named workload.metric.
func runAll(names []string, seed uint64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	total := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, name := range names {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", name, err)
			total.Correct = false
			code = 1
			continue
		}
		res, err := lastResult(&buf)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", name, err)
			total.Correct = false
			code = 1
			continue
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// lastResult parses the result line a run printed last.
func lastResult(r io.Reader) (*resultLine, error) {
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if last == "" {
		return nil, errors.New("printed no result line")
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

func runAgree(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "benchmark: -agree takes two result files")
		return 2
	}
	sp, err := loadSpec(findSpec())
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readRecords(files[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readRecords(files[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if !agree(sp, a, b, stdout) {
		fmt.Fprintln(stdout, "agree: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "agree: OK")
	return 0
}
