// Command benchgate enforces pairwise performance gates on `go test
// -bench` output read from stdin:
//
//	go test -run '^$' -bench . -cpu 4 ./internal/cluster | go run ./tools/benchgate \
//	  -assert-le 'balls_per_s:2*ClusterThroughput/replicas=1@4<=ClusterThroughput/replicas=3@4'
//
// Each -assert-le 'metric:refA<=refB' exits 1 when refA's metric exceeds
// refB's. A ref is a benchmark name without its "Benchmark" prefix,
// optionally pinned to one GOMAXPROCS with "@N" and scaled by a
// "factor*" prefix. A ref that matches repeated results at one GOMAXPROCS
// (go test -count) reads their median. A metric is ns_per_op,
// bytes_per_op, allocs_per_op, or a b.ReportMetric unit with "/" spelled
// "_per_" and "-" spelled "_" (balls/s is balls_per_s). Lines that are not
// benchmark results are ignored.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Custom b.ReportMetric columns
// (epochs/s, balls/s, state-B/ball, ...) land in Extra under
// identifier-safe names (epochs_per_s, ...).
type Result struct {
	Name        string
	Gomaxprocs  int
	Iterations  int64
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	Extra       map[string]float64
}

// metricKey turns a benchmark unit into an identifier: "epochs/s" ->
// "epochs_per_s", "state-B/ball" -> "state_B_per_ball".
var metricKey = strings.NewReplacer("/", "_per_", "-", "_")

func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	// go test appends "-GOMAXPROCS" when it is not 1; peel it off the name
	// into its own field (sub-benchmark names can themselves contain "-",
	// so only an all-digits tail counts).
	name, procs := strings.TrimPrefix(fields[0], "Benchmark"), 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	r := Result{
		Name:       name,
		Gomaxprocs: procs,
		Iterations: iters,
	}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			ok = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			// A custom b.ReportMetric column; "MB/s" etc. also land here.
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[metricKey.Replace(unit)] = v
		}
	}
	return r, ok
}

// listFlag collects a repeatable flag's raw values.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

// findResult resolves a "name" or "name@gomaxprocs" reference to the
// results it matches, folded into one by median (repeated runs of one
// benchmark). No match, or matches at several GOMAXPROCS, is an error so a
// typo or a missing -cpu pin cannot silently compare the wrong records.
func findResult(results []Result, ref string) (Result, error) {
	name, cpuStr, hasCPU := strings.Cut(ref, "@")
	cpu := 0
	if hasCPU {
		var err error
		if cpu, err = strconv.Atoi(cpuStr); err != nil {
			return Result{}, fmt.Errorf("ref %q: bad gomaxprocs %q", ref, cpuStr)
		}
	}
	var matches []Result
	for _, r := range results {
		if r.Name == name && (!hasCPU || r.Gomaxprocs == cpu) {
			matches = append(matches, r)
		}
	}
	if len(matches) == 0 {
		return Result{}, fmt.Errorf("no benchmark matches %q", ref)
	}
	for _, r := range matches {
		if r.Gomaxprocs != matches[0].Gomaxprocs {
			return Result{}, fmt.Errorf("%q matches benchmarks at GOMAXPROCS %d and %d; pin one with name@gomaxprocs", ref, matches[0].Gomaxprocs, r.Gomaxprocs)
		}
	}
	return medianResult(matches), nil
}

// medianResult folds repeated results of one benchmark, which report the
// same columns, into one whose every column is the median of theirs.
func medianResult(rs []Result) Result {
	column := func(get func(Result) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = get(r)
		}
		return median(vs)
	}
	m := rs[0]
	m.NsPerOp = column(func(r Result) float64 { return r.NsPerOp })
	m.BytesPerOp = column(func(r Result) float64 { return r.BytesPerOp })
	m.AllocsPerOp = column(func(r Result) float64 { return r.AllocsPerOp })
	m.Extra = make(map[string]float64, len(rs[0].Extra))
	for key := range rs[0].Extra {
		m.Extra[key] = column(func(r Result) float64 { return r.Extra[key] })
	}
	return m
}

// median returns the middle value of vs, or the mean of the middle two
// for an even count. It sorts vs.
func median(vs []float64) float64 {
	slices.Sort(vs)
	h := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[h]
	}
	return (vs[h-1] + vs[h]) / 2
}

// metric reads one of a result's numeric columns by its identifier.
func (r Result) metric(key string) (float64, bool) {
	switch key {
	case "ns_per_op":
		return r.NsPerOp, true
	case "bytes_per_op":
		return r.BytesPerOp, true
	case "allocs_per_op":
		return r.AllocsPerOp, true
	}
	v, ok := r.Extra[key]
	return v, ok
}

// resolveScaled reads one side of an -assert-le comparison: a benchmark
// ref with an optional "factor*" prefix scaling its metric (so gates can
// say "2*replicas=1 <= replicas=3"). The prefix only counts when it
// parses as a number — benchmark names themselves never contain '*'.
func resolveScaled(results []Result, ref, metric string) (float64, error) {
	factor := 1.0
	if head, tail, ok := strings.Cut(ref, "*"); ok {
		f, err := strconv.ParseFloat(head, 64)
		if err != nil {
			return 0, fmt.Errorf("ref %q: bad scale factor %q", ref, head)
		}
		factor, ref = f, tail
	}
	r, err := findResult(results, ref)
	if err != nil {
		return 0, err
	}
	v, ok := r.metric(metric)
	if !ok {
		return 0, fmt.Errorf("ref %q has no metric %q", ref, metric)
	}
	return factor * v, nil
}

// checkAsserts evaluates -assert-le "metric:refA<=refB" gates, returning
// an error for the first violated (or malformed) one.
func checkAsserts(asserts listFlag, results []Result) error {
	for _, a := range asserts {
		metric, refs, ok := strings.Cut(a, ":")
		refA, refB, ok2 := strings.Cut(refs, "<=")
		if !ok || !ok2 {
			return fmt.Errorf("-assert-le wants metric:refA<=refB, got %q", a)
		}
		va, err := resolveScaled(results, refA, metric)
		if err != nil {
			return fmt.Errorf("-assert-le %q: %w", a, err)
		}
		vb, err := resolveScaled(results, refB, metric)
		if err != nil {
			return fmt.Errorf("-assert-le %q: %w", a, err)
		}
		if va > vb {
			return fmt.Errorf("assertion failed: %s of %q (%v) > %q (%v)", metric, refA, va, refB, vb)
		}
	}
	return nil
}

func main() {
	var asserts listFlag
	flag.Var(&asserts, "assert-le", "metric:refA<=refB: exit 1 unless refA's metric <= refB's (refs accept name@gomaxprocs and a factor* prefix; repeatable)")
	flag.Parse()
	if len(asserts) == 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: go test -bench ... | benchgate -assert-le 'metric:refA<=refB' [-assert-le ...]")
		os.Exit(2)
	}

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	err := sc.Err()
	if err == nil && len(results) == 0 {
		err = errors.New("no benchmark lines on stdin")
	}
	if err == nil {
		err = checkAsserts(asserts, results)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gate(s) hold over %d benchmark results\n", len(asserts), len(results))
}
