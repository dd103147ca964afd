package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is every key BENCHMARK.json may hold; readSpec rejects
// any other.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSpecMatchesCode: BENCHMARK.json declares exactly the workloads and
// metrics the code runs and reports, within the declared limits.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(s.EndToEnd), len(s.PerLayer))
	}
	var specWorkloads, codeWorkloads []string
	for _, w := range s.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	if fmt.Sprint(specWorkloads) != fmt.Sprint(codeWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", specWorkloads, codeWorkloads)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit, better string, code []metricDef, i int) {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: invalid or repeated name", kind, name)
		}
		seen[name] = true
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better is %q", name, better)
		}
		if i >= len(code) || code[i].Name != name || code[i].Unit != unit {
			t.Errorf("%s metric %d is %s (%s) in BENCHMARK.json but not in the code's list", kind, i, name, unit)
		}
	}
	for i, m := range s.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, endToEnd, i)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	for i, m := range s.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, perLayer, i)
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the code reports %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestWorkloadsSmall runs every workload at its reduced size, untraced
// and traced, through the code the command runs: each passes its
// correctness gates and reports exactly the metrics BENCHMARK.json
// declares, ending its output with a parseable result line.
func TestWorkloadsSmall(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				rec, err := measure(w.name, w.small, 7, trace)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				if trace {
					for _, m := range s.PerLayer {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range s.EndToEnd {
						want = append(want, m.Name)
					}
				}
				var got []string
				for name := range rec.Metrics {
					got = append(got, name)
				}
				sort.Strings(want)
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if !trace {
					for name, v := range rec.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v; must be positive", name, v.Value)
						}
					}
				}
				if rec.Attempted < 1 || len(rec.Manifest.ChecksExecuted) == 0 {
					t.Errorf("attempted %d ops, executed checks %v", rec.Attempted, rec.Manifest.ChecksExecuted)
				}
				for name, n := range rec.Manifest.RejectionCounts {
					t.Errorf("check %s rejected %d times in a passing run", name, n)
				}
				var out bytes.Buffer
				printRecord(&out, rec)
				res, err := lastResult(&out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(want) {
					t.Errorf("result line %+v", res)
				}
				if trace && (rec.Spans == nil || len(rec.Spans.Rows) == 0) {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// TestQuietMetrics: steps are filed under the slice they ended in, and
// the timing metrics come from the fastest quarter of the full-length
// slices only.
func TestQuietMetrics(t *testing.T) {
	ms := int64(time.Millisecond)
	sl := int64(sliceLen)
	w := &window{}
	// Eight full slices and a short last one; slice i ends i+1 steps of 2
	// balls, the short one the most of all.
	for i := int64(0); i <= 9; i++ {
		at := min(i*sl, 8*sl+ms)
		w.samples = append(w.samples, cpuSample{at: at, cpu: time.Duration(at / 2)})
	}
	for i := int64(0); i < 8; i++ {
		for k := int64(0); k <= i; k++ {
			w.ends = append(w.ends, i*sl+k)
			w.lat = append(w.lat, (10-i)*ms)
		}
	}
	for k := int64(0); k < 20; k++ {
		w.ends = append(w.ends, 8*sl+ms/2)
		w.lat = append(w.lat, ms)
	}
	cut := cutSlices(w, 2)
	if len(cut) != 9 || cut[0].balls != 2 || cut[7].balls != 16 || cut[8].balls != 40 {
		t.Fatalf("slices %+v", cut)
	}
	m := map[string]float64{}
	quietMetrics(m, cut)
	// The two fastest full slices, 7 and 6: 30 balls in 2 slices, eight
	// steps of 3 ms and seven of 4 ms, CPU half of their time.
	wantRate := 30 / (2 * sliceLen.Seconds())
	if got := m["throughput_balls_per_s"]; got < wantRate*0.999 || got > wantRate*1.001 {
		t.Errorf("throughput %v, want %v", got, wantRate)
	}
	if got := m["latency_p50_ms"]; got != 3 {
		t.Errorf("median latency %v ms, want 3", got)
	}
	if got, want := m["cpu_ns_per_ball"], float64(sl)/30; got < want*0.999 || got > want*1.001 {
		t.Errorf("CPU per ball %v ns, want %v", got, want)
	}
}

// TestAgree: two sets of the same numbers agree; a set whose medians
// moved past a metric's bound does not.
func TestAgree(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}}}
	set := func(values ...float64) []record {
		var out []record
		for _, v := range values {
			out = append(out, record{Workload: "w", Correct: true,
				Metrics: map[string]metricValue{"latency_p50_ms": {Value: v, Unit: "ms"}}})
		}
		// Traced and failed runs never count.
		out = append(out, record{Workload: "w", Correct: true, Trace: true,
			Metrics: map[string]metricValue{"latency_p50_ms": {Value: 100, Unit: "ms"}}})
		return append(out, record{Workload: "w"})
	}
	var sink bytes.Buffer
	if !agree(sp, set(1.0, 1.1, 0.9), set(1.05, 0.95, 1.0, 2.0), &sink) {
		t.Errorf("medians 1.0 and 1.025 disagree under a 10%% bound:\n%s", sink.String())
	}
	if agree(sp, set(1.0, 1.1, 0.9), set(1.2, 1.25, 1.15), &sink) {
		t.Errorf("medians 1.0 and 1.2 agree under a 10%% bound")
	}
	if agree(sp, set(1.0), nil, &sink) {
		t.Errorf("a workload missing from one set agrees")
	}
}
