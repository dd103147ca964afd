package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them, whatever the workload.
var endToEnd = []metricDef{
	{"throughput_balls_per_s", "balls/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ns_per_ball", "ns"},
	{"excess_mean", "balls"},
	{"rounds_mean", "rounds"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics a traced run reports. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"load.latency_p99_ms", "ms"},
	{"load.transport_us_mean", "us"},
	{"wire.client_parse_ns_per_ball", "ns"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.decode_us_mean", "us"},
	{"serve.encode_us_mean", "us"},
	{"serve.route_us_mean", "us"},
	{"serve.commit_us_mean", "us"},
	{"serve.http_overhead_us_mean", "us"},
	{"serve.batch_wait_us_p50", "us"},
	{"serve.batch_wait_us_p99", "us"},
	{"serve.release_us_p50", "us"},
	{"serve.subs_per_epoch", "count"},
	{"online.epoch_run_us_p50", "us"},
	{"online.epoch_run_us_p99", "us"},
	{"online.epoch_ns_per_ball", "ns"},
	{"online.heap_bytes_per_live_ball", "bytes"},
	{"core.agent_run_s_mean", "s"},
	{"core.mass_run_ms", "ms"},
	{"sim.messages_per_ball", "count"},
	{"sim.max_bin_received", "count"},
	{"cluster.router_us_p50", "us"},
	{"cluster.router_us_p99", "us"},
	{"cluster.split_us_mean", "us"},
	{"cluster.merge_us_mean", "us"},
	{"cluster.upstream_rtt_us_p50", "us"},
	{"cluster.replica_handler_us_p50", "us"},
	{"cluster.hop_us_mean", "us"},
	{"cluster.subs_per_frame", "count"},
	{"cluster.frames_per_request", "count"},
	{"cluster.migrate_pause_ms_p50", "ms"},
	{"cluster.migrate_ms_p50", "ms"},
	{"runtime.allocs_per_ball", "count"},
	{"runtime.alloc_bytes_per_ball", "bytes"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.gc_cycles", "count"},
	{"trace_overhead_pct", "%"},
}

// quantile is the exact nearest-rank q-quantile of vs, which it sorts.
func quantile(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}

// median of float values (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// environment is the machine and toolchain a record was measured on.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnvironment() environment {
	return environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// checks tallies the correctness gates a run executed. A failed gate
// ends the run: measure returns the error and no metrics are reported.
type checks struct {
	order  []string
	pass   map[string]int
	reject map[string]int
}

func newChecks() *checks {
	return &checks{pass: map[string]int{}, reject: map[string]int{}}
}

func (c *checks) note(name string) {
	if c.pass[name] == 0 && c.reject[name] == 0 {
		c.order = append(c.order, name)
	}
}

// check records one evaluation of gate name, returning an error when ok
// is false.
func (c *checks) check(name string, ok bool, format string, args ...any) error {
	c.note(name)
	if ok {
		c.pass[name]++
		return nil
	}
	c.reject[name]++
	return fmt.Errorf("check %s failed: %s", name, fmt.Sprintf(format, args...))
}

// passed records n passing evaluations of gate name at once.
func (c *checks) passed(name string, n int) {
	c.note(name)
	c.pass[name] += n
}

// manifest says which claims a record checked: the gates executed with
// their pass and reject counts, and a fingerprint of everything that
// determines the run's inputs.
type manifest struct {
	ChecksExecuted  []string       `json:"checks_executed"`
	PassCounts      map[string]int `json:"pass_counts"`
	RejectionCounts map[string]int `json:"rejection_counts"`
	RuntimeMs       int64          `json:"runtime_ms"`
	Fingerprint     string         `json:"fingerprint"`
}

func (c *checks) manifest(workload string, cfg config, seed uint64, env environment, runtimeMs int64) manifest {
	h := sha256.New()
	inputs, _ := json.Marshal(struct {
		Workload string
		Config   config
		Seed     uint64
		Env      environment
	}{workload, cfg, seed, env})
	h.Write(inputs)
	return manifest{
		ChecksExecuted: c.order, PassCounts: c.pass, RejectionCounts: c.reject,
		RuntimeMs: runtimeMs, Fingerprint: hex.EncodeToString(h.Sum(nil)),
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to an -out file (one JSON object per
// line). A run that failed a gate has Correct false and no metrics.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       bool                   `json:"trace"`
	Env         environment            `json:"env"`
	Config      config                 `json:"config"`
	Manifest    manifest               `json:"manifest"`
	Correct     bool                   `json:"correct"`
	Error       string                 `json:"error,omitempty"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics,omitempty"`
	Diagnostics map[string]float64     `json:"diagnostics,omitempty"`
	Spans       *spanDump              `json:"spans,omitempty"`
}

// spanDump is a traced run's spans: rows of [name, parent, step, start
// ns, end ns], where name indexes Names and parent is the row of the
// client step a server span carried the ID of (-1 for none; replica and
// router spans can only be joined to steps by time overlap).
type spanDump struct {
	Names   []string   `json:"names"`
	Dropped int64      `json:"dropped"`
	Rows    [][5]int64 `json:"rows"`
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// spec is the part of BENCHMARK.json -agree reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

// specMetric is one declared end-to-end metric and its bound: the share
// of a median by which it may move.
type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findSpec locates BENCHMARK.json in the working directory or its parent
// (the benchmark runs from the repository root or from its own directory).
func findSpec() string {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// agree compares two sets of untraced runs: for every workload and
// end-to-end metric, the medians must differ by at most the metric's
// bound, as a share of set a's median. It reports every comparison and
// returns false on any disagreement or on a workload one set lacks.
func agree(sp *spec, a, b []record, w io.Writer) bool {
	medians := func(recs []record) map[string]map[string]float64 {
		vals := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace || !r.Correct {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
		out := map[string]map[string]float64{}
		for wl, byName := range vals {
			out[wl] = map[string]float64{}
			for name, vs := range byName {
				out[wl][name] = median(vs)
			}
		}
		return out
	}
	ma, mb := medians(a), medians(b)
	var workloads []string
	for wl := range ma {
		workloads = append(workloads, wl)
	}
	for wl := range mb {
		if ma[wl] == nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	ok := len(workloads) > 0
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %8s %7s\n", "workload", "metric", "median a", "median b", "diff", "bound")
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			va, okA := ma[wl][m.Name]
			vb, okB := mb[wl][m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-24s missing from a set\n", wl, m.Name)
				ok = false
				continue
			}
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %7.1f%% %6.0f%% %s\n", wl, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
