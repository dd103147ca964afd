package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cmdtest"
	"repro/internal/obs"
	"repro/internal/serve"
)

var addrRE = regexp.MustCompile(`listening on (\S+)`)

// startServer launches pba-serve on a free port and returns the process
// handle and its base URL.
func startServer(t *testing.T, bin string, args ...string) (*cmdtest.Proc, string) {
	t.Helper()
	p, addr := cmdtest.StartProc(t, bin, addrRE, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	return p, "http://" + addr
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getStats(t *testing.T, base string) map[string]any {
	t.Helper()
	var stats map[string]any
	if code := getJSON(t, base+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: HTTP %d", code)
	}
	return stats
}

// getFingerprint fetches the combined full-state fingerprint, which is
// opt-in on /stats (the default response is the cheap lite snapshot).
func getFingerprint(t *testing.T, base string) string {
	t.Helper()
	var stats map[string]any
	if code := getJSON(t, base+"/stats?fingerprint=1", &stats); code != http.StatusOK {
		t.Fatalf("/stats?fingerprint=1: HTTP %d", code)
	}
	fp, _ := stats["fingerprint"].(string)
	if fp == "" {
		t.Fatalf("/stats?fingerprint=1 returned no fingerprint: %v", stats)
	}
	return fp
}

func TestSmoke(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-serve")
	_, base := startServer(t, bin, "-n", "32", "-shards", "4", "-alg", "aheavy", "-seed", "7")

	var health serve.Health
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	if health.Status != "ok" || health.Shards != 4 {
		t.Fatalf("unexpected /healthz: %+v", health)
	}
	if health.UptimeSeconds <= 0 || health.Restored || len(health.Cells) != 4 {
		t.Fatalf("extended /healthz fields wrong: %+v", health)
	}

	var rep serve.Report
	if code := postJSON(t, base+"/allocate", `{"count": 500}`, &rep); code != http.StatusOK {
		t.Fatalf("/allocate: HTTP %d", code)
	}
	if rep.Admitted != 500 || len(rep.Placements) != 500 || rep.Pending != 0 {
		t.Fatalf("unexpected allocate response: admitted %d, %d placements, pending %d",
			rep.Admitted, len(rep.Placements), rep.Pending)
	}
	ids := rep.IDs()
	if len(ids) != 500 {
		t.Fatalf("spans expand to %d ids, want 500", len(ids))
	}

	var rel struct {
		Released int `json:"released"`
	}
	strIDs := make([]string, 100)
	for i := range strIDs {
		strIDs[i] = fmt.Sprint(ids[i])
	}
	if code := postJSON(t, base+"/release", `{"ids": [`+strings.Join(strIDs, ",")+`]}`, &rel); code != http.StatusOK {
		t.Fatalf("/release: HTTP %d", code)
	}
	if rel.Released != 100 {
		t.Fatalf("released %d, want 100", rel.Released)
	}

	stats := getStats(t, base)
	if stats["live"].(float64) != 400 || stats["placed"].(float64) != 400 {
		t.Fatalf("stats after churn: %v", stats)
	}
	if stats["shards"].(float64) != 4 {
		t.Fatalf("stats shards: %v", stats["shards"])
	}
	if stats["seed"] != float64(7) {
		t.Fatalf("stats seed: %v", stats["seed"])
	}

	// /metrics serves valid exposition reflecting the traffic above.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v, ok := sc.Value("pba_allocate_requests_total"); !ok || v != 1 {
		t.Errorf("pba_allocate_requests_total = %v, %v; want 1", v, ok)
	}
	if v, ok := sc.Value("pba_released_balls_total"); !ok || v != 100 {
		t.Errorf("pba_released_balls_total = %v, %v; want 100", v, ok)
	}
	if hv, ok := sc.HistogramView(serve.StageMetricName, `{stage="allocate"}`); !ok || hv.Count != 1 {
		t.Errorf("allocate stage histogram: %v, %v; want one sample", hv.Count, ok)
	}

	// Protocol errors: wrong method, bad JSON, out-of-range count.
	if code := getJSON(t, base+"/allocate", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /allocate: HTTP %d, want 405", code)
	}
	if code := postJSON(t, base+"/allocate", `{bad`, nil); code != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d, want 400", code)
	}
	if code := postJSON(t, base+"/allocate", `{"count": -1}`, nil); code != http.StatusBadRequest {
		t.Errorf("negative count: HTTP %d, want 400", code)
	}
}

// TestPprofFlag: the profiling endpoints exist only when -pprof is passed.
func TestPprofFlag(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-serve")
	_, plain := startServer(t, bin, "-n", "8")
	if code := getJSON(t, plain+"/debug/pprof/", nil); code == http.StatusOK {
		t.Fatalf("pprof served without -pprof: HTTP %d", code)
	}
	_, profiled := startServer(t, bin, "-n", "8", "-pprof")
	resp, err := http.Get(profiled + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -pprof: HTTP %d", resp.StatusCode)
	}
	// The service API still answers on the same listener.
	if code := getJSON(t, profiled+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz alongside pprof: HTTP %d", code)
	}
}

// TestDeterministicAcrossProcesses is the service-level determinism
// contract: freshly started servers with the same (seed, shard count) fed
// the same request sequence report identical combined fingerprints at any
// -workers.
func TestDeterministicAcrossProcesses(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-serve")
	for _, shards := range []string{"1", "3"} {
		var fps []string
		for _, workers := range []string{"1", "4"} {
			_, base := startServer(t, bin, "-n", "16", "-shards", shards, "-seed", "99", "-workers", workers)
			var rep serve.Report
			postJSON(t, base+"/allocate", `{"count": 300, "terse": true}`, &rep)
			ids := rep.IDs()[:50]
			strIDs := make([]string, len(ids))
			for i, id := range ids {
				strIDs[i] = fmt.Sprint(id)
			}
			postJSON(t, base+"/release", `{"ids": [`+strings.Join(strIDs, ",")+`]}`, nil)
			postJSON(t, base+"/allocate", `{"count": 200, "terse": true}`, nil)
			// The default /stats is fingerprint-free; make sure it still
			// carries the O(1) chain before asking for the full hash.
			if lite := getStats(t, base); lite["fingerprint"] != nil {
				t.Fatalf("default /stats unexpectedly computed the full fingerprint: %v", lite)
			}
			fps = append(fps, getFingerprint(t, base))
		}
		if fps[0] != fps[1] || fps[0] == "" {
			t.Fatalf("shards=%s: fingerprints differ across worker counts: %v", shards, fps)
		}
	}
}

// TestGracefulShutdownSnapshotRestore: SIGINT drains the server and
// writes the snapshot; a restart from it continues the stream with the
// same fingerprint an uninterrupted server would have.
func TestGracefulShutdownSnapshotRestore(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-serve")
	snapPath := filepath.Join(t.TempDir(), "state.json")
	common := []string{"-n", "24", "-shards", "3", "-seed", "5", "-snapshot", snapPath}

	// Reference: uninterrupted server playing the full sequence.
	_, refBase := startServer(t, bin, "-n", "24", "-shards", "3", "-seed", "5")
	postJSON(t, refBase+"/allocate", `{"count": 400, "terse": true}`, nil)
	postJSON(t, refBase+"/allocate", `{"count": 100, "terse": true}`, nil)
	want := getFingerprint(t, refBase)

	// Interrupted server: prefix, SIGINT (snapshot), restart, suffix.
	p1, base1 := startServer(t, bin, common...)
	postJSON(t, base1+"/allocate", `{"count": 400, "terse": true}`, nil)
	p1.Signal(os.Interrupt)
	if code := p1.WaitExit(); code != 0 {
		t.Fatalf("server exited %d after SIGINT", code)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	p2, base2 := startServer(t, bin, common...)
	stats := getStats(t, base2)
	if stats["arrived"].(float64) != 400 {
		t.Fatalf("restored server lost state: %v", stats)
	}
	// The restored process declares its provenance on /healthz.
	var health serve.Health
	if code := getJSON(t, base2+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz after restore: HTTP %d", code)
	}
	if !health.Restored || health.SnapshotAgeSeconds < 0 {
		t.Fatalf("restored server's /healthz lacks provenance: %+v", health)
	}
	postJSON(t, base2+"/allocate", `{"count": 100, "terse": true}`, nil)
	if got := getFingerprint(t, base2); got != want {
		t.Fatalf("restored fingerprint %s != uninterrupted %s", got, want)
	}
	// A clean second shutdown must round-trip the grown state too.
	p2.Signal(os.Interrupt)
	if code := p2.WaitExit(); code != 0 {
		t.Fatalf("second shutdown exited %d", code)
	}

	// Conflicting topology flags on restore fail loudly.
	cmd := cmdtest.Build(t, "repro/cmd/pba-serve")
	_, stderr, code := cmdtest.Run(t, cmd, "-addr", "127.0.0.1:0", "-n", "99", "-snapshot", snapPath)
	if code == 0 || !strings.Contains(stderr, "n=") {
		t.Fatalf("restore with conflicting -n: exit %d, stderr %q", code, stderr)
	}
}

// TestLoadgenDrivesServer wires the two halves together: a multi-client
// pba-bench -serve run against a sharded pba-serve, checking the load
// driver's throughput/percentile report, its server stage table and the
// server's final state.
func TestLoadgenDrivesServer(t *testing.T) {
	serveBin := cmdtest.Build(t, "repro/cmd/pba-serve")
	benchBin := cmdtest.Build(t, "repro/cmd/pba-bench")
	_, base := startServer(t, serveBin, "-n", "32", "-shards", "4")

	out := cmdtest.MustRun(t, benchBin, "-serve", base, "-clients", "3",
		"-batches", "4", "-batch", "500", "-churn", "0.25")
	for _, want := range []string{"throughput:", "epochs/s", "balls/s", "p50", "p99",
		"server stages", "epoch_run", "batch_wait", "final /stats", `"pending": 0`} {
		if !strings.Contains(out, want) {
			t.Fatalf("load driver output missing %q:\n%s", want, out)
		}
	}
	// The printed stage table has a row with samples for every pipeline
	// stage; its second column is the stage's count over the run.
	_, table, _ := strings.Cut(out, "server stages (this run, from /metrics):\n")
	counts := map[string]int64{}
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "  ") || len(f) < 2 {
			break
		}
		if n, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			counts[f[0]] = n
		}
	}
	for _, stage := range serve.StageNames {
		if counts[stage] == 0 {
			t.Errorf("stage table has no samples for %q:\n%s", stage, table)
		}
	}
	if counts["allocate"] != 3*4 {
		t.Errorf("allocate stage count %d, want %d", counts["allocate"], 3*4)
	}
	var stats struct {
		Arrived float64 `json:"arrived"`
	}
	if i := strings.Index(out, "final /stats:"); i >= 0 {
		if err := json.Unmarshal([]byte(out[i+len("final /stats:"):]), &stats); err != nil {
			t.Fatalf("parsing final stats: %v", err)
		}
	}
	if stats.Arrived != 3*4*500 {
		t.Fatalf("server saw %v arrivals, want %d", stats.Arrived, 3*4*500)
	}
}
