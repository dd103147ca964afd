package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// driveHTTP runs a little traffic through every endpoint of a handler.
func driveHTTP(t *testing.T, ts *httptest.Server) {
	t.Helper()
	post := func(path, body string) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, b)
		}
		return b
	}
	var rep Report
	if err := json.Unmarshal(post("/allocate", `{"count": 300}`), &rep); err != nil {
		t.Fatal(err)
	}
	ids, _ := json.Marshal(rep.IDs()[:100])
	post("/release", `{"ids": `+string(ids)+`}`)
	for _, path := range []string{"/stats", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint drives traffic through the HTTP front end and
// asserts GET /metrics serves valid Prometheus text exposition carrying
// the stage histograms, per-cell allocator series, HTTP counters, and
// runtime gauges — the acceptance gate "output parses as valid
// exposition format".
func TestMetricsEndpoint(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	driveHTTP(t, ts)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	sc, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	// Every pipeline stage that traffic exercised must have samples.
	for _, stage := range StageNames {
		hv, ok := sc.HistogramView(StageMetricName, `{stage="`+stage+`"}`)
		if !ok {
			t.Fatalf("stage %s has no histogram series", stage)
		}
		if hv.Count == 0 {
			t.Errorf("stage %s recorded no samples", stage)
		}
	}
	// Per-cell allocator series exist for all four cells; cumulative
	// placements cover everything currently placed and at most everything
	// ever admitted (balls released while pending were never placed).
	var placed float64
	for _, cell := range []string{"0", "1", "2", "3"} {
		v, ok := sc.Value(`pba_cell_placed_total{cell="` + cell + `"}`)
		if !ok {
			t.Fatalf("missing pba_cell_placed_total{cell=%q}", cell)
		}
		placed += v
		// Every cell holds live balls, so at least one dense 64 KiB page.
		if b, ok := sc.Value(`pba_cell_table_bytes{cell="` + cell + `"}`); !ok || b < 1<<16 {
			t.Errorf("pba_cell_table_bytes{cell=%q} = %v, %v; want at least one dense page", cell, b, ok)
		}
	}
	if st := s.StatsLite(); placed < float64(st.Placed) || placed > float64(st.Arrived) {
		t.Errorf("cell placed counters sum to %v; want within [%d, %d]", placed, st.Placed, st.Arrived)
	}
	for _, name := range []string{"pba_allocate_requests_total", "pba_released_balls_total", "go_goroutines", "go_heap_alloc_bytes"} {
		if _, ok := sc.Value(name); !ok {
			t.Errorf("missing %s", name)
		}
	}
	for _, path := range []string{"/allocate", "/release", "/stats", "/healthz", "/metrics"} {
		v, ok := sc.Value(`pba_http_requests_total{path="` + path + `"}`)
		if !ok || v < 1 {
			t.Errorf("pba_http_requests_total{path=%q} = %v, %v; want >= 1", path, v, ok)
		}
	}

	// A second scrape parsed against the first yields a sane delta view.
	driveHTTP(t, ts)
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := obs.ParseText(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := obs.DeltaStage(sc2, sc, StageMetricName, `{stage="epoch_run"}`)
	if !ok {
		t.Fatal("epoch_run missing from the second scrape")
	}
	if d.Count == 0 || d.TotalSeconds < 0 {
		t.Errorf("epoch_run delta %+v; want positive count and non-negative total", d)
	}
}

// TestHealthz asserts the extended /healthz document: uptime, per-cell
// liveness, and restore provenance after a snapshot round-trip.
func TestHealthz(t *testing.T) {
	s, err := New(Config{N: 48, Shards: 3, Alg: "aheavy", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(200); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Status != "ok" || h.N != 48 || h.Shards != 3 {
		t.Fatalf("health header wrong: %+v", h)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime %v; want > 0", h.UptimeSeconds)
	}
	if h.Restored || h.SnapshotAgeSeconds != 0 {
		t.Errorf("fresh service claims restore provenance: %+v", h)
	}
	if h.Requests != 1 {
		t.Errorf("requests %d; want 1", h.Requests)
	}
	if len(h.Cells) != 3 {
		t.Fatalf("%d cell lines; want 3", len(h.Cells))
	}
	var live int64
	for i, c := range h.Cells {
		if c.Cell != i || c.Bins != 16 {
			t.Errorf("cell line %d wrong: %+v", i, c)
		}
		live += c.Live
	}
	if live != 200 {
		t.Errorf("cell liveness sums to %d; want 200", live)
	}

	snap := s.Snapshot()
	s.Close()
	if snap.TakenUnix == 0 {
		t.Fatal("snapshot has no TakenUnix stamp")
	}
	r, err := Restore(snap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rh := r.Health()
	if !rh.Restored {
		t.Error("restored service does not report Restored")
	}
	if rh.SnapshotAgeSeconds < 0 {
		t.Errorf("snapshot age %v; want >= 0", rh.SnapshotAgeSeconds)
	}
	var rlive int64
	for _, c := range rh.Cells {
		rlive += c.Live
	}
	if rlive != 200 {
		t.Errorf("restored cell liveness sums to %d; want 200", rlive)
	}

	// The HTTP endpoint serves the same document.
	ts := httptest.NewServer(NewHandler(r, HandlerConfig{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hh Health
	if err := json.NewDecoder(resp.Body).Decode(&hh); err != nil {
		t.Fatal(err)
	}
	if hh.Status != "ok" || !hh.Restored || len(hh.Cells) != 3 {
		t.Fatalf("/healthz served %+v", hh)
	}
}
