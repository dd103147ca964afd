package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// driveConfig parameterizes the load driver. Exactly one of Serve and
// Check is set: it names the target and, with it, the mode.
type driveConfig struct {
	Serve        string  // soak: base URL of a pba-serve or pba-router
	Check        string  // determinism check: base URL of a fresh one
	Clients      int     // concurrent clients (-check plays exactly one)
	Batches      int     // allocate batches per client
	Batch        int     // jobs per batch
	Churn        float64 // fraction of a client's live jobs released before each batch
	Seed         uint64  // client churn streams derive from it
	Proto        string  // data-plane encoding: "json" or "binary"
	MigrateEvery int     // -check: migrate one cell every this many batches (0 = none)
}

// target is the base URL of whichever backend the mode drives.
func (cfg driveConfig) target() string {
	if cfg.Check != "" {
		return cfg.Check
	}
	return cfg.Serve
}

// drive is pba-bench's load driver, against either backend: pba-serve and
// pba-router speak the same client protocol. Each of cfg.Clients clients
// plays its own churn trace over one pipelined connection: every batch it
// departs a churn fraction of the jobs it still holds, then allocates a
// fresh batch. A client's trace depends only on (seed, client index),
// never on the protocol.
//
// Both modes end with the same report: per-client and merged epoch
// latencies (obs.Histograms, so the driver's memory stays flat however
// long it runs), throughput, the target's /metrics delta — the server
// stage table and, from a router, the per-upstream batching table — and
// the final /stats.
//
// With cfg.Check the one client's trace also replays batch by batch on an
// in-process Service built from the target's /stats topology: both sides
// must grant the same ball IDs every batch and end with the same
// fingerprint. That is the acceptance check of the determinism contract,
// which holds over a fixed (seed, request sequence, topology, migration
// schedule), so the target must be fresh and otherwise idle.
func drive(cfg driveConfig) error {
	base, mode := cfg.target(), "soak"
	if cfg.Check != "" {
		mode = "check"
	}
	switch {
	case cfg.Serve != "" && cfg.Check != "":
		return errors.New("-serve soaks a target and -check replays one; pick one")
	case cfg.Clients < 1 || cfg.Batches < 1 || cfg.Batch < 1:
		return errors.New("needs clients, batches, and batch all >= 1")
	case !(cfg.Churn >= 0 && cfg.Churn < 1):
		return fmt.Errorf("needs churn in [0, 1), got %v", cfg.Churn)
	case cfg.Proto != protoJSON && cfg.Proto != protoBinary:
		return fmt.Errorf("needs -proto json or binary, got %q", cfg.Proto)
	case cfg.Check != "" && cfg.Clients != 1:
		return fmt.Errorf("-check replays one client's trace, got -clients %d", cfg.Clients)
	case cfg.Check == "" && cfg.MigrateEvery > 0:
		return errors.New("-migrate-every needs -check")
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	if err := waitHealthy(client, base, 5*time.Second); err != nil {
		return err
	}
	fmt.Printf("%s: %d client(s) x %d batches x %d jobs, churn %.2f, proto %s -> %s\n",
		mode, cfg.Clients, cfg.Batches, cfg.Batch, cfg.Churn, cfg.Proto, base)
	var rp *replay
	if cfg.Check != "" {
		var err error
		if rp, err = newReplay(client, cfg); err != nil {
			return err
		}
		defer rp.svc.Close()
	}

	// A target without /metrics degrades to the client-side report alone.
	before, err := scrapeMetrics(client, base)
	if err != nil {
		fmt.Printf("%s: no target metrics (%v); client-side report only\n", mode, err)
	}
	if cfg.Clients == 1 {
		fmt.Printf("%-8s %-10s %-10s %-8s %-10s %-8s %-10s\n",
			"batch", "released", "admitted", "rounds", "max_load", "excess", "latency")
	}
	hists := make([]obs.Histogram, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range hists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = runClient(cfg, c, &hists[c], rp)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", c, err)
		}
	}

	// Per client, so a straggler is visible rather than averaged away.
	var merged obs.Histogram
	for c := range hists {
		fmt.Printf("client %-3d %s\n", c, latencies(hists[c].View()))
		merged.Merge(&hists[c])
	}
	v := merged.View()
	fmt.Printf("merged     %s\n", latencies(v))
	balls := int64(v.Count) * int64(cfg.Batch)
	fmt.Printf("throughput: %d epochs, %d balls in %s -> %.1f epochs/s, %.0f balls/s\n",
		v.Count, balls, elapsed.Round(time.Millisecond),
		float64(v.Count)/elapsed.Seconds(), float64(balls)/elapsed.Seconds())
	if before != nil {
		if err := reportMetrics(client, base, before); err != nil {
			fmt.Printf("%s: /metrics delta unavailable: %v\n", mode, err)
		}
	}

	// The cheap lite path: steady-state telemetry must not pay the O(live)
	// full-state hash.
	var stats map[string]any
	if err := getJSON(client, base+"/stats", &stats); err != nil {
		return err
	}
	delete(stats, "cells") // keep the summary readable at high shard counts
	out, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("final /stats:\n%s\n", out)
	if rp != nil {
		return rp.verdict()
	}
	return nil
}

// runClient plays client idx's churn trace through its own plane,
// recording each batch's allocate latency into hist. With rp set, every
// batch also goes through the replay: client 0's stream is the -check
// trace.
func runClient(cfg driveConfig, idx int, hist *obs.Histogram, rp *replay) error {
	r := rng.New(rng.Mix64(cfg.Seed ^ (uint64(idx)+1)*0x1F83D9ABFB41BD6B))
	p, err := dialPlane(cfg.target(), cfg.Proto)
	if err != nil {
		return err
	}
	defer p.Close()
	var live []int64
	var rep serve.Report
	for i := 0; i < cfg.Batches; i++ {
		if rp != nil {
			if err := rp.migrate(i); err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
		}
		k := 0
		if cfg.Churn > 0 && len(live) > 0 {
			k = int(cfg.Churn * float64(len(live)))
			for j := 0; j < k; j++ {
				x := j + r.Intn(len(live)-j)
				live[j], live[x] = live[x], live[j]
			}
		}
		released, latency, err := p.step(live[:k], cfg.Batch, &rep)
		if err == nil && rp != nil {
			err = rp.replay(live[:k], released, &rep)
		}
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		hist.ObserveDuration(latency)
		live = rep.AppendIDs(live[k:])
		if cfg.Clients == 1 {
			fmt.Printf("%-8d %-10d %-10d %-8d %-10d %-8d %-10s\n",
				i, released, rep.Admitted, rep.Rounds, rep.MaxLoad, rep.Excess,
				latency.Round(time.Microsecond))
		}
	}
	return nil
}

// latencies renders a latency histogram's count and percentiles.
func latencies(v obs.HistView) string {
	q := func(q float64) time.Duration { return time.Duration(v.Quantile(q)).Round(time.Microsecond) }
	return fmt.Sprintf("epochs %-6d p50 %-10s p95 %-10s p99 %-10s max %s",
		v.Count, q(0.50), q(0.95), q(0.99), time.Duration(v.Max).Round(time.Microsecond))
}

// replay is -check's in-process mirror of the target: a Service with the
// target's topology that replays the client's batches, and the
// round-robin migration plan over the target's upstreams.
type replay struct {
	client     *http.Client
	base       string
	batch      int
	every      int
	svc        *serve.Service
	cells      int
	upstreams  []string
	migrations int
	local      serve.Report
	got, want  []int64
}

func newReplay(client *http.Client, cfg driveConfig) (*replay, error) {
	// Either backend's /stats names the topology the replay must mirror;
	// only a router lists upstreams.
	var st struct {
		N         int    `json:"n"`
		Shards    int    `json:"shards"`
		Alg       string `json:"alg"`
		Seed      uint64 `json:"seed"`
		Requests  uint64 `json:"requests"`
		Upstreams []struct {
			URL string `json:"url"`
		} `json:"upstreams"`
	}
	if err := getJSON(client, cfg.Check+"/stats", &st); err != nil {
		return nil, err
	}
	if st.Requests != 0 {
		return nil, fmt.Errorf("%s has already served %d requests; -check needs a fresh target", cfg.Check, st.Requests)
	}
	if cfg.MigrateEvery > 0 && len(st.Upstreams) < 2 {
		return nil, fmt.Errorf("-migrate-every needs at least 2 upstreams, %s has %d", cfg.Check, len(st.Upstreams))
	}
	svc, err := serve.New(serve.Config{N: st.N, Shards: st.Shards, Alg: st.Alg, Seed: st.Seed})
	if err != nil {
		return nil, fmt.Errorf("building the replay service: %w", err)
	}
	rp := &replay{client: client, base: cfg.Check, batch: cfg.Batch, every: cfg.MigrateEvery, svc: svc, cells: st.Shards}
	for _, u := range st.Upstreams {
		rp.upstreams = append(rp.upstreams, u.URL)
	}
	fmt.Printf("check: replaying in process with n=%d shards=%d alg=%s seed=%d (%d upstreams)\n",
		st.N, st.Shards, st.Alg, st.Seed, len(st.Upstreams))
	return rp, nil
}

// migrate moves the plan's next cell before batch i when one is due.
func (rp *replay) migrate(i int) error {
	if rp.every == 0 || i == 0 || i%rp.every != 0 {
		return nil
	}
	err := migrateNext(rp.client, rp.base, rp.migrations, rp.cells, rp.upstreams)
	rp.migrations++
	return err
}

// replay repeats one batch in process, the release of ids and then the
// allocate, and compares its grants with the target's ID by ID.
func (rp *replay) replay(ids []int64, released int, rep *serve.Report) error {
	if rel := rp.svc.Release(ids); rel != released {
		return fmt.Errorf("target released %d, replay released %d", released, rel)
	}
	if err := rp.svc.AllocateInto(rp.batch, &rp.local); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rp.got, rp.want = rep.AppendIDs(rp.got[:0]), rp.local.AppendIDs(rp.want[:0])
	if len(rp.got) != len(rp.want) {
		return fmt.Errorf("target and replay granted different balls: %d vs %d balls", len(rp.got), len(rp.want))
	}
	for i := range rp.got {
		if rp.got[i] != rp.want[i] {
			return fmt.Errorf("target and replay granted different balls: ball %d: id %d vs %d", i, rp.got[i], rp.want[i])
		}
	}
	return nil
}

// verdict compares the target's O(live) fingerprint with the replay's.
func (rp *replay) verdict() error {
	var st struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := getJSON(rp.client, rp.base+"/stats?fingerprint=1", &st); err != nil {
		return err
	}
	if want := rp.svc.Fingerprint(); st.Fingerprint != want {
		return fmt.Errorf("FINGERPRINT MISMATCH after %d migration(s):\n  target %s\n  replay %s",
			rp.migrations, st.Fingerprint, want)
	}
	fmt.Printf("check: OK — %d live balls, %d migration(s), fingerprint %s identical to the in-process replay\n",
		rp.svc.StatsLite().Live, rp.migrations, st.Fingerprint)
	return nil
}

// migrateNext schedules the idx-th migration of the round-robin plan:
// cell idx%cells moves to the next *healthy* upstream after its current
// owner (per the router's /healthz), so a replica departing mid-trace
// drops out of the rotation instead of failing the plan. The router's
// /admin/table lists the owning upstream URL per cell.
func migrateNext(client *http.Client, base string, idx, cells int, upstreams []string) error {
	var table struct {
		Cells []string `json:"cells"`
	}
	if err := getJSON(client, base+"/admin/table", &table); err != nil {
		return err
	}
	var health struct {
		Upstreams []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"upstreams"`
	}
	if err := getJSON(client, base+"/healthz", &health); err != nil {
		return err
	}
	healthy := make(map[string]bool, len(health.Upstreams))
	for _, u := range health.Upstreams {
		healthy[u.URL] = u.Healthy
	}
	g := idx % cells
	if g >= len(table.Cells) {
		return fmt.Errorf("admin table has %d cells, want cell %d", len(table.Cells), g)
	}
	cur := -1
	for u, url := range upstreams {
		if url == table.Cells[g] {
			cur = u
			break
		}
	}
	if cur < 0 {
		return fmt.Errorf("cell %d's owner %q is not in the router's upstream list", g, table.Cells[g])
	}
	dst := ""
	for step := 1; step < len(upstreams); step++ {
		if cand := upstreams[(cur+step)%len(upstreams)]; healthy[cand] {
			dst = cand
			break
		}
	}
	if dst == "" {
		fmt.Printf("check: no healthy destination for cell %d; skipping migration\n", g)
		return nil
	}
	res, err := client.Post(base+"/admin/migrate", "application/json",
		bytes.NewReader(fmt.Appendf(nil, `{"cell":%d,"to":%q}`, g, dst)))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return httpFailure("/admin/migrate", res)
	}
	var done struct {
		PauseSeconds float64 `json:"pause_seconds"`
	}
	if err := json.NewDecoder(res.Body).Decode(&done); err != nil {
		return fmt.Errorf("/admin/migrate reply: %w", err)
	}
	fmt.Printf("check: migrated cell %d -> %s (pause %.6fs)\n", g, dst, done.PauseSeconds)
	return nil
}

// reportMetrics scrapes the target's /metrics again and prints this run's
// delta against before: where the server spent the run, stage by stage,
// and, when the scrape carries a router's pba_upstream series, its
// group-commit telemetry per upstream — frames flushed, subs carried (the
// batch-size histogram's count and sum), mean subs per frame, and the
// flush-reason split.
func reportMetrics(client *http.Client, base string, before *obs.Scrape) error {
	after, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}
	fmt.Printf("server stages (this run, from /metrics):\n")
	fmt.Printf("  %-11s %9s %12s %11s %11s %11s\n", "stage", "count", "total", "p50", "p95", "p99")
	for _, stage := range serve.StageNames {
		d, ok := obs.DeltaStage(after, before, serve.StageMetricName, `{stage="`+stage+`"}`)
		if ok && d.Count > 0 {
			fmt.Printf("  %-11s %9d %12s %11s %11s %11s\n", stage, d.Count,
				seconds(d.TotalSeconds), seconds(d.P50), seconds(d.P95), seconds(d.P99))
		}
	}
	const prefix = `pba_upstream_frames_total{upstream="`
	var hosts []string
	for key := range after.Values {
		if strings.HasPrefix(key, prefix) {
			hosts = append(hosts, strings.TrimSuffix(key[len(prefix):], `"}`))
		}
	}
	if len(hosts) == 0 {
		return nil
	}
	sort.Strings(hosts)
	delta := func(key string) float64 { return after.Values[key] - before.Values[key] }
	fmt.Printf("router batching (this run, from /metrics):\n")
	fmt.Printf("  %-22s %8s %8s %10s %8s %8s\n",
		"upstream", "frames", "subs", "subs/frame", "full", "drain")
	for _, h := range hosts {
		l := `{upstream="` + h + `"`
		frames := delta("pba_upstream_frames_total" + l + `}`)
		flushes := delta("pba_upstream_batch_size_count" + l + `}`)
		subs := delta("pba_upstream_batch_size_sum" + l + `}`)
		mean := 0.0
		if flushes > 0 {
			mean = subs / flushes
		}
		fmt.Printf("  %-22s %8.0f %8.0f %10.2f %8.0f %8.0f\n",
			h, frames, subs, mean,
			delta("pba_upstream_flush_total"+l+`,reason="full"}`),
			delta("pba_upstream_flush_total"+l+`,reason="drain"}`))
	}
	return nil
}

// seconds renders a float seconds reading at microsecond resolution.
func seconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// scrapeMetrics fetches and parses the target's /metrics exposition.
func scrapeMetrics(client *http.Client, base string) (*obs.Scrape, error) {
	res, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", res.Status)
	}
	return obs.ParseText(res.Body)
}

func getJSON(client *http.Client, url string, v any) error {
	res, err := client.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return httpFailure(url, res)
	}
	return json.NewDecoder(res.Body).Decode(v)
}

// waitHealthy polls /healthz until the target answers 200, so a driver
// started alongside the server does not race its listen socket.
func waitHealthy(client *http.Client, base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		res, err := client.Get(base + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %s: %v", patience, err)
			}
			return fmt.Errorf("server not healthy after %s", patience)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
