package main

import (
	"bytes"
	"encoding/json"
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

// clustergenConfig parameterizes the cluster determinism check.
type clustergenConfig struct {
	Base         string  // pba-router base URL
	Batches      int     // churn batches to play
	Batch        int     // jobs per batch
	Churn        float64 // fraction of live jobs released before each batch
	Seed         uint64  // churn-trace seed (the service seed comes from the router)
	Proto        string  // data-plane encoding against the router
	Pipeline     bool    // persistent pipelined connection
	MigrateEvery int     // migrate one cell every this many batches (0 = none)
}

// clustergen is the -cluster mode: the acceptance check for the cluster
// tier's determinism contract. It plays a sequential churn trace against
// a running pba-router and simultaneously replays the identical trace on
// an in-process single-node service with the router's (n, shards, alg,
// seed) topology, asserting after every batch that both sides granted
// the same ball IDs and, at the end, that the cluster fingerprint equals
// the single process's combined fingerprint. With -migrate-every it also
// schedules live cell migrations mid-trace (round-robin over cells and
// upstreams via the admin API), which must not perturb either stream —
// migration moves state, it never rewrites it.
//
// The router must be fresh (its request counter at zero) and otherwise
// idle: the contract is over a fixed (seed, request sequence, topology,
// migration schedule), so concurrent foreign traffic voids the replay.
func clustergen(cfg clustergenConfig) error {
	if cfg.Batches < 1 || cfg.Batch < 1 {
		return fmt.Errorf("cluster mode needs batches and batch >= 1")
	}
	if !(cfg.Churn >= 0 && cfg.Churn < 1) {
		return fmt.Errorf("cluster mode needs churn in [0, 1), got %v", cfg.Churn)
	}
	if cfg.Proto != protoJSON && cfg.Proto != protoBinary {
		return fmt.Errorf("cluster mode needs -proto json or binary, got %q", cfg.Proto)
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	if err := waitHealthy(client, cfg.Base, 5*time.Second); err != nil {
		return err
	}

	// The router's /stats names the topology the local replay must mirror.
	var st struct {
		N         int    `json:"n"`
		Shards    int    `json:"shards"`
		Alg       string `json:"alg"`
		Seed      uint64 `json:"seed"`
		Requests  uint64 `json:"requests"`
		Clustered bool   `json:"clustered"`
		Upstreams []struct {
			URL string `json:"url"`
		} `json:"upstreams"`
	}
	if err := getJSON(client, cfg.Base+"/stats", &st); err != nil {
		return err
	}
	if !st.Clustered {
		return fmt.Errorf("%s is not a pba-router (/stats has no cluster shape); point -cluster at the router", cfg.Base)
	}
	if st.Requests != 0 {
		return fmt.Errorf("router has already served %d requests; the determinism check needs a fresh router", st.Requests)
	}
	if cfg.MigrateEvery > 0 && len(st.Upstreams) < 2 {
		return fmt.Errorf("-migrate-every needs at least 2 upstreams, router has %d", len(st.Upstreams))
	}

	svc, err := serve.New(serve.Config{N: st.N, Shards: st.Shards, Alg: st.Alg, Seed: st.Seed})
	if err != nil {
		return fmt.Errorf("building the replay service: %w", err)
	}
	defer svc.Close()

	plane, err := newPlane(client, loadgenConfig{Base: cfg.Base, Proto: cfg.Proto, Pipeline: cfg.Pipeline})
	if err != nil {
		return err
	}
	defer plane.Close()

	fmt.Printf("cluster check: %d batches x %d jobs, churn %.2f, proto %s -> %s (n=%d shards=%d alg=%s seed=%d, %d upstreams)\n",
		cfg.Batches, cfg.Batch, cfg.Churn, cfg.Proto, cfg.Base,
		st.N, st.Shards, st.Alg, st.Seed, len(st.Upstreams))

	r := rng.New(rng.Mix64(cfg.Seed ^ 0x1F83D9ABFB41BD6B))
	var live []int64
	var clusterRep, localRep serve.Report
	var localIDs, clusterIDs []int64
	migrations := 0
	for i := 0; i < cfg.Batches; i++ {
		if cfg.MigrateEvery > 0 && i > 0 && i%cfg.MigrateEvery == 0 {
			urls := make([]string, len(st.Upstreams))
			for u := range st.Upstreams {
				urls[u] = st.Upstreams[u].URL
			}
			if err := migrateNext(client, cfg.Base, migrations, st.Shards, urls); err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
			migrations++
		}
		k := 0
		if cfg.Churn > 0 && len(live) > 0 {
			k = int(cfg.Churn * float64(len(live)))
			for j := 0; j < k; j++ {
				x := j + r.Intn(len(live)-j)
				live[j], live[x] = live[x], live[j]
			}
		}
		sr, err := plane.step(live[:k], cfg.Batch, &clusterRep)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		if rel := svc.Release(live[:k]); rel != sr.released {
			return fmt.Errorf("batch %d: cluster released %d, single process released %d", i, sr.released, rel)
		}
		if err := svc.AllocateInto(cfg.Batch, &localRep); err != nil {
			return fmt.Errorf("batch %d: single-process replay: %w", i, err)
		}
		clusterIDs = clusterRep.AppendIDs(clusterIDs[:0])
		localIDs = localRep.AppendIDs(localIDs[:0])
		if err := sameIDs(clusterIDs, localIDs); err != nil {
			return fmt.Errorf("batch %d: cluster and single process granted different balls: %w", i, err)
		}
		live = append(live[k:], clusterIDs...)
	}

	clusterFP, err := fetchFingerprint(client, cfg.Base)
	if err != nil {
		return err
	}
	localFP := svc.Fingerprint()
	if clusterFP != localFP {
		return fmt.Errorf("FINGERPRINT MISMATCH after %d batches (%d migrations):\n  cluster        %s\n  single-process %s",
			cfg.Batches, migrations, clusterFP, localFP)
	}
	fmt.Printf("cluster check: OK — %d batches, %d live balls, %d migration(s), fingerprint %s identical to single process\n",
		cfg.Batches, len(live), migrations, clusterFP)
	return nil
}

// clustersoak is the -cluster -clients soak mode: clients concurrent
// churn traces against a running pba-router (batching or not — the
// router decides), with no single-process replay. The deliverables are
// the client-side latency distribution, reported per client so a
// straggler is visible rather than averaged away, and the router's
// group-commit telemetry scraped from /metrics as a before/after delta:
// per-upstream batch frames, the batch-size histogram (mean subs per
// frame), and the flush-reason split. All live balls are drained at the
// end so repeated soaks start from the same census.
func clustersoak(cfg clustergenConfig, clients int) error {
	if cfg.Batches < 1 || cfg.Batch < 1 {
		return fmt.Errorf("cluster soak needs batches and batch >= 1")
	}
	if !(cfg.Churn >= 0 && cfg.Churn < 1) {
		return fmt.Errorf("cluster soak needs churn in [0, 1), got %v", cfg.Churn)
	}
	if cfg.Proto != protoJSON && cfg.Proto != protoBinary {
		return fmt.Errorf("cluster soak needs -proto json or binary, got %q", cfg.Proto)
	}
	client := &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	if err := waitHealthy(client, cfg.Base, 5*time.Second); err != nil {
		return err
	}
	var st struct {
		Clustered bool `json:"clustered"`
	}
	if err := getJSON(client, cfg.Base+"/stats", &st); err != nil {
		return err
	}
	if !st.Clustered {
		return fmt.Errorf("%s is not a pba-router (/stats has no cluster shape); point -cluster at the router", cfg.Base)
	}
	before, err := scrapeMetrics(client, cfg.Base)
	if err != nil {
		fmt.Printf("cluster soak: no router metrics (%v); client-side report only\n", err)
	}

	fmt.Printf("cluster soak: %d clients x %d batches x %d jobs, churn %.2f, proto %s -> %s\n",
		clients, cfg.Batches, cfg.Batch, cfg.Churn, cfg.Proto, cfg.Base)
	lcfg := loadgenConfig{
		Base: cfg.Base, Clients: clients, Batches: cfg.Batches,
		Batch: cfg.Batch, Churn: cfg.Churn, Seed: cfg.Seed,
		Proto: cfg.Proto, Pipeline: cfg.Pipeline,
	}
	hists := make([]*obs.Histogram, clients)
	for i := range hists {
		hists[i] = &obs.Histogram{}
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = runClient(client, lcfg, c, false, hists[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", c, err)
		}
	}

	var merged obs.Histogram
	for c, h := range hists {
		v := h.View()
		fmt.Printf("client %-3d epochs %-6d p50 %-10s p95 %-10s p99 %-10s max %s\n",
			c, v.Count,
			time.Duration(v.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(v.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(v.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(v.Max).Round(time.Microsecond))
		merged.Merge(h)
	}
	mv := merged.View()
	balls := int64(mv.Count) * int64(cfg.Batch)
	fmt.Printf("throughput: %d epochs, %d balls in %s -> %.1f epochs/s, %.0f balls/s\n",
		mv.Count, balls, elapsed.Round(time.Millisecond),
		float64(mv.Count)/elapsed.Seconds(), float64(balls)/elapsed.Seconds())

	if before != nil {
		if err := reportUpstreamBatching(client, cfg.Base, before); err != nil {
			fmt.Printf("cluster soak: batching telemetry unavailable: %v\n", err)
		}
	}
	return nil
}

// reportUpstreamBatching scrapes the router's /metrics again and prints
// this run's group-commit telemetry per upstream: frames flushed, subs
// carried (the batch-size histogram's count and sum), mean subs per
// frame, and the flush-reason split.
func reportUpstreamBatching(client *http.Client, base string, before *obs.Scrape) error {
	after, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}
	delta := func(key string) float64 {
		v := after.Values[key]
		if before != nil {
			v -= before.Values[key]
		}
		return v
	}
	const prefix = `pba_upstream_frames_total{upstream="`
	var hosts []string
	for key := range after.Values {
		if strings.HasPrefix(key, prefix) {
			hosts = append(hosts, strings.TrimSuffix(key[len(prefix):], `"}`))
		}
	}
	if len(hosts) == 0 {
		return fmt.Errorf("no pba_upstream series in %s/metrics", base)
	}
	sort.Strings(hosts)
	fmt.Printf("router batching (this run, from /metrics):\n")
	fmt.Printf("  %-22s %8s %8s %10s %8s %8s %8s\n",
		"upstream", "frames", "subs", "subs/frame", "full", "window", "drain")
	for _, h := range hosts {
		l := `{upstream="` + h + `"`
		frames := delta("pba_upstream_frames_total" + l + `}`)
		flushes := delta("pba_upstream_batch_size_count" + l + `}`)
		subs := delta("pba_upstream_batch_size_sum" + l + `}`)
		mean := 0.0
		if flushes > 0 {
			mean = subs / flushes
		}
		fmt.Printf("  %-22s %8.0f %8.0f %10.2f %8.0f %8.0f %8.0f\n",
			h, frames, subs, mean,
			delta("pba_upstream_flush_total"+l+`,reason="full"}`),
			delta("pba_upstream_flush_total"+l+`,reason="window"}`),
			delta("pba_upstream_flush_total"+l+`,reason="drain"}`))
	}
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
		fmt.Printf("cluster check: no healthy destination for cell %d; skipping migration\n", g)
		return nil
	}
	body := fmt.Sprintf(`{"cell":%d,"to":%q}`, g, dst)
	res, err := client.Post(base+"/admin/migrate", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		defer finishBody(res)
		return httpFailure("/admin/migrate", res)
	}
	var done struct {
		PauseSeconds float64 `json:"pause_seconds"`
	}
	err = json.NewDecoder(res.Body).Decode(&done)
	finishBody(res)
	if err != nil {
		return fmt.Errorf("/admin/migrate reply: %w", err)
	}
	fmt.Printf("cluster check: migrated cell %d -> %s (pause %.6fs)\n", g, dst, done.PauseSeconds)
	return nil
}

// fetchFingerprint asks the router for the O(live) cluster fingerprint.
func fetchFingerprint(client *http.Client, base string) (string, error) {
	var st struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := getJSON(client, base+"/stats?fingerprint=1", &st); err != nil {
		return "", err
	}
	if st.Fingerprint == "" {
		return "", fmt.Errorf("router reported no fingerprint (unhealthy upstream?)")
	}
	return st.Fingerprint, nil
}

// sameIDs asserts two sorted grant lists are identical.
func sameIDs(cluster, local []int64) error {
	if len(cluster) != len(local) {
		return fmt.Errorf("%d vs %d balls", len(cluster), len(local))
	}
	for i := range cluster {
		if cluster[i] != local[i] {
			return fmt.Errorf("ball %d: id %d vs %d", i, cluster[i], local[i])
		}
	}
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	res, err := client.Get(url)
	if err != nil {
		return err
	}
	defer finishBody(res)
	if res.StatusCode != http.StatusOK {
		return httpFailure(url, res)
	}
	return json.NewDecoder(res.Body).Decode(v)
}
