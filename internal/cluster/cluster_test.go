package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// startReplica boots one pba-serve replica over a real loopback TCP
// listener — the router's data plane needs actual sockets, not
// httptest's in-process transport.
func startReplica(t testing.TB, cfg serve.Config) (*serve.Service, string) {
	return startWrappedReplica(t, cfg, nil, nil)
}

// startWrappedReplica is startReplica with the replica's listener and
// handler passed through wrapLn and wrap (nil leaves either as is), so a
// test can reach the connections the replica accepts or make one
// endpoint misbehave while the rest serve normally.
func startWrappedReplica(t testing.TB, cfg serve.Config, wrapLn func(net.Listener) net.Listener, wrap func(http.Handler) http.Handler) (*serve.Service, string) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	if wrapLn != nil {
		ln = wrapLn(ln)
	}
	h := serve.NewHandler(s, serve.HandlerConfig{})
	if wrap != nil {
		h = wrap(h)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		s.Close()
	})
	return s, "http://" + ln.Addr().String()
}

// emptyReplica is a cluster replica hosting nothing until the router
// assigns cells.
func emptyReplica(t testing.TB, n, cells int, seed uint64) (*serve.Service, string) {
	return startReplica(t, serve.Config{
		N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{},
	})
}

// TestClusterMatchesSingleProcess is the cluster determinism contract:
// a fixed (seed, request sequence, topology, migration schedule) played
// sequentially through the router over three replicas — including two
// live migrations and a full evacuation mid-trace — grants the same IDs
// at every step and ends fingerprint-identical to the same trace
// against one single-process service. Zero balls lost.
func TestClusterMatchesSingleProcess(t *testing.T) {
	const n, cells, seed = 60, 6, 21
	single, err := serve.New(serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	ups := make([]string, 3)
	for i := range ups {
		_, ups[i] = emptyReplica(t, n, cells, seed)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: ups})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var singleLive, clusterLive []int64
	step := func(arrive, release int) {
		t.Helper()
		if release > 0 {
			sGot := single.Release(singleLive[:release])
			cGot := r.Release(clusterLive[:release])
			if sGot != release || cGot != release {
				t.Fatalf("released single=%d cluster=%d, want %d", sGot, cGot, release)
			}
			singleLive = singleLive[release:]
			clusterLive = clusterLive[release:]
		}
		srep, err := single.Allocate(arrive)
		if err != nil {
			t.Fatal(err)
		}
		crep, err := r.Allocate(arrive)
		if err != nil {
			t.Fatal(err)
		}
		sIDs, cIDs := srep.IDs(), crep.IDs()
		if len(sIDs) != len(cIDs) {
			t.Fatalf("cluster admitted %d, single %d", len(cIDs), len(sIDs))
		}
		for i := range sIDs {
			if sIDs[i] != cIDs[i] {
				t.Fatalf("id %d: cluster %d != single %d", i, cIDs[i], sIDs[i])
			}
		}
		if srep.Admitted != crep.Admitted || srep.Pending != crep.Pending || srep.Cells != crep.Cells {
			t.Fatalf("report scalars differ: single %+v, cluster %+v", srep, crep)
		}
		singleLive = append(singleLive, sIDs...)
		clusterLive = append(clusterLive, cIDs...)
	}
	checkFingerprint := func(when string) {
		t.Helper()
		got, err := r.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if want := single.Fingerprint(); got != want {
			t.Fatalf("%s: cluster fingerprint %s != single-process %s", when, got, want)
		}
	}

	step(400, 0)
	step(300, 100)

	// Live migration mid-trace: move two cells between replicas.
	if err := r.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Migrate(4, 0); err != nil {
		t.Fatal(err)
	}
	checkFingerprint("after migrations")

	step(0, 50)
	step(500, 200)

	// Graceful departure: drain replica 1 entirely, keep trafficking.
	moved, err := r.Evacuate(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("evacuation moved no cells")
	}
	for g, base := range r.Table() {
		if base == ups[1] {
			t.Fatalf("cell %d still on evacuated upstream", g)
		}
	}
	checkFingerprint("after evacuation")

	step(100, 0)
	step(0, 300)
	checkFingerprint("end of trace")

	// Zero lost balls: the cluster's live census matches the reference.
	st, ok := r.StatsDoc(false).(Stats)
	if !ok {
		t.Fatal("StatsDoc type")
	}
	if want := single.StatsLite().Live; st.Live != want {
		t.Fatalf("cluster live %d, single-process %d", st.Live, want)
	}
	if st.Requests == 0 || st.Shards != cells {
		t.Fatalf("bad stats doc: %+v", st)
	}
}

// TestBootstrapAdoptsRunningCluster: a router restart re-learns the
// assignment from the replicas' GET /cells instead of re-attaching, and
// the rebalancer then moves load off the overloaded replica.
func TestBootstrapAdoptsRunningCluster(t *testing.T) {
	const n, cells, seed = 40, 4, 9
	_, upA := startReplica(t, serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{0, 1, 2}})
	_, upB := startReplica(t, serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{3}})
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: []string{upA, upB}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	table := r.Table()
	for g, want := range []string{upA, upA, upA, upB} {
		if table[g] != want {
			t.Fatalf("cell %d adopted onto %s, want %s", g, table[g], want)
		}
	}

	if _, err := r.Allocate(2000); err != nil {
		t.Fatal(err)
	}
	// Replica A carries ~3/4 of the load; the rebalancer should shed one
	// cell A→B.
	moved, err := r.RebalanceOnce(1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("rebalancer did not migrate despite 3:1 load skew")
	}
	onA := 0
	for _, base := range r.Table() {
		if base == upA {
			onA++
		}
	}
	if onA != 2 {
		t.Fatalf("after rebalance %d cells on A, want 2", onA)
	}
	// Balanced now: a second pass must hold still.
	if moved, err = r.RebalanceOnce(1.5, 10); err != nil || moved {
		t.Fatalf("rebalancer moved again on balanced cluster (moved=%v err=%v)", moved, err)
	}
}

// TestTopologyMismatchRejected: a replica built from a different seed
// fails the bootstrap handshake.
func TestTopologyMismatchRejected(t *testing.T) {
	_, up := startReplica(t, serve.Config{N: 40, Shards: 4, Alg: "aheavy", Seed: 7, Workers: 1, Host: []int{}})
	_, err := New(Config{N: 40, Cells: 4, Alg: "aheavy", Seed: 8, Upstreams: []string{up}})
	if err == nil {
		t.Fatal("router accepted a replica with a mismatched seed")
	}
}

// TestPartialFailurePropagates: when a replica answers an allocate sub
// with the partial-failure shape (500 + granted spans), the router folds
// the granted spans into its reply and surfaces the error — the replica
// contract, held cluster-wide. The stub replica speaks the frame
// protocol and fails every sub it is sent.
func TestPartialFailurePropagates(t *testing.T) {
	const n, cells = 8, 2
	mux := http.NewServeMux()
	mux.HandleFunc("/cells", func(w http.ResponseWriter, req *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{
			"n": n, "shards": cells, "alg": "aheavy", "seed": 1,
			"cells": []map[string]int{{"cell": 0}, {"cell": 1}},
		})
	})
	mux.HandleFunc("/frames", func(w http.ResponseWriter, req *http.Request) {
		nc, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		defer nc.Close()
		_, _ = io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+serve.FramesProtocol+"\r\n\r\n")
		doc, _ := json.Marshal(map[string]any{
			"error": "cell 1: allocator wedged",
			"spans": []serve.Span{{Start: 0, Stride: cells, Count: 3}},
		})
		var in []byte
		var subs []wire.BatchSub
		for {
			if in, err = wire.ReadFrame(brw, in, serve.MaxBody); err != nil {
				return
			}
			if subs, err = wire.ParseBatchRequest(in, subs[:0]); err != nil {
				return
			}
			out := wire.BeginBatchReply(nil)
			for _, sub := range subs {
				out = wire.AppendBatchSubError(wire.AppendBatchTag(out, sub.Tag), http.StatusInternalServerError, doc)
			}
			if _, err := nc.Write(wire.FinishBatch(out, 0, len(subs))); err != nil {
				return
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: []string{"http://" + ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var rep serve.Report
	err = r.AllocateInto(10, &rep)
	if err == nil {
		t.Fatal("partial failure returned no error")
	}
	if rep.Admitted != 3 || len(rep.Spans) != 1 || rep.Spans[0].Count != 3 {
		t.Fatalf("granted spans not folded into the reply: %+v", rep)
	}
}

// TestRouterHealthDoc: health aggregates replica liveness and counts
// hosted cells per upstream.
func TestRouterHealthDoc(t *testing.T) {
	const n, cells = 16, 2
	ups := make([]string, 2)
	for i := range ups {
		_, ups[i] = emptyReplica(t, n, cells, 1)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: ups})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, ok := r.HealthDoc().(Health)
	if !ok {
		t.Fatal("HealthDoc type")
	}
	if h.Status != "ok" || !h.Clustered || len(h.Upstreams) != 2 {
		t.Fatalf("bad health doc: %+v", h)
	}
	total := 0
	for _, u := range h.Upstreams {
		if !u.Healthy {
			t.Fatalf("upstream %s unhealthy: %+v", u.URL, h)
		}
		total += u.Cells
	}
	if total != cells {
		t.Fatalf("health doc accounts for %d cells, want %d", total, cells)
	}
}

// TestRouterOverHTTP: the router behind serve.NewBackendHandler is
// protocol-identical to a replica — a JSON client allocates and
// releases through it without knowing it is talking to a cluster.
func TestRouterOverHTTP(t *testing.T) {
	const n, cells = 24, 3
	ups := make([]string, 2)
	for i := range ups {
		_, ups[i] = emptyReplica(t, n, cells, 5)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 5, Upstreams: ups})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mux := serve.NewBackendHandler(r, r.Metrics(), serve.HandlerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	base := "http://" + ln.Addr().String()

	res, err := http.Post(base+"/allocate", "application/json", strings.NewReader(`{"count":100,"terse":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.Report
	if err := json.NewDecoder(res.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || rep.Admitted != 100 {
		t.Fatalf("allocate over HTTP: status %d, report %+v", res.StatusCode, rep)
	}

	ids := rep.IDs()
	body, _ := json.Marshal(map[string][]int64{"ids": ids})
	res, err = http.Post(base+"/release", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rel struct {
		Released int `json:"released"`
	}
	if err := json.NewDecoder(res.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if rel.Released != len(ids) {
		t.Fatalf("released %d of %d over HTTP", rel.Released, len(ids))
	}

	res, err = http.Get(base + "/stats?fingerprint=1")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if !st.Clustered || st.Fingerprint == "" {
		t.Fatalf("bad /stats doc: %+v", st)
	}
}
