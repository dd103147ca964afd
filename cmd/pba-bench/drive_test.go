package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func newTestServer(t *testing.T) (*httptest.Server, *serve.Service) {
	t.Helper()
	s, err := serve.New(serve.Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(serve.NewHandler(s, serve.HandlerConfig{}))
	t.Cleanup(ts.Close)
	return ts, s
}

// newTestRouter fronts two empty replicas with an in-process router over
// the same topology as newTestServer.
func newTestRouter(t *testing.T) *httptest.Server {
	t.Helper()
	ups := make([]string, 2)
	for i := range ups {
		s, err := serve.New(serve.Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 9, Host: []int{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(serve.NewHandler(s, serve.HandlerConfig{}))
		t.Cleanup(ts.Close)
		ups[i] = ts.URL
	}
	r, err := cluster.New(cluster.Config{N: 64, Cells: 4, Alg: "aheavy", Seed: 9, Upstreams: ups})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(serve.NewBackendHandler(r, r.Metrics(), serve.HandlerConfig{}))
	t.Cleanup(ts.Close)
	return ts
}

// playSteps runs a fixed churn trace through a plane and returns the
// total balls admitted.
func playSteps(t *testing.T, p *plane) int {
	t.Helper()
	var live []int64
	var rep serve.Report
	admitted := 0
	for i, batch := range []int{40, 30, 50, 0, 25} {
		k := len(live) / 3
		released, _, err := p.step(live[:k], batch, &rep)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if released != k {
			t.Fatalf("step %d: released %d of %d", i, released, k)
		}
		if rep.Admitted != batch {
			t.Fatalf("step %d: admitted %d, want %d", i, rep.Admitted, batch)
		}
		live = rep.AppendIDs(live[k:])
		admitted += batch
	}
	return admitted
}

// TestPipePlane: the pipelined plane plays the same trace correctly on
// both protocols over its single hand-rolled HTTP/1.1 connection.
func TestPipePlane(t *testing.T) {
	for _, proto := range []string{protoJSON, protoBinary} {
		t.Run(proto, func(t *testing.T) {
			ts, s := newTestServer(t)
			p, err := dialPlane(ts.URL, proto)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			admitted := playSteps(t, p)
			if st := s.StatsLite(); st.Arrived != int64(admitted) {
				t.Errorf("server saw %d arrivals, trace sent %d", st.Arrived, admitted)
			}
		})
	}
}

// TestPlaneEquivalence: the plane drives the server into the same state
// on the same trace under both protocols — the encoding is invisible to
// the service.
func TestPlaneEquivalence(t *testing.T) {
	fps := map[string]string{}
	for _, proto := range []string{protoJSON, protoBinary} {
		ts, _ := newTestServer(t)
		p, err := dialPlane(ts.URL, proto)
		if err != nil {
			t.Fatal(err)
		}
		playSteps(t, p)
		p.Close()
		res, err := http.Get(ts.URL + "/stats?fingerprint=1")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Fingerprint string `json:"fingerprint"`
		}
		err = json.NewDecoder(res.Body).Decode(&st)
		res.Body.Close()
		if err != nil || st.Fingerprint == "" {
			t.Fatalf("stats fingerprint: %v (%q)", err, st.Fingerprint)
		}
		fps[proto] = st.Fingerprint
	}
	if fps[protoBinary] != fps[protoJSON] {
		t.Errorf("binary fingerprint %s != json %s", fps[protoBinary], fps[protoJSON])
	}
}

// TestLoadgenEndToEnd runs the whole -serve soak (health probe, metrics
// scrape, stage report) against an in-process server on both protocols.
// Every client connection is pipelined, which the subtest names record.
func TestLoadgenEndToEnd(t *testing.T) {
	for _, proto := range []string{protoJSON, protoBinary} {
		t.Run(fmt.Sprintf("proto=%s/pipeline=true", proto), func(t *testing.T) {
			ts, s := newTestServer(t)
			err := drive(driveConfig{
				Serve: ts.URL, Clients: 2, Batches: 3, Batch: 20,
				Churn: 0.3, Seed: 42, Proto: proto,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := s.StatsLite(); st.Arrived != 2*3*20 {
				t.Errorf("server saw %d arrivals, want %d", st.Arrived, 2*3*20)
			}
		})
	}
}

func checkConfig(base, proto string) driveConfig {
	return driveConfig{Check: base, Clients: 1, Batches: 6, Batch: 40, Churn: 0.3, Seed: 5, Proto: proto}
}

// TestCheckPasses: -check replays a fresh target placement-for-placement,
// whether it is one service (on either protocol) or a router over two
// replicas.
func TestCheckPasses(t *testing.T) {
	for _, proto := range []string{protoJSON, protoBinary} {
		t.Run("serve/"+proto, func(t *testing.T) {
			ts, _ := newTestServer(t)
			if err := drive(checkConfig(ts.URL, proto)); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("router/"+protoBinary, func(t *testing.T) {
		if err := drive(checkConfig(newTestRouter(t).URL, protoBinary)); err != nil {
			t.Fatal(err)
		}
	})
}

// misreportedSeed is a Service whose /stats claims a seed it does not run.
type misreportedSeed struct{ *serve.Service }

func (m misreportedSeed) StatsDoc(fingerprint bool) any {
	st := m.StatsLite()
	st.Seed++
	return st
}

// TestCheckCanFail: a replay built from a wrong topology diverges on the
// very first batch, so -check passing means something.
func TestCheckCanFail(t *testing.T) {
	s, err := serve.New(serve.Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(serve.NewBackendHandler(misreportedSeed{s}, obs.NewRegistry(), serve.HandlerConfig{}))
	defer ts.Close()
	err = drive(checkConfig(ts.URL, protoBinary))
	if err == nil || !strings.Contains(err.Error(), "batch 0: target and replay granted different balls") {
		t.Fatalf("check against a misreported seed: %v", err)
	}
}

// TestDriveRefusesInvalid: every contradictory configuration is refused
// before any load is sent.
func TestDriveRefusesInvalid(t *testing.T) {
	used, _ := newTestServer(t)
	if err := drive(driveConfig{Serve: used.URL, Clients: 1, Batches: 1, Batch: 1, Proto: protoJSON}); err != nil {
		t.Fatal(err)
	}
	fresh, freshSvc := newTestServer(t)
	for _, tc := range []struct {
		name string
		cfg  driveConfig
		want string
	}{
		{"used target", checkConfig(used.URL, protoJSON), "fresh"},
		{"check with 2 clients", driveConfig{Check: fresh.URL, Clients: 2, Batches: 1, Batch: 1, Proto: protoJSON}, "-clients 2"},
		{"migrate without check", driveConfig{Serve: fresh.URL, Clients: 1, Batches: 1, Batch: 1, Proto: protoJSON, MigrateEvery: 2}, "-migrate-every needs -check"},
		{"migrate without upstreams", driveConfig{Check: fresh.URL, Clients: 1, Batches: 1, Batch: 1, Proto: protoJSON, MigrateEvery: 2}, "at least 2 upstreams"},
		{"serve and check", driveConfig{Serve: fresh.URL, Check: fresh.URL, Clients: 1, Batches: 1, Batch: 1, Proto: protoJSON}, "pick one"},
	} {
		if err := drive(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if st := freshSvc.StatsLite(); st.Requests != 0 {
		t.Errorf("refused runs still sent %d requests", st.Requests)
	}
}
