package main_test

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"repro/internal/cmdtest"
)

var addrRE = regexp.MustCompile(`listening on (\S+)`)

// TestClusterSmoke is the full cluster-tier acceptance run over real
// processes: three pba-serve -cluster replicas, a pba-router spreading
// cells over them, and pba-bench -check playing a sequential churn
// trace with live migrations every 10 batches while replaying the
// identical trace on an in-process single-node service. Mid-run — after
// the first scheduled migration — one cell-hosting replica gets SIGTERM
// and must evacuate its cells through the router before draining. The
// bench's final assertion then proves the acceptance criterion: the
// surviving cluster's fingerprint is identical to an uninterrupted
// single-process run, which implies zero balls were lost to the
// departure.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries and runs a churn trace")
	}
	serveBin := cmdtest.Build(t, "repro/cmd/pba-serve")
	routerBin := cmdtest.Build(t, "repro/cmd/pba-router")
	benchBin := cmdtest.Build(t, "repro/cmd/pba-bench")

	topo := []string{"-n", "96", "-shards", "6", "-alg", "aheavy", "-seed", "13"}
	reps := make([]*cmdtest.Proc, 3)
	ups := make([]string, 3)
	for i := range reps {
		var addr string
		reps[i], addr = cmdtest.StartProc(t, serveBin, addrRE,
			append([]string{"-cluster", "-addr", "127.0.0.1:0"}, topo...)...)
		ups[i] = "http://" + addr
	}
	_, raddr := cmdtest.StartProc(t, routerBin, addrRE,
		"-addr", "127.0.0.1:0", "-n", "96", "-cells", "6", "-alg", "aheavy", "-seed", "13",
		"-upstreams", strings.Join(ups, ","))
	base := "http://" + raddr

	// The router bootstraps round-robin: replica 2 hosts cells {2, 5} and
	// keeps both through the first migration (cell 0 -> replica 1), so its
	// mid-run departure has real state to move.
	bench, _ := cmdtest.StartProc(t, benchBin, regexp.MustCompile(`migrated cell 0`),
		"-check", base, "-batches", "40", "-batch", "500", "-churn", "0.3",
		"-seed", "13", "-migrate-every", "10", "-proto", "binary")
	reps[2].Signal(syscall.SIGTERM)
	reps[2].ExpectLine(regexp.MustCompile(`evacuated [1-9]\d* cell\(s\)`))
	if code := reps[2].WaitExit(); code != 0 {
		t.Fatalf("replica exited %d after SIGTERM", code)
	}

	// The bench keeps driving the two survivors and must still find the
	// cluster fingerprint-identical to the single-process replay.
	bench.ExpectLine(regexp.MustCompile(`check: OK`))
	if code := bench.WaitExit(); code != 0 {
		t.Fatalf("pba-bench -check exited %d", code)
	}

	// The router's own books agree: the dead upstream hosts nothing, every
	// ball is accounted for on the survivors, and the cluster fingerprint
	// is still collectible.
	var st struct {
		Live        int64  `json:"live"`
		Fingerprint string `json:"fingerprint"`
		Upstreams   []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Cells   []int  `json:"cells"`
			Live    int64  `json:"live"`
		} `json:"upstreams"`
	}
	res, err := http.Get(base + "/stats?fingerprint=1")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(res.Body).Decode(&st)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint == "" {
		t.Fatal("no cluster fingerprint after replica departure")
	}
	var hosted, survivorLive int64
	for _, u := range st.Upstreams {
		hosted += int64(len(u.Cells))
		survivorLive += u.Live
		if u.URL == ups[2] && (u.Healthy || len(u.Cells) > 0) {
			t.Fatalf("departed replica still healthy or hosting: %+v", u)
		}
	}
	if hosted != 6 {
		t.Fatalf("cluster hosts %d cells after departure, want 6", hosted)
	}
	if st.Live == 0 || survivorLive != st.Live {
		t.Fatalf("ball census broken: aggregate %d, per-upstream sum %d", st.Live, survivorLive)
	}

	// The admin table agrees with /stats on who hosts what.
	var table struct {
		Cells []string `json:"cells"`
	}
	res, err = http.Get(base + "/admin/table")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(res.Body).Decode(&table)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Cells) != 6 {
		t.Fatalf("admin table has %d cells, want 6", len(table.Cells))
	}
	for g, owner := range table.Cells {
		if owner == ups[2] {
			t.Fatalf("admin table still assigns cell %d to the departed replica", g)
		}
	}
}

// TestRouterFlagValidation: a router without upstreams refuses to start.
func TestRouterFlagValidation(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/pba-router")
	_, stderr, code := cmdtest.Run(t, bin, "-addr", "127.0.0.1:0")
	if code == 0 || !strings.Contains(stderr, "-upstreams") {
		t.Fatalf("router without -upstreams: exit %d, stderr %q", code, stderr)
	}
}
