package cluster

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// TestTwoPhaseMigrateOverHTTP drives the router's bounded-pause
// migration against real replicas: an idle move (empty delta) leaves
// the cluster fingerprint untouched, moves with concurrent traffic ship
// the in-flight balls as the delta and lose none, and a move that fails
// at any phase leaves the cell in place and the next move free to run.
func TestTwoPhaseMigrateOverHTTP(t *testing.T) {
	const n, cells, seed = 40, 4, 9
	ups := make([]string, 2)
	for i := range ups {
		_, ups[i] = emptyReplica(t, n, cells, seed)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: ups})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rep, err := r.Allocate(600)
	if err != nil {
		t.Fatal(err)
	}
	baseLive := len(rep.IDs())
	fp0, err := r.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Idle two-phase move: the delta log cuts empty, yet the move is
	// exact — migration never changes allocation state.
	pause, err := r.MigrateTimed(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pause <= 0 {
		t.Fatal("two-phase migration reported no pause window")
	}
	if got := r.Table()[0]; got != ups[1] {
		t.Fatalf("cell 0 on %s after migration, want %s", got, ups[1])
	}
	if fp, err := r.Fingerprint(); err != nil || fp != fp0 {
		t.Fatalf("fingerprint changed across an idle migration: %s -> %s (%v)", fp0, fp, err)
	}
	if got := r.met.migTotal.Load(); got != 1 {
		t.Fatalf("pba_migrations_total = %d after one migration", got)
	}
	if r.met.snapBytes.Load() == 0 {
		t.Fatal("pba_snapshot_bytes_total stayed zero across a migration")
	}
	if r.met.migPause.Count() != 1 {
		t.Fatalf("pba_migration_pause_seconds observed %d times, want 1", r.met.migPause.Count())
	}

	// Concurrent traffic through repeated moves of cell 1: balls landing
	// on the moving cell after its snapshot travel as the delta log, and
	// the per-cell gates keep the other cells serving.
	stop := make(chan struct{})
	census := make(chan int, 1)
	go func() {
		var mine []int64
		for {
			select {
			case <-stop:
				census <- len(mine)
				return
			default:
			}
			rep, err := r.Allocate(40)
			if err != nil {
				t.Error(err)
				census <- len(mine)
				return
			}
			mine = append(mine, rep.IDs()...)
			if len(mine) >= 400 {
				if got := r.Release(mine[:150]); got != 150 {
					t.Errorf("released %d of 150", got)
				}
				mine = mine[150:]
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := r.MigrateTimed(1, i%2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	trafficLive := <-census
	if t.Failed() {
		t.FailNow()
	}

	// Zero lost balls: the cluster census equals what the trace retained.
	st, ok := r.StatsDoc(false).(Stats)
	if !ok {
		t.Fatal("StatsDoc type")
	}
	if want := int64(baseLive + trafficLive); st.Live != want {
		t.Fatalf("cluster live %d after migrations under load, want %d", st.Live, want)
	}
	if got := r.met.migTotal.Load(); got != 5 {
		t.Fatalf("pba_migrations_total = %d after five migrations", got)
	}

	// A move whose begin, stage, cut or commit call fails once (404 before
	// the replica runs it) fails loudly, naming the upstream that refused.
	// The cell stays on the source and keeps serving, the census holds,
	// and neither end is left with an armed log or a staged copy: a second
	// move of the same cell succeeds.
	for _, tc := range []struct {
		path   string
		srcEnd bool // the source answers this call, else the destination
	}{
		{"/cells/migrate/begin", true},
		{"/cells/stage", false},
		{"/cells/migrate/cut", true},
		{"/cells/commit", false},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/cells/"), func(t *testing.T) {
			cfg := serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{}}
			var srcWrap, dstWrap func(http.Handler) http.Handler
			if tc.srcEnd {
				srcWrap = failOnce(tc.path)
			} else {
				dstWrap = failOnce(tc.path)
			}
			_, src := startWrappedReplica(t, cfg, nil, srcWrap)
			_, dst := startWrappedReplica(t, cfg, nil, dstWrap)
			rs, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: []string{src, dst}})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if _, err := rs.Allocate(200); err != nil {
				t.Fatal(err)
			}
			g := -1
			for cell, base := range rs.Table() {
				if base == src {
					g = cell
					break
				}
			}
			if g < 0 {
				t.Fatal("bootstrap placed no cell on the source replica")
			}
			refused := dst
			if tc.srcEnd {
				refused = src
			}
			if _, err := rs.MigrateTimed(g, 1); err == nil || !strings.Contains(err.Error(), refused) {
				t.Fatalf("migration with a failing %s: err %v, want one naming %s", tc.path, err, refused)
			}
			if got := rs.Table()[g]; got != src {
				t.Fatalf("cell %d on %s after a failed migration, want %s", g, got, src)
			}
			if got := rs.met.migTotal.Load(); got != 0 {
				t.Fatalf("pba_migrations_total = %d after a failed migration", got)
			}
			if rep, err := rs.Allocate(200); err != nil || rep.Admitted != 200 {
				t.Fatalf("allocate after a failed migration: %+v, %v", rep, err)
			}
			if st, _ := rs.StatsDoc(false).(Stats); st.Live != 400 {
				t.Fatalf("cluster live %d after a failed migration, want 400", st.Live)
			}
			if _, err := rs.MigrateTimed(g, 1); err != nil {
				t.Fatalf("second move after a failing %s: %v", tc.path, err)
			}
			if got := rs.Table()[g]; got != dst {
				t.Fatalf("cell %d on %s after the second move, want %s", g, got, dst)
			}
			if st, _ := rs.StatsDoc(false).(Stats); st.Live != 400 {
				t.Fatalf("cluster live %d after the second move, want 400", st.Live)
			}
		})
	}
}

// failOnce wraps a replica handler so that the first POST to path is
// answered 404 before the replica sees it; every later call passes.
func failOnce(path string) func(http.Handler) http.Handler {
	var failed atomic.Bool
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == path && failed.CompareAndSwap(false, true) {
				http.NotFound(w, req)
				return
			}
			h.ServeHTTP(w, req)
		})
	}
}
