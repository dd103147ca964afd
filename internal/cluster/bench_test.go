package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// forwardPlanes builds the two measurement closures that
// TestRouterForwardAllocFree compares, over one shared replica pair: the
// raw upstream protocol (one-sub batch frames sent with conn.roundTrip on
// upgraded connections this helper dials itself — the router's connection
// and codec layer with none of its orchestration) and the router. Each
// closure plays one warm allocate+release round; the router, connections
// and replicas are torn down via tb.Cleanup.
func forwardPlanes(tb testing.TB) (baseline, routed func()) {
	const n, cells, batch = 256, 4, 64
	ups := make([]string, 2)
	for i := range ups {
		_, ups[i] = emptyReplica(tb, n, cells, 2)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 2, Upstreams: ups, Terse: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })

	// The raw-protocol baseline: fixed per-upstream shares mirroring the
	// router's split, one sub per frame like a sequential router flush.
	var basePairs [2][]wire.CellCount
	for g := range r.table {
		basePairs[r.table[g].Load()] = append(basePairs[r.table[g].Load()], wire.CellCount{Cell: g, Count: batch / cells})
	}
	conns := make([]*conn, len(r.ups))
	for u, up := range r.ups {
		if conns[u], err = up.dial(); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() {
		for _, c := range conns {
			_ = c.nc.Close()
		}
	})
	var subReps []wire.BatchSubReply
	var baseRep serve.Report
	var baseIDs []int64
	baseline = func() {
		baseIDs = baseIDs[:0]
		for u, c := range conns {
			f := wire.AppendBatchTag(wire.BeginBatchRequest(c.frame[:0]), 0)
			f = wire.AppendCellAllocateRequest(f, basePairs[u], true)
			frame := rawRoundTrip(tb, c, f, &subReps)
			if err := wire.ParseReport(frame, &baseRep); err != nil {
				tb.Fatal(err)
			}
			baseIDs = baseRep.AppendIDs(baseIDs)
		}
		for _, c := range conns {
			// Releasing the full ID set at both replicas mirrors the router's
			// partitioned release closely enough for allocation counting; the
			// replicas skip unhosted IDs.
			f := wire.AppendBatchTag(wire.BeginBatchRequest(c.frame[:0]), 0)
			f = wire.AppendReleaseRequest(f, baseIDs)
			frame := rawRoundTrip(tb, c, f, &subReps)
			if _, err := wire.ParseReleaseReply(frame); err != nil {
				tb.Fatal(err)
			}
		}
	}

	rep := new(serve.Report)
	var ids []int64
	routed = func() {
		if err := r.AllocateInto(batch, rep); err != nil {
			tb.Fatal(err)
		}
		ids = rep.AppendIDs(ids[:0])
		if got := r.Release(ids); got != len(ids) {
			tb.Fatalf("released %d of %d", got, len(ids))
		}
	}
	return baseline, routed
}

// rawRoundTrip finishes f (a batch frame holding one sub tagged 0) into
// c.frame, sends it, and returns the sub's reply frame.
func rawRoundTrip(tb testing.TB, c *conn, f []byte, reps *[]wire.BatchSubReply) []byte {
	c.frame = wire.FinishBatch(f, 0, 1)
	reply, err := c.roundTrip(c.frame)
	if err == nil {
		*reps, err = wire.ParseBatchReply(reply, (*reps)[:0])
	}
	if err == nil && (len(*reps) != 1 || (*reps)[0].Status != 0) {
		err = fmt.Errorf("raw round trip: unexpected batch reply %+v", *reps)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return (*reps)[0].Frame
}

// TestRouterForwardAllocFree: in steady state the router's binary
// forward path — split draw, group-commit submit and demux, reply merge
// — adds zero allocations per allocate/release round trip on top of
// what the raw upstream protocol costs (same frames, no router logic).
// Both sides of the comparison include the replicas' server-side work,
// so the delta isolates the router.
func TestRouterForwardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	baseline, routed := forwardPlanes(t)
	// Warm pools, connections, and slice capacities on both paths.
	for i := 0; i < 50; i++ {
		baseline()
		routed()
	}
	base := testing.AllocsPerRun(200, baseline)
	via := testing.AllocsPerRun(200, routed)
	if delta := via - base; delta >= 1 {
		t.Errorf("router forward path adds %.2f allocs/op (router %.2f, raw upstream %.2f); want 0",
			delta, via, base)
	}
}

// BenchmarkClusterThroughput drives the router from GOMAXPROCS
// concurrent clients over 1, 2, and 3 replicas hosting the same 6-cell
// topology — the cluster scaling claim (3-replica vs 1-replica balls/s)
// reads straight off the replicas=N variants. Replicas are real
// processes' worth of serving stack (TCP, HTTP, binary protocol); only
// process isolation is elided.
func BenchmarkClusterThroughput(b *testing.B) {
	const n, cells, batch = 1024, 6, 512
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			ups := make([]string, replicas)
			for i := range ups {
				_, ups[i] = emptyReplica(b, n, cells, 1)
			}
			r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: ups, Terse: true})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			var balls atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rep := new(serve.Report)
				var ids []int64
				for pb.Next() {
					if err := r.AllocateInto(batch, rep); err != nil {
						b.Error(err)
						return
					}
					ids = rep.AppendIDs(ids[:0])
					if got := r.Release(ids); got != len(ids) {
						b.Errorf("released %d of %d", got, len(ids))
						return
					}
					balls.Add(int64(len(ids)))
				}
			})
			b.StopTimer()
			st, ok := r.StatsDoc(false).(Stats)
			if !ok || st.Live != 0 {
				b.Fatalf("bench left %d balls live", st.Live)
			}
			b.ReportMetric(float64(balls.Load())/b.Elapsed().Seconds(), "balls/s")
		})
	}
}

// BenchmarkClusterGroupCommit is the group-commit grid: clients ×
// replicas, same topology and batch size everywhere. With one client
// frames carry one sub; with many clients the writer coalesces the
// submissions queued during each round trip into multi-sub frames. Clients
// are explicit goroutines sharing b.N through an atomic counter —
// RunParallel would cap the client count at GOMAXPROCS, which is 1 on
// small CI boxes.
func BenchmarkClusterGroupCommit(b *testing.B) {
	const n, cells, batch = 1024, 6, 64
	for _, clients := range []int{1, 8} {
		for _, replicas := range []int{1, 2, 3} {
			b.Run(fmt.Sprintf("clients=%d/replicas=%d", clients, replicas), func(b *testing.B) {
				ups := make([]string, replicas)
				for i := range ups {
					_, ups[i] = emptyReplica(b, n, cells, 1)
				}
				r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: 1, Upstreams: ups, Terse: true})
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				var balls atomic.Int64
				var iters atomic.Int64
				iters.Store(int64(b.N))
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rep := new(serve.Report)
						var ids []int64
						for iters.Add(-1) >= 0 {
							if err := r.AllocateInto(batch, rep); err != nil {
								b.Error(err)
								return
							}
							ids = rep.AppendIDs(ids[:0])
							if got := r.Release(ids); got != len(ids) {
								b.Errorf("released %d of %d", got, len(ids))
								return
							}
							balls.Add(int64(len(ids)))
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				st, ok := r.StatsDoc(false).(Stats)
				if !ok || st.Live != 0 {
					b.Fatalf("bench left %d balls live", st.Live)
				}
				b.ReportMetric(float64(balls.Load())/b.Elapsed().Seconds(), "balls/s")
			})
		}
	}
}

// BenchmarkMigrationPause measures the data-plane pause one two-phase
// cell move inflicts — the window in which the moving cell's forwarding
// gate is write-locked — across cell sizes. The contract under test: the
// pause tracks the traffic since the snapshot (zero here), not the balls
// in the cell, so pause_ns stays flat as balls grows. Each iteration
// still pays the full copy off-lock; pause_ns is the figure of merit,
// not ns/op. BENCH_pr9.json and BENCH_pr10.json record the retired
// whole-move (full-lock) baseline it replaced.
func BenchmarkMigrationPause(b *testing.B) {
	for _, balls := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("balls=%d", balls), func(b *testing.B) {
			// One cell, so the whole population rides the moving cell.
			const n = 1024
			ups := make([]string, 2)
			for i := range ups {
				_, ups[i] = emptyReplica(b, n, 1, 3)
			}
			r, err := New(Config{N: n, Cells: 1, Alg: "aheavy", Seed: 3, Upstreams: ups, Terse: true})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			rep := new(serve.Report)
			for placed := 0; placed < balls; {
				k := balls - placed
				if k > 8192 {
					k = 8192
				}
				if err := r.AllocateInto(k, rep); err != nil {
					b.Fatal(err)
				}
				placed += k
			}
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pause, err := r.MigrateTimed(0, 1-int(r.table[0].Load()))
				if err != nil {
					b.Fatal(err)
				}
				total += pause
			}
			b.StopTimer()
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "pause_ns")
		})
	}
}
