package serve

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/online"
	"repro/internal/wire"
)

// playTrace drives one fixed request sequence sequentially and returns
// the service (caller closes it).
func playTrace(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	steps := []struct {
		arrive  int
		release int // departs the first `release` live balls before arriving
	}{
		{400, 0}, {300, 100}, {0, 50}, {500, 200}, {100, 0}, {0, 300},
	}
	for _, st := range steps {
		if st.release > 0 {
			if got := s.Release(live[:st.release]); got != st.release {
				t.Fatalf("released %d of %d", got, st.release)
			}
			live = live[st.release:]
		}
		rep, err := s.Allocate(st.arrive)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rep.IDs()); got != st.arrive {
			t.Fatalf("admitted %d ids, want %d", got, st.arrive)
		}
		live = append(live, rep.IDs()...)
	}
	return s
}

func checkConservation(t *testing.T, s *Service) {
	t.Helper()
	st := s.Stats()
	if st.Live != st.Arrived-st.Departed {
		t.Fatalf("live %d != arrived %d - departed %d", st.Live, st.Arrived, st.Departed)
	}
	if st.Placed+st.Pending != st.Live {
		t.Fatalf("placed %d + pending %d != live %d", st.Placed, st.Pending, st.Live)
	}
	loads := s.Loads()
	if len(loads) != st.N {
		t.Fatalf("load vector has %d bins, want %d", len(loads), st.N)
	}
	var sum int64
	for _, l := range loads {
		if l < 0 {
			t.Fatalf("negative bin load %d", l)
		}
		sum += l
	}
	if sum != st.Placed {
		t.Fatalf("loads sum %d != placed %d", sum, st.Placed)
	}
}

// TestSingleShardMatchesAllocator: a 1-shard service is bit-compatible
// with a bare online.Allocator fed the same request sequence — same cell
// fingerprint, same placements mapped 1:1 (stride 1).
func TestSingleShardMatchesAllocator(t *testing.T) {
	s, err := New(Config{N: 32, Shards: 1, Alg: "aheavy", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := online.New(online.Config{N: 32, Alg: "aheavy", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{200, 0, 150} {
		srep, err := s.Allocate(k)
		if err != nil {
			t.Fatal(err)
		}
		arep, err := a.Allocate(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(srep.Placements) != len(arep.Placements) {
			t.Fatalf("k=%d: %d placements vs allocator's %d", k, len(srep.Placements), len(arep.Placements))
		}
		for i, p := range srep.Placements {
			if p != arep.Placements[i] {
				t.Fatalf("k=%d placement %d: %+v vs %+v", k, i, p, arep.Placements[i])
			}
		}
	}
	s.Release([]int64{3, 5, 8})
	a.Release([]int64{3, 5, 8})
	if sf, af := s.Stats().Cells[0].Fingerprint, a.Fingerprint(); sf != af {
		t.Fatalf("cell fingerprint %s != allocator fingerprint %s", sf, af)
	}
}

// TestDeterministicAcrossWorkers is the topology determinism contract:
// for each shard count, a fixed (seed, request sequence) replayed
// sequentially yields a bit-identical combined fingerprint at any
// Workers setting.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		var want string
		for _, workers := range []int{1, 4, 8} {
			s := playTrace(t, Config{N: 32, Shards: shards, Alg: "aheavy", Seed: 11, Workers: workers})
			checkConservation(t, s)
			fp := s.Fingerprint()
			s.Close()
			if want == "" {
				want = fp
			} else if fp != want {
				t.Errorf("shards=%d workers=%d: fingerprint %s != workers=1 %s", shards, workers, fp, want)
			}
		}
	}
}

// TestRoutingAndSpans: spans partition the admitted count, IDs are
// globally unique across requests, and releases land in the right cells.
func TestRoutingAndSpans(t *testing.T) {
	s, err := New(Config{N: 40, Shards: 4, Alg: "adaptive:2", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seen := make(map[int64]bool)
	var all []int64
	for i := 0; i < 5; i++ {
		rep, err := s.Allocate(321)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, sp := range rep.Spans {
			total += sp.Count
			if sp.Stride != 4 {
				t.Fatalf("span stride %d, want 4", sp.Stride)
			}
		}
		if total != 321 || rep.Admitted != 321 {
			t.Fatalf("spans carry %d ids, admitted %d, want 321", total, rep.Admitted)
		}
		for _, id := range rep.IDs() {
			if seen[id] {
				t.Fatalf("id %d granted twice", id)
			}
			seen[id] = true
			all = append(all, id)
		}
	}
	checkConservation(t, s)
	if got := s.Release(all); got != len(all) {
		t.Fatalf("released %d of %d", got, len(all))
	}
	if st := s.Stats(); st.Live != 0 || st.Placed != 0 {
		t.Fatalf("service not empty after full release: %+v", st)
	}
	// Releasing again (and junk) is a no-op.
	if got := s.Release(append(all[:10:10], -1, 1<<40)); got != 0 {
		t.Fatalf("re-release freed %d balls", got)
	}
	checkConservation(t, s)
}

// TestShardedBalance: the per-cell excess bound survives partitioning —
// after heavy churn the global excess over ceil(placed/n) stays small.
func TestShardedBalance(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var live []int64
	for e := 0; e < 6; e++ {
		if len(live) > 0 {
			k := len(live) / 3
			s.Release(live[:k])
			live = live[k:]
		}
		rep, err := s.Allocate(4000)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if rep.Pending != 0 {
			t.Fatalf("epoch %d: %d pending", e, rep.Pending)
		}
		live = append(live, rep.IDs()...)
	}
	checkConservation(t, s)
	if st := s.Stats(); st.Excess > 12 {
		t.Errorf("global excess %d after churn (max %d over ceil %d)", st.Excess, st.MaxLoad, st.CeilAvg)
	}
}

// TestConcurrentClients exercises the coalescing path: many goroutines
// allocating and releasing concurrently must preserve ID uniqueness and
// conservation (run under -race in CI). At one shard, a request runs
// inline only when no other holds the cell, so inline epochs race the
// batcher's epochs on the one allocator.
func TestConcurrentClients(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Config{N: 48, Shards: shards, Alg: "adaptive:2", Seed: 9, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const clients, rounds = 8, 10
			var mu sync.Mutex
			seen := make(map[int64]bool)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var live []int64
					for r := 0; r < rounds; r++ {
						if len(live) > 1 {
							s.Release(live[:len(live)/2])
							live = live[len(live)/2:]
						}
						rep, err := s.Allocate(100)
						if err != nil {
							t.Error(err)
							return
						}
						ids := rep.IDs()
						mu.Lock()
						for _, id := range ids {
							if seen[id] {
								t.Errorf("id %d granted twice", id)
							}
							seen[id] = true
						}
						mu.Unlock()
						live = append(live, ids...)
					}
				}()
			}
			wg.Wait()
			checkConservation(t, s)
			st := s.Stats()
			if st.Arrived != clients*rounds*100 {
				t.Fatalf("arrived %d, want %d", st.Arrived, clients*rounds*100)
			}
			if st.Requests != clients*rounds {
				t.Fatalf("requests %d, want %d", st.Requests, clients*rounds)
			}
		})
	}
}

// TestQueuedRequestsShareEpoch is the cell batcher's self-clocked group
// commit: while one epoch runs, three requests queue behind it; the
// batcher then runs them as one epoch with three contributors and slices
// its admitted IDs out to them in arrival order. Nothing is timed: the
// first epoch is held open until all three are queued.
func TestQueuedRequestsShareEpoch(t *testing.T) {
	s, err := New(Config{N: 32, Shards: 2, Alg: "aheavy", Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.cells[0]
	g := &gatedAlloc{cellAllocator: c.alloc, entered: make(chan struct{}), release: make(chan struct{})}
	c.alloc = g

	counts := []int{10, 2, 3, 4}
	reps := make([]Report, len(counts))
	errs := make([]error, len(counts))
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.AllocateCellsInto([]wire.CellCount{{Cell: 0, Count: counts[i]}}, &reps[i])
		}()
	}
	send(0)
	<-g.entered
	for i := 1; i < len(counts); i++ {
		send(i)
		// Queue one request at a time, so arrival order is index order.
		for len(c.queue) < i {
			runtime.Gosched()
		}
	}
	close(g.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	if want := []int{10, 2 + 3 + 4}; !slices.Equal(g.epochs, want) {
		t.Fatalf("epoch arrival counts %v, want %v (the three queued requests in one epoch)", g.epochs, want)
	}
	if waits, epochs := s.metrics.stageBatchWait.Count(), s.metrics.stageEpochRun.Count(); waits != 4 || epochs != 2 {
		t.Fatalf("%d contributors over %d epochs, want 4 over 2", waits, epochs)
	}
	// The queued epoch's IDs follow the first epoch's, one contiguous
	// slice per request in arrival order (cell 0 of 2: stride 2).
	stride := int64(s.total)
	next := int64(counts[0]) * stride
	for i := 1; i < len(counts); i++ {
		want := Span{Start: next, Stride: stride, Count: counts[i]}
		if sp := reps[i].Spans; len(sp) != 1 || sp[0] != want {
			t.Fatalf("request %d got spans %+v, want [%+v]", i, sp, want)
		}
		next += int64(counts[i]) * stride
	}
	checkConservation(t, s)
}

// TestSnapshotRestoreContinue is the restart contract: run a prefix,
// snapshot through JSON, restore, run the suffix — the fingerprint must
// match an uninterrupted run of the full sequence.
func TestSnapshotRestoreContinue(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := Config{N: 40, Shards: shards, Alg: "aheavy", Seed: 21}
		prefix := func(s *Service) []int64 {
			var live []int64
			for _, k := range []int{300, 200} {
				rep, err := s.Allocate(k)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, rep.IDs()...)
			}
			s.Release(live[:150])
			return live[150:]
		}
		suffix := func(s *Service, live []int64) {
			s.Release(live[:100])
			if _, err := s.Allocate(250); err != nil {
				t.Fatal(err)
			}
		}

		// Uninterrupted run.
		full, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		suffix(full, prefix(full))
		want := full.Fingerprint()
		full.Close()

		// Interrupted run: prefix, snapshot -> JSON -> restore, suffix.
		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := prefix(first)
		data, err := json.Marshal(first.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		first.Close()
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		second, err := Restore(&snap, Config{})
		if err != nil {
			t.Fatal(err)
		}
		suffix(second, live)
		if got := second.Fingerprint(); got != want {
			t.Errorf("shards=%d: restored run fingerprint %s != uninterrupted %s", shards, got, want)
		}
		checkConservation(t, second)
		second.Close()
	}
}

// TestRestoreRejects covers the failure modes: wrong version, topology
// mismatch, tampered state.
func TestRestoreRejects(t *testing.T) {
	s, err := New(Config{N: 20, Shards: 2, Alg: "greedy:2", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(100); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	s.Close()

	if _, err := Restore(&Snapshot{Version: 99}, Config{}); err == nil {
		t.Error("future version accepted")
	}
	for _, cfg := range []Config{{N: 21}, {Shards: 3}, {Seed: 5}, {Alg: "oneshot"}} {
		if _, err := Restore(snap, cfg); err == nil {
			t.Errorf("conflicting config %+v accepted", cfg)
		}
	}
	// Matching (or zero) config restores fine.
	ok, err := Restore(snap, Config{N: 20, Shards: 2, Alg: "greedy", Seed: 4})
	if err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	ok.Close()

	// Tamper with a cell placement: the cell fingerprint check must trip.
	tampered := *snap
	cell0 := *snap.Cells[0]
	cell0.Placed = append([]online.Placement(nil), cell0.Placed...)
	cell0.Placed[0].Bin = (cell0.Placed[0].Bin + 1) % int32(cell0.N)
	tampered.Cells = []*online.Snapshot{&cell0, snap.Cells[1]}
	if _, err := Restore(&tampered, Config{}); err == nil {
		t.Error("tampered snapshot accepted")
	}
}

// TestServiceErrors: invalid configs and use-after-Close fail cleanly.
func TestServiceErrors(t *testing.T) {
	for _, cfg := range []Config{
		{N: 0, Shards: 1},
		{N: 8, Shards: 9},
		{N: 8, Shards: -1},
		{N: 8, Shards: 2, Alg: "bogus"},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
	s, err := New(Config{N: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(-1); err == nil {
		t.Error("negative arrival count accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Allocate(1); err == nil {
		t.Error("Allocate after Close succeeded")
	}
}
