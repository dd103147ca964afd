package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestBatchedMatchesSingleProcess is the determinism contract with group
// commit on: the same fixed trace as TestClusterMatchesSingleProcess —
// live migrations and an evacuation included — played sequentially
// through a batched router grants the same IDs at every step and ends
// fingerprint-identical to one single-process service. A sequential
// caller has nothing queued behind it, so every frame carries one sub
// and each sub runs exactly as a lone cell-addressed request.
func TestBatchedMatchesSingleProcess(t *testing.T) {
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
	if err := r.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Migrate(4, 0); err != nil {
		t.Fatal(err)
	}
	checkFingerprint("after migrations")
	step(0, 50)
	step(500, 200)
	if moved, err := r.Evacuate(1); err != nil || moved == 0 {
		t.Fatalf("evacuation moved %d cells: %v", moved, err)
	}
	checkFingerprint("after evacuation")
	step(100, 0)
	step(0, 300)
	checkFingerprint("end of trace")

	// The writers actually carried the trace — frames flushed on every
	// upstream that saw traffic — and the sequential caller never rode a
	// multi-sub frame (zero added latency).
	frames := uint64(0)
	for _, bt := range r.batchers {
		frames += bt.frames.Load()
		if max := bt.batchSize.Max(); max > 1 {
			t.Fatalf("sequential trace flushed a %d-sub frame; want single-sub flushes only", max)
		}
	}
	if frames == 0 {
		t.Fatal("no batch frames flushed; the group-commit plane did not engage")
	}
}

// TestBatchedConcurrentConservation hammers a batched router from 8
// concurrent clients while cells migrate between replicas mid-flight:
// multi-sub frames, migration gate interleaving, and demux all under
// load (and under -race in the race CI job). Afterwards every granted ID
// must be unique, the clients' live holdings must equal the cluster's
// live census exactly — no ball lost or duplicated — and a full drain
// must return the cluster to zero.
func TestBatchedConcurrentConservation(t *testing.T) {
	const n, cells, seed = 240, 6, 11
	const clients = 8
	ups := make([]string, 3)
	for i := range ups {
		_, ups[i] = emptyReplica(t, n, cells, seed)
	}
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: ups, Terse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	liveSets := make([][]int64, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rep := new(serve.Report)
			var live []int64
			for {
				select {
				case <-stop:
					liveSets[c] = live
					return
				default:
				}
				if err := r.AllocateInto(8+c, rep); err != nil {
					errs[c] = err
					liveSets[c] = live
					return
				}
				live = rep.AppendIDs(live)
				if len(live) > 40 {
					k := len(live) / 2
					if got := r.Release(live[:k]); got != k {
						errs[c] = fmt.Errorf("released %d of %d", got, k)
						liveSets[c] = live[k:]
						return
					}
					live = append(live[:0], live[k:]...)
				}
			}
		}(c)
	}

	// Migrations while batches are in flight: every cell moves at least
	// once, cycling over all three replicas.
	for i := 0; i < 2*cells; i++ {
		if err := r.Migrate(i%cells, i%len(ups)); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	seen := make(map[int64]bool)
	total := 0
	for _, live := range liveSets {
		for _, id := range live {
			if seen[id] {
				t.Fatalf("duplicate live id %d", id)
			}
			seen[id] = true
		}
		total += len(live)
	}
	st, ok := r.StatsDoc(false).(Stats)
	if !ok {
		t.Fatal("StatsDoc type")
	}
	if st.Live != int64(total) {
		t.Fatalf("cluster live %d, clients hold %d", st.Live, total)
	}
	for _, live := range liveSets {
		if len(live) == 0 {
			continue
		}
		if got := r.Release(live); got != len(live) {
			t.Fatalf("drain released %d of %d", got, len(live))
		}
	}
	if st, _ = r.StatsDoc(false).(Stats); st.Live != 0 {
		t.Fatalf("%d balls live after full drain", st.Live)
	}
}

// severListener records every connection it accepts so a test can cut
// them all at once, as a replica-side crash or a reset on the path
// would.
type severListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *severListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// sever closes every connection accepted so far.
func (l *severListener) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.conns = nil
}

// TestWriterRedialsAfterSeveredConnection: when the replica side cuts
// the upgraded connection between two forwards, the next forward fails
// fast with a transport error (not a replica error, and nothing is
// admitted), the one after redials and succeeds, and every granted ball
// is still releasable.
func TestWriterRedialsAfterSeveredConnection(t *testing.T) {
	const n, cells, seed = 24, 3, 4
	var ln *severListener
	_, up := startWrappedReplica(t, serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{}},
		func(inner net.Listener) net.Listener {
			ln = &severListener{Listener: inner}
			return ln
		}, nil)
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var ids []int64
	allocate := func() error {
		rep, err := r.Allocate(20)
		if err == nil {
			ids = rep.AppendIDs(ids)
		}
		return err
	}
	for i := 0; i < 2; i++ {
		if err := allocate(); err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
	}

	ln.sever()
	start := time.Now()
	err = allocate()
	if err == nil {
		t.Fatal("forward over a severed connection succeeded")
	}
	var he *httpError
	if errors.As(err, &he) {
		t.Fatalf("severed connection surfaced as a replica error: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("forward over a severed connection took %v to fail", took)
	}

	for i := 0; i < 2; i++ {
		if err := allocate(); err != nil {
			t.Fatalf("allocate after redial %d: %v", i, err)
		}
	}
	if got := r.Release(ids); got != len(ids) || got != 4*20 {
		t.Fatalf("released %d of %d granted (want %d)", got, len(ids), 4*20)
	}
	if st, _ := r.StatsDoc(false).(Stats); st.Live != 0 {
		t.Fatalf("%d balls live after releasing every granted ID", st.Live)
	}
}

// holdListener wraps a replica's listener so a test can hold the
// replica's reply to the first batch frame of its upgraded /frames
// connection: held closes once that reply is ready, and it goes out when
// release closes. Connections that are never upgraded (the router's
// control-plane HTTP) pass untouched.
type holdListener struct {
	net.Listener
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (l *holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: c, l: l}, nil
}

// holdConn is one accepted connection. Only the goroutine serving it
// writes, so upgraded needs no lock.
type holdConn struct {
	net.Conn
	l        *holdListener
	upgraded bool
}

func (c *holdConn) Write(p []byte) (int, error) {
	if c.upgraded {
		c.l.once.Do(func() {
			close(c.l.held)
			<-c.l.release
		})
	}
	c.upgraded = c.upgraded || bytes.HasPrefix(p, []byte("HTTP/1.1 101 "))
	return c.Conn.Write(p)
}

// TestWriterSelfClocks is the upstream writer's self-clocked group
// commit: while frame 1 waits for its reply, three forwards queue at the
// writer and ride frame 2 together. A lone forward afterwards flushes
// at once with reason drain: nothing holds a flush open for company.
// Nothing is timed: the replica holds frame 1's reply until all three
// are queued.
func TestWriterSelfClocks(t *testing.T) {
	const n, cells, seed = 24, 3, 4
	ln := &holdListener{held: make(chan struct{}), release: make(chan struct{})}
	_, up := startWrappedReplica(t, serve.Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Workers: 1, Host: []int{}},
		func(inner net.Listener) net.Listener {
			ln.Listener = inner
			return ln
		}, nil)
	r, err := New(Config{N: n, Cells: cells, Alg: "aheavy", Seed: seed, Upstreams: []string{up}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bt := r.batchers[0]

	const k = 10
	ids := make([][]int64, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	forward := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := r.Allocate(k)
			if err == nil {
				ids[i] = rep.IDs()
			}
			errs[i] = err
		}()
	}
	forward(0)
	<-ln.held
	for i := 1; i < 4; i++ {
		forward(i)
	}
	for len(bt.q) < 3 {
		runtime.Gosched()
	}
	close(ln.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
	}
	if frames, subs, largest := bt.batchSize.Count(), bt.batchSize.Sum(), bt.batchSize.Max(); frames != 2 || subs != 4 || largest != 3 {
		t.Fatalf("%d frames carried %d subs (largest %d); want frame 1 alone, then the 3 queued forwards in frame 2", frames, subs, largest)
	}

	rep, err := r.Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	if full, drain := bt.flushFull.Load(), bt.flushDrain.Load(); full != 0 || drain != 3 {
		t.Fatalf("flushes by reason: full %d, drain %d; want 3 drain flushes (the lone forward flushed at once)", full, drain)
	}

	all := rep.IDs()
	for _, got := range ids {
		all = append(all, got...)
	}
	if got := r.Release(all); got != len(all) || got != 5*k {
		t.Fatalf("released %d of %d granted (want %d)", got, len(all), 5*k)
	}
	if st, _ := r.StatsDoc(false).(Stats); st.Live != 0 {
		t.Fatalf("%d balls live after releasing every granted ID", st.Live)
	}
}
