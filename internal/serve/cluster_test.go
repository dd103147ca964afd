package serve

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// clusterDriver replays one request sequence against a set of cluster
// replicas exactly as the front router would: it draws each request's
// multinomial split with SplitBalls and hands every replica its hosted
// cells' shares as a cell-addressed allocate. hostOf maps global cell ->
// replica index.
type clusterDriver struct {
	t        *testing.T
	replicas []*Service
	hostOf   []int
	weights  []float64
	seed     uint64
	nextReq  uint64
	rnd      rng.Rand
	counts   []int64
}

func newClusterDriver(t *testing.T, seed uint64, n, cells int, replicas []*Service, hostOf []int) *clusterDriver {
	return &clusterDriver{
		t: t, replicas: replicas, hostOf: hostOf,
		weights: CellWeights(n, cells), seed: seed,
		counts: make([]int64, cells),
	}
}

// allocate admits k balls across the cluster and returns the admitted
// global IDs (ascending, merged across replicas).
func (d *clusterDriver) allocate(k int) []int64 {
	d.t.Helper()
	SplitBalls(&d.rnd, d.seed, d.nextReq, k, d.weights, d.counts)
	d.nextReq++
	var ids []int64
	for ri, r := range d.replicas {
		var pairs []wire.CellCount
		for g, c := range d.counts {
			if d.hostOf[g] != ri {
				continue
			}
			if c > 0 || k == 0 {
				pairs = append(pairs, wire.CellCount{Cell: g, Count: int(c)})
			}
		}
		if len(pairs) == 0 {
			continue
		}
		var rep Report
		if err := r.AllocateCellsInto(pairs, &rep); err != nil {
			d.t.Fatalf("replica %d: %v", ri, err)
		}
		ids = append(ids, rep.IDs()...)
	}
	// Merge the per-replica runs into ascending global order, matching the
	// single-process reply's ID enumeration.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids
}

// release departs ids cluster-wide; each replica silently skips the IDs
// of cells hosted elsewhere.
func (d *clusterDriver) release(ids []int64) int {
	total := 0
	for _, r := range d.replicas {
		total += r.Release(ids)
	}
	return total
}

// fingerprint assembles the cluster-wide fingerprint from the per-cell
// fingerprints, in global cell order, across all replicas.
func (d *clusterDriver) fingerprint(n, cells int, alg string) string {
	d.t.Helper()
	fps := make([]string, cells)
	for _, r := range d.replicas {
		for _, ci := range r.Cells(true) {
			fps[ci.Cell] = ci.Fingerprint
		}
	}
	for g, fp := range fps {
		if fp == "" {
			d.t.Fatalf("cell %d hosted nowhere", g)
		}
	}
	return ClusterFingerprint(n, cells, alg, fps)
}

// TestCellAddressedMatchesPlain: feeding a service the splits the router
// would draw, as cell-addressed allocates, reproduces the plain-allocate
// run bit for bit — the equivalence the cluster tier's determinism
// contract stands on.
func TestCellAddressedMatchesPlain(t *testing.T) {
	const n, cells = 40, 4
	mk := func() *Service {
		s, err := New(Config{N: n, Shards: cells, Alg: "aheavy", Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain, addressed := mk(), mk()
	defer plain.Close()
	defer addressed.Close()

	var rnd rng.Rand
	weights := CellWeights(n, cells)
	counts := make([]int64, cells)
	for reqIdx, k := range []int{300, 150, 0, 500, 42} {
		prep, err := plain.Allocate(k)
		if err != nil {
			t.Fatal(err)
		}
		SplitBalls(&rnd, 21, uint64(reqIdx), k, weights, counts)
		var pairs []wire.CellCount
		for g, c := range counts {
			if c > 0 || k == 0 {
				pairs = append(pairs, wire.CellCount{Cell: g, Count: int(c)})
			}
		}
		var arep Report
		if err := addressed.AllocateCellsInto(pairs, &arep); err != nil {
			t.Fatal(err)
		}
		if prep.Admitted != arep.Admitted || prep.Pending != arep.Pending || prep.Cells != arep.Cells {
			t.Fatalf("req %d: scalars differ: %+v vs %+v", reqIdx, prep, &arep)
		}
		if len(prep.Spans) != len(arep.Spans) {
			t.Fatalf("req %d: %d spans vs %d", reqIdx, len(prep.Spans), len(arep.Spans))
		}
		for i := range prep.Spans {
			if prep.Spans[i] != arep.Spans[i] {
				t.Fatalf("req %d span %d: %+v vs %+v", reqIdx, i, prep.Spans[i], arep.Spans[i])
			}
		}
		if len(prep.Placements) != len(arep.Placements) {
			t.Fatalf("req %d: %d placements vs %d", reqIdx, len(prep.Placements), len(arep.Placements))
		}
		for i := range prep.Placements {
			if prep.Placements[i] != arep.Placements[i] {
				t.Fatalf("req %d placement %d: %+v vs %+v", reqIdx, i, prep.Placements[i], arep.Placements[i])
			}
		}
	}
	if pf, af := plain.Fingerprint(), addressed.Fingerprint(); pf != af {
		t.Fatalf("fingerprints diverged: plain %s, cell-addressed %s", pf, af)
	}
}

// TestClusterReplicasMatchSingleProcess: two replicas hosting disjoint
// cell subsets, driven with router-drawn splits and a mid-trace live
// migration, end at exactly the single-process service fingerprint for
// the same (seed, sequence, topology) — the cluster determinism
// contract, including zero balls lost to the migration.
func TestClusterReplicasMatchSingleProcess(t *testing.T) {
	const n, cells, seed = 40, 4, 21
	single, err := New(Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	r0, err := New(Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Host: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := New(Config{N: n, Shards: cells, Alg: "aheavy", Seed: seed, Host: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	d := newClusterDriver(t, seed, n, cells, []*Service{r0, r1}, []int{0, 0, 1, 1})
	var singleLive, clusterLive []int64
	steps := []struct {
		arrive  int
		release int
		migrate bool // move cell 1 from replica 0 to replica 1 before this step
	}{
		{400, 0, false}, {300, 100, false}, {0, 50, true}, {500, 200, false}, {100, 0, false}, {0, 300, false},
	}
	for i, st := range steps {
		if st.migrate {
			d.migrateTwoPhase(1, 0, 1, nil)
		}
		if st.release > 0 {
			sGot := single.Release(singleLive[:st.release])
			cGot := d.release(clusterLive[:st.release])
			if sGot != st.release || cGot != st.release {
				t.Fatalf("step %d: released single=%d cluster=%d, want %d", i, sGot, cGot, st.release)
			}
			singleLive = singleLive[st.release:]
			clusterLive = clusterLive[st.release:]
		}
		srep, err := single.Allocate(st.arrive)
		if err != nil {
			t.Fatal(err)
		}
		sIDs := srep.IDs()
		cIDs := d.allocate(st.arrive)
		if len(sIDs) != len(cIDs) {
			t.Fatalf("step %d: admitted %d cluster IDs, single admitted %d", i, len(cIDs), len(sIDs))
		}
		for j := range sIDs {
			if sIDs[j] != cIDs[j] {
				t.Fatalf("step %d id %d: cluster %d != single %d", i, j, cIDs[j], sIDs[j])
			}
		}
		singleLive = append(singleLive, sIDs...)
		clusterLive = append(clusterLive, cIDs...)
	}
	want := single.Fingerprint()
	if got := d.fingerprint(n, cells, "aheavy"); got != want {
		t.Fatalf("cluster fingerprint %s != single-process %s", got, want)
	}
	// The hosted sets reflect the migration.
	if hosted := r0.HostedCells(); len(hosted) != 1 || hosted[0] != 0 {
		t.Fatalf("replica 0 hosts %v, want [0]", hosted)
	}
	if hosted := r1.HostedCells(); len(hosted) != 3 {
		t.Fatalf("replica 1 hosts %v, want [1 2 3]", hosted)
	}
}

// TestClusterTopologyErrors: the attach/detach seam fails loudly on every
// misuse instead of corrupting the topology.
func TestClusterTopologyErrors(t *testing.T) {
	r, err := New(Config{N: 40, Shards: 4, Alg: "aheavy", Seed: 3, Host: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var rep Report
	if err := r.AllocateInto(10, &rep); err == nil {
		t.Error("plain allocate accepted on a partial replica")
	}
	if err := r.AllocateCellsInto([]wire.CellCount{{Cell: 2, Count: 5}}, &rep); err == nil {
		t.Error("cell-addressed allocate accepted for an unhosted cell")
	}
	if err := r.AllocateCellsInto([]wire.CellCount{{Cell: 9, Count: 5}}, &rep); err == nil {
		t.Error("cell-addressed allocate accepted an out-of-range cell")
	}
	if err := r.AllocateCellsInto([]wire.CellCount{{Cell: 0, Count: -1}}, &rep); err == nil {
		t.Error("cell-addressed allocate accepted a negative count")
	}
	if err := r.AttachCell(1); err == nil {
		t.Error("attach accepted an already-hosted cell")
	}
	if err := r.AttachCell(7); err == nil {
		t.Error("attach accepted an out-of-range cell")
	}
	// A seed-mismatched snapshot must be rejected before it can poison
	// determinism.
	other, err := New(Config{N: 40, Shards: 4, Alg: "aheavy", Seed: 99, Host: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	snap, err := other.BeginCellMigration(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StageCell(2, snap); err == nil {
		t.Error("stage accepted a snapshot whose seed does not derive from the service seed")
	}

	// Fixed-topology services refuse attach outright.
	fixed, err := New(Config{N: 40, Shards: 2, Alg: "aheavy", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if err := fixed.AttachCell(0); err == nil {
		t.Error("attach accepted on a non-cluster service")
	}

	// New validates the host list itself.
	if _, err := New(Config{N: 40, Shards: 4, Alg: "aheavy", Seed: 3, Host: []int{0, 0}}); err == nil {
		t.Error("New accepted a duplicate host cell")
	}
	if _, err := New(Config{N: 40, Shards: 4, Alg: "aheavy", Seed: 3, Host: []int{5}}); err == nil {
		t.Error("New accepted an out-of-range host cell")
	}
}

// TestInlineFastPath: sequential single-shard traffic takes the inline
// path (the batcher is bypassed), and the results are the ones the
// batcher produces — TestSingleShardMatchesAllocator asserts equivalence
// against the bare allocator; here we assert the path actually engaged.
func TestInlineFastPath(t *testing.T) {
	s, err := New(Config{N: 32, Shards: 1, Alg: "aheavy", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []int{100, 50, 0, 200} {
		if _, err := s.Allocate(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.metrics.inlineEpochs.Load(); got == 0 {
		t.Error("sequential single-shard allocates never took the inline fast path")
	}
	checkConservation(t, s)
}
