package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/rng"
)

// testSnapshot is a small fixed snapshot exercising every field.
func testSnapshot() *online.Snapshot {
	return &online.Snapshot{
		Version: 1, N: 4, Alg: "aheavy", Seed: 7,
		Epoch: 2, NextID: 6, Arrived: 6, Departed: 1, Rounds: 3,
		Metrics: model.Metrics{
			TotalMessages: 10, BallRequests: 4, BinReplies: 3,
			MaxBallSent: 2, MaxBinReceived: 1,
		},
		Placed:      []online.Placement{{ID: 0, Bin: 1}, {ID: 1, Bin: 3}, {ID: 2, Bin: 0}, {ID: 4, Bin: 2}},
		Pending:     []int64{5},
		Fingerprint: "f",
	}
}

// TestSnapshotGolden pins the byte-exact binary snapshot encoding. A
// change here is a persistence-format break: snapshots on disk and
// mid-migration stop parsing, so any intentional change must bump the
// frame kind.
func TestSnapshotGolden(t *testing.T) {
	doc := AppendSnapshot(nil, testSnapshot())
	want := "01" + "04" + "06" + hex.EncodeToString([]byte("aheavy")) +
		"07" + "02" + "06" + "06" + "01" + "03" +
		"0a" + "04" + "03" + "02" + "01" + "00" + // metrics
		"04" + // placed
		"02" + // 2 runs
		"00" + "03" + // run [0..2]
		"02" + "01" + // gap +1, run [4]
		"01" + "03" + "00" + "02" + // bins
		"01" + "0a" + // pending: [5]
		"00" + // trace
		"01" + "66" + // fingerprint "f"
		"00" // chain
	if got := hex.EncodeToString(doc); got != want {
		t.Fatalf("snapshot doc:\n got %s\nwant %s", got, want)
	}
	frame := AppendCellSnapshotBinary(nil, 3, testSnapshot())
	wantFrame := "2a000000" + "07" + "03000000" + want
	if got := hex.EncodeToString(frame); got != wantFrame {
		t.Fatalf("snapshot frame:\n got %s\nwant %s", got, wantFrame)
	}

	delta := AppendCellDelta(nil, 2, []byte{0xaa, 0xbb}, []byte{'A', 1})
	wantDelta := "0a000000" + "08" + "02000000" + "02" + "aabb" + "4101"
	if got := hex.EncodeToString(delta); got != wantDelta {
		t.Fatalf("delta frame:\n got %s\nwant %s", got, wantDelta)
	}
}

// churnedSnapshot synthesizes a snapshot shaped like a real churned cell:
// IDs dense-ascending with holes, bins uniform. density is the survival
// probability per ID.
func churnedSnapshot(balls, n int, density float64, seed uint64) *online.Snapshot {
	r := rng.New(seed)
	s := &online.Snapshot{
		Version: online.SnapshotVersion, N: n, Alg: "aheavy", Seed: seed,
		Epoch: 40, Rounds: 120,
		Placed: make([]online.Placement, 0, balls),
	}
	id := int64(0)
	for len(s.Placed) < balls {
		if density >= 1 || r.Float64() < density {
			s.Placed = append(s.Placed, online.Placement{ID: id, Bin: int32(r.Intn(n))})
		}
		id++
	}
	s.NextID = id
	s.Arrived = id
	s.Departed = id - int64(balls)
	s.Fingerprint = "deadbeef"
	s.Chain = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	return s
}

func sameSnapshots(a, b *online.Snapshot) error {
	aj, err := json.Marshal(a)
	if err != nil {
		return err
	}
	bj, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(aj, bj) {
		return fmt.Errorf("snapshots differ:\n a %.200s\n b %.200s", aj, bj)
	}
	return nil
}

func TestSnapshotRoundTrip(t *testing.T) {
	cases := []*online.Snapshot{
		testSnapshot(),
		{Version: 1, N: 1, Alg: "", Fingerprint: ""},
		churnedSnapshot(3*snapshotChunk+17, 1024, 0.9, 11), // multi-chunk with holes
		churnedSnapshot(snapshotChunk, 8, 1, 12),           // exactly one dense chunk
		{
			Version: 1, N: 2, Alg: "greedy:2",
			NextID: 10, Arrived: 10, Departed: 4,
			Placed:  []online.Placement{{ID: 9, Bin: 0}},
			Pending: []int64{8, 2, 5}, // admission order is not sorted after requeues
			Trace:   []int64{100, 40, 0},
			Chain:   "ff",
		},
	}
	for i, s := range cases {
		doc := AppendSnapshot(nil, s)
		got, err := ParseSnapshot(doc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := sameSnapshots(s, got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// Re-encoding the parse is the identity (canonical form).
		if again := AppendSnapshot(nil, got); !bytes.Equal(again, doc) {
			t.Fatalf("case %d: re-encode differs", i)
		}
		// Frame-level round trip.
		frame := AppendCellSnapshotBinary(nil, i, s)
		if k, err := Kind(frame); err != nil || k != KindCellSnapshotBinary {
			t.Fatalf("case %d: Kind = %d, %v", i, k, err)
		}
		cell, fs, err := ParseCellSnapshotBinary(frame)
		if err != nil || cell != i {
			t.Fatalf("case %d: frame parse -> cell %d, %v", i, cell, err)
		}
		if err := sameSnapshots(s, fs); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestCellDeltaRoundTrip(t *testing.T) {
	chain := bytes.Repeat([]byte{0x5a}, ChainSize)
	log := []byte("opaque delta records")
	frame := AppendCellDelta(nil, 7, chain, log)
	cell, gotChain, gotLog, err := ParseCellDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if cell != 7 || !bytes.Equal(gotChain, chain) || !bytes.Equal(gotLog, log) {
		t.Fatalf("round trip -> cell %d, chain %x, log %q", cell, gotChain, gotLog)
	}
	// An empty log is a migration that caught no traffic — legal.
	if _, _, gotLog, err = ParseCellDelta(AppendCellDelta(nil, 0, chain, nil)); err != nil || len(gotLog) != 0 {
		t.Fatalf("empty log round trip: %q, %v", gotLog, err)
	}
}

// TestSnapshotParseRejects: truncations, non-minimal varints, non-maximal
// runs, count lies, and trailing garbage all fail loudly.
func TestSnapshotParseRejects(t *testing.T) {
	good := AppendSnapshot(nil, testSnapshot())
	if _, err := ParseSnapshot(good[:len(good)-1]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := ParseSnapshot(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := ParseSnapshot([]byte{0x80}); err == nil {
		t.Error("truncated varint accepted")
	}
	// 0x80 0x00 is a two-byte encoding of 0 — non-minimal.
	if _, err := ParseSnapshot(append([]byte{0x80, 0x00}, good[1:]...)); err == nil {
		t.Error("non-minimal varint accepted")
	}
	// Split the golden [0..2] run into [0..1] + [2] (gap 0): non-maximal.
	s := testSnapshot()
	split := AppendSnapshot(nil, &online.Snapshot{
		Version: s.Version, N: s.N, Alg: s.Alg, Seed: s.Seed,
		Epoch: s.Epoch, NextID: s.NextID, Arrived: s.Arrived,
		Departed: s.Departed, Rounds: s.Rounds, Metrics: s.Metrics,
		Placed: s.Placed, Pending: s.Pending, Fingerprint: s.Fingerprint,
	})
	// Hand-patch: nplaced=4, nruns 02->03, runs (00 03)(02 01) -> (00 02)(00 01)(02 01).
	i := bytes.Index(split, []byte{0x04, 0x02, 0x00, 0x03, 0x02, 0x01})
	if i < 0 {
		t.Fatal("golden run section not found")
	}
	patched := append([]byte(nil), split[:i]...)
	patched = append(patched, 0x04, 0x03, 0x00, 0x02, 0x00, 0x01, 0x02, 0x01)
	patched = append(patched, split[i+6:]...)
	if _, err := ParseSnapshot(patched); err == nil {
		t.Error("non-maximal run accepted")
	}
	// A placed count beyond the remaining bytes.
	if _, err := ParseSnapshot(placedCountLie(t)); err == nil {
		t.Error("placed-count lie accepted")
	}
	// Delta frames: truncated chain.
	delta := AppendCellDelta(nil, 1, bytes.Repeat([]byte{1}, ChainSize), []byte("x"))
	if _, _, _, err := ParseCellDelta(delta[:headerLen+5]); err == nil {
		t.Error("truncated delta chain accepted")
	}
	if _, _, _, err := ParseCellDelta(delta[:3]); err == nil {
		t.Error("truncated delta header accepted")
	}
}

// placedCountLie builds a doc whose placed count vastly exceeds the bytes
// on hand.
func placedCountLie(t *testing.T) []byte {
	t.Helper()
	// The golden doc's placed section starts with 0x04 (count 4) right
	// after the 6 metrics bytes; find it by re-encoding the prefix.
	s := testSnapshot()
	prefix := AppendSnapshot(nil, &online.Snapshot{
		Version: s.Version, N: s.N, Alg: s.Alg, Seed: s.Seed,
		Epoch: s.Epoch, NextID: s.NextID, Arrived: s.Arrived,
		Departed: s.Departed, Rounds: s.Rounds, Metrics: s.Metrics,
	})
	// prefix ends with: 00 (placed) 00 (pending) 00 (trace) 01 66 (fp) 00 (chain)
	cut := len(prefix) - 6
	lie := append([]byte(nil), prefix[:cut]...)
	return append(lie, 0xff, 0xff, 0xff, 0x7f) // declares ~256M placed balls
}

// TestRestoreEquivalence: a real allocator's snapshot survives either
// serialization identically — JSON and binary round trips restore to the
// same fingerprint, chain, and future stream, including the optional
// Trace and Chain fields.
func TestRestoreEquivalence(t *testing.T) {
	src, err := online.New(online.Config{N: 16, Alg: "aheavy", Seed: 9, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	for _, step := range []struct{ rel, arr int }{{0, 300}, {100, 200}, {150, 50}} {
		src.Release(live[:step.rel])
		live = live[step.rel:]
		rep, err := src.Allocate(step.arr)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rep.IDs()...)
	}
	snap := src.Snapshot()
	if len(snap.Trace) == 0 || snap.Chain == "" {
		t.Fatal("snapshot misses the optional Trace/Chain fields this test covers")
	}

	jdoc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON online.Snapshot
	if err := json.Unmarshal(jdoc, &fromJSON); err != nil {
		t.Fatal(err)
	}
	fromBinary, err := ParseSnapshot(AppendSnapshot(nil, snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSnapshots(&fromJSON, fromBinary); err != nil {
		t.Fatal(err)
	}

	a, err := fromJSON.Restore(online.Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromBinary.Restore(online.Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != src.Fingerprint() || b.Fingerprint() != src.Fingerprint() {
		t.Fatal("restored fingerprints differ from source")
	}
	if a.ChainFingerprint() != src.ChainFingerprint() || b.ChainFingerprint() != src.ChainFingerprint() {
		t.Fatal("restored chains differ from source")
	}
	// The two restores continue as one stream.
	ra, err := a.Allocate(77)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Allocate(77)
	if err != nil {
		t.Fatal(err)
	}
	if ra.IDBase != rb.IDBase || a.Fingerprint() != b.Fingerprint() {
		t.Fatal("JSON- and binary-restored streams diverged")
	}
}

// TestSnapshotEncodeAllocFree: the binary snapshot encoder performs no
// allocations once the caller's buffer is warm.
func TestSnapshotEncodeAllocFree(t *testing.T) {
	s := churnedSnapshot(20000, 512, 0.9, 3)
	buf := make([]byte, 0, 1<<20)
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendSnapshot(buf[:0], s)
		buf = AppendCellSnapshotBinary(buf[:0], 1, s)
		buf = AppendCellDelta(buf[:0], 1, buf[:0], nil)
	})
	if allocs != 0 {
		t.Errorf("snapshot encode allocates %v per op, want 0", allocs)
	}
}

// TestSnapshotBytesPerBall pins the size contract the format exists for:
// a realistic churned cell encodes in at most 6 bytes per live ball
// (in practice ~2), against ~25+ for the JSON document.
func TestSnapshotBytesPerBall(t *testing.T) {
	s := churnedSnapshot(100000, 1024, 0.9, 5)
	doc := AppendSnapshot(nil, s)
	perBall := float64(len(doc)) / float64(len(s.Placed))
	if perBall > 6 {
		t.Fatalf("binary snapshot spends %.2f bytes per ball, budget is 6", perBall)
	}
	j, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc)*4 > len(j) {
		t.Fatalf("binary snapshot (%d B) is not >=4x smaller than JSON (%d B)", len(doc), len(j))
	}
	t.Logf("binary %.2f B/ball, JSON %.2f B/ball", perBall, float64(len(j))/float64(len(s.Placed)))
}

// BenchmarkSnapshotEncode measures snapshot serialization for both
// formats over the same 100k-ball churned cell, reporting bytes_per_ball
// (TestSnapshotBytesPerBall asserts binary is at least 4x smaller).
func BenchmarkSnapshotEncode(b *testing.B) {
	s := churnedSnapshot(100000, 1024, 0.9, 5)
	b.Run("proto=json", func(b *testing.B) {
		var doc []byte
		for i := 0; i < b.N; i++ {
			var err error
			doc, err = json.Marshal(s)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(doc))/float64(len(s.Placed)), "bytes_per_ball")
	})
	b.Run("proto=binary", func(b *testing.B) {
		buf := make([]byte, 0, 1<<20)
		for i := 0; i < b.N; i++ {
			buf = AppendSnapshot(buf[:0], s)
		}
		b.ReportMetric(float64(len(buf))/float64(len(s.Placed)), "bytes_per_ball")
	})
}

// BenchmarkSnapshotDecode is the restore-side mirror of SnapshotEncode.
func BenchmarkSnapshotDecode(b *testing.B) {
	s := churnedSnapshot(100000, 1024, 0.9, 5)
	jdoc, err := json.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	bdoc := AppendSnapshot(nil, s)
	b.Run("proto=json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out online.Snapshot
			if err := json.Unmarshal(jdoc, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(jdoc))/float64(len(s.Placed)), "bytes_per_ball")
	})
	b.Run("proto=binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParseSnapshot(bdoc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(bdoc))/float64(len(s.Placed)), "bytes_per_ball")
	})
}
