package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/online"
)

// TestGoldenFrames pins the byte-exact encoding of each frame type. A
// change here is a wire-format break: old clients stop parsing new
// servers, so any intentional change must bump the frame kinds (there is
// no version field — the kind byte is the version).
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string // hex
	}{
		{
			"allocate_request",
			AppendAllocateRequest(nil, 512, false),
			"06000000" + "01" + "00020000" + "00",
		},
		{
			"allocate_request_terse",
			AppendAllocateRequest(nil, 7, true),
			"06000000" + "01" + "07000000" + "01",
		},
		{
			"release_request",
			AppendReleaseRequest(nil, []int64{1, 258}),
			"15000000" + "03" + "02000000" +
				"0100000000000000" + "0201000000000000",
		},
		{
			"release_reply",
			AppendReleaseReply(nil, 3),
			"05000000" + "04" + "03000000",
		},
		{
			"cell_allocate_request",
			AppendCellAllocateRequest(nil, []CellCount{{Cell: 2, Count: 300}, {Cell: 5, Count: 1}}, false),
			"16000000" + "05" + "00" + "02000000" +
				"02000000" + "2c010000" +
				"05000000" + "01000000",
		},
		{
			"cell_allocate_request_terse_empty",
			AppendCellAllocateRequest(nil, nil, true),
			"06000000" + "05" + "01" + "00000000",
		},
		{
			"allocate_reply",
			AppendReport(nil, &Report{
				Admitted: 3, Pending: 1, Cells: 2, Rounds: 4,
				MaxLoad: 5, Excess: -1,
				Spans:      []Span{{Start: 2, Stride: 2, Count: 2}, {Start: 1, Stride: 2, Count: 1}},
				Placements: []Placement{{ID: 2, Bin: 7}},
			}, false),
			"5d000000" + "02" +
				"03000000" + "01000000" + "02000000" + "04000000" +
				"0500000000000000" + "ffffffffffffffff" +
				"02000000" +
				"0200000000000000" + "0200000000000000" + "02000000" +
				"0100000000000000" + "0200000000000000" + "01000000" +
				"01000000" +
				"0200000000000000" + "07000000",
		},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", tc.name, err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, tc.got, want)
		}
	}
}

func TestAllocateRequestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		count int
		terse bool
	}{{0, false}, {1, true}, {1 << 22, false}, {1<<31 - 1, true}} {
		frame := AppendAllocateRequest(nil, tc.count, tc.terse)
		count, terse, err := ParseAllocateRequest(frame)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if count != tc.count || terse != tc.terse {
			t.Errorf("round trip (%d, %v) -> (%d, %v)", tc.count, tc.terse, count, terse)
		}
	}
}

func TestCellAllocateRequestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		pairs []CellCount
		terse bool
	}{
		{nil, false},
		{[]CellCount{{Cell: 0, Count: 0}}, true},
		{[]CellCount{{Cell: 1, Count: 1 << 22}, {Cell: 7, Count: 3}}, false},
		{[]CellCount{{Cell: 1<<31 - 1, Count: 1<<31 - 1}}, true},
	} {
		frame := AppendCellAllocateRequest(nil, tc.pairs, tc.terse)
		if k, err := Kind(frame); err != nil || k != KindCellAllocateRequest {
			t.Fatalf("Kind = %d, %v", k, err)
		}
		pairs, terse, err := ParseCellAllocateRequest(frame, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if terse != tc.terse || len(pairs) != len(tc.pairs) {
			t.Fatalf("round trip (%v, %v) -> (%v, %v)", tc.pairs, tc.terse, pairs, terse)
		}
		for i := range pairs {
			if pairs[i] != tc.pairs[i] {
				t.Errorf("pair %d: %+v != %+v", i, pairs[i], tc.pairs[i])
			}
		}
	}
	// Parsing appends into the caller's buffer without allocating anew.
	frame := AppendCellAllocateRequest(nil, []CellCount{{Cell: 4, Count: 9}}, false)
	buf := make([]CellCount, 0, 8)
	got, _, err := ParseCellAllocateRequest(frame, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("parse did not reuse the caller's backing array")
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	ids := []int64{0, 1, -1, 1 << 40, 7}
	frame := AppendReleaseRequest(nil, ids)
	got, err := ParseReleaseRequest(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("parsed %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Errorf("id %d: %d != %d", i, got[i], ids[i])
		}
	}
	// Parsing appends into the caller's buffer without allocating anew.
	buf := make([]int64, 0, 16)
	got2, err := ParseReleaseRequest(frame, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got2[0] != &buf[:1][0] {
		t.Error("parse did not reuse the caller's backing array")
	}

	reply := AppendReleaseReply(nil, 42)
	n, err := ParseReleaseReply(reply)
	if err != nil || n != 42 {
		t.Fatalf("release reply round trip: %d, %v", n, err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := Report{
		Admitted: 512, Pending: 3, Cells: 4, Rounds: 6, MaxLoad: 99, Excess: 2,
		Spans: []Span{
			{Start: 0, Stride: 4, Count: 130},
			{Start: 1, Stride: 4, Count: 126},
			{Start: 2, Stride: 4, Count: 128},
			{Start: 3, Stride: 4, Count: 128},
		},
		Placements: []Placement{{ID: 0, Bin: 3}, {ID: 4, Bin: 1}, {ID: 9, Bin: 1022}},
	}
	frame := AppendReport(nil, &in, false)
	var out Report
	if err := ParseReport(frame, &out); err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, &in, &out)

	// Terse drops placements and nothing else.
	terse := AppendReport(nil, &in, true)
	var tout Report
	if err := ParseReport(terse, &tout); err != nil {
		t.Fatal(err)
	}
	if len(tout.Placements) != 0 {
		t.Errorf("terse reply carries %d placements", len(tout.Placements))
	}
	tin := in
	tin.Placements = nil
	tout.Placements = nil
	assertReportsEqual(t, &tin, &tout)

	// A pooled report's backing arrays are reused across parses.
	if err := ParseReport(frame, &tout); err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, &in, &tout)
}

func assertReportsEqual(t *testing.T, a, b *Report) {
	t.Helper()
	if a.Admitted != b.Admitted || a.Pending != b.Pending || a.Cells != b.Cells ||
		a.Rounds != b.Rounds || a.MaxLoad != b.MaxLoad || a.Excess != b.Excess {
		t.Fatalf("scalar fields differ: %+v vs %+v", a, b)
	}
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("%d spans vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatalf("%d placements vs %d", len(a.Placements), len(b.Placements))
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Fatalf("placement %d: %+v vs %+v", i, a.Placements[i], b.Placements[i])
		}
	}
}

// TestAppendIDs: span expansion is ascending and matches IDs(), for the
// interleaved multi-cell shape and for degenerate spans.
func TestAppendIDs(t *testing.T) {
	r := Report{
		Admitted: 9,
		Spans: []Span{
			{Start: 14, Stride: 4, Count: 3}, // cell 2: 14 18 22
			{Start: 3, Stride: 4, Count: 2},  // cell 3: 3 7
			{Start: 0, Stride: 4, Count: 4},  // cell 0: 0 4 8 12
		},
	}
	want := []int64{0, 3, 4, 7, 8, 12, 14, 18, 22}
	got := r.AppendIDs(nil)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	ids := r.IDs()
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", ids, want)
		}
	}
	// Appending preserves the prefix.
	pre := r.AppendIDs([]int64{-5})
	if pre[0] != -5 || pre[1] != 0 || len(pre) != 10 {
		t.Fatalf("prefix not preserved: %v", pre)
	}
	if out := (&Report{}).AppendIDs(nil); len(out) != 0 {
		t.Fatalf("empty report expanded to %v", out)
	}
}

// TestParseRejects: truncations, length lies, kind mismatches, and
// negative counters all fail loudly instead of decoding garbage.
func TestParseRejects(t *testing.T) {
	good := AppendAllocateRequest(nil, 5, false)
	if _, _, err := ParseAllocateRequest(good[:3]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ParseAllocateRequest(good[:len(good)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	if _, _, err := ParseAllocateRequest(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	lied := append([]byte(nil), good...)
	lied[0] = 99
	if _, _, err := ParseAllocateRequest(lied); err == nil {
		t.Error("length lie accepted")
	}
	wrongKind := append([]byte(nil), good...)
	wrongKind[4] = KindReleaseRequest
	if _, _, err := ParseAllocateRequest(wrongKind); err == nil {
		t.Error("wrong kind accepted")
	}

	rel := AppendReleaseRequest(nil, []int64{1, 2, 3})
	countLie := append([]byte(nil), rel...)
	countLie[5] = 200 // declares 200 ids, carries 3
	if _, err := ParseReleaseRequest(countLie, nil); err == nil {
		t.Error("release count lie accepted")
	}

	cellReq := AppendCellAllocateRequest(nil, []CellCount{{Cell: 1, Count: 2}}, false)
	badFlags := append([]byte(nil), cellReq...)
	badFlags[5] = 0x80
	if _, _, err := ParseCellAllocateRequest(badFlags, nil); err == nil {
		t.Error("unknown cell allocate flags accepted")
	}
	pairLie := append([]byte(nil), cellReq...)
	pairLie[6] = 9 // declares 9 pairs, carries 1
	if _, _, err := ParseCellAllocateRequest(pairLie, nil); err == nil {
		t.Error("cell allocate pair-count lie accepted")
	}
	if _, _, err := ParseCellAllocateRequest(cellReq[:7], nil); err == nil {
		t.Error("truncated cell allocate accepted")
	}
	if _, err := Kind(cellReq[:4]); err == nil {
		t.Error("Kind accepted a truncated header")
	}

	var neg Report
	negFrame := AppendReport(nil, &Report{Admitted: 1, Spans: []Span{{Start: 0, Stride: 1, Count: 1}}}, false)
	// Patch admitted to -1 (offset: header 5 + 0).
	for i := 5; i < 9; i++ {
		negFrame[i] = 0xff
	}
	if err := ParseReport(negFrame, &neg); err == nil {
		t.Error("negative admitted accepted")
	}
}

// FuzzParse throws arbitrary bytes at every parser: none may panic, and
// any frame a parser accepts must re-encode to the identical bytes
// (parse-encode round trip is the identity on valid frames).
func FuzzParse(f *testing.F) {
	f.Add(AppendAllocateRequest(nil, 512, true))
	f.Add(AppendReleaseRequest(nil, []int64{1, 2, 3}))
	f.Add(AppendReleaseReply(nil, 9))
	f.Add(AppendReport(nil, &Report{
		Admitted: 2, Cells: 1,
		Spans:      []Span{{Start: 0, Stride: 1, Count: 2}},
		Placements: []Placement{{ID: 0, Bin: 1}},
	}, false))
	f.Add(AppendCellAllocateRequest(nil, []CellCount{{Cell: 0, Count: 128}, {Cell: 3, Count: 1}}, false))
	f.Add(AppendCellSnapshotBinary(nil, 1, &online.Snapshot{
		Version: 1, N: 4, Alg: "aheavy", NextID: 5, Arrived: 5, Departed: 1,
		Placed:      []Placement{{ID: 0, Bin: 1}, {ID: 1, Bin: 0}, {ID: 3, Bin: 2}},
		Pending:     []int64{4},
		Fingerprint: "f", Chain: "aa",
	}))
	f.Add(AppendCellDelta(nil, 3, bytes.Repeat([]byte{7}, ChainSize), []byte{'A', 0, 0, 0}))
	f.Add(buildBatchRequest([]BatchSub{
		{Tag: 0, Frame: AppendCellAllocateRequest(nil, []CellCount{{Cell: 1, Count: 9}}, true)},
		{Tag: 1, Frame: AppendReleaseRequest(nil, []int64{3})},
	}))
	f.Add(buildBatchReply([]BatchSubReply{
		{Tag: 0, Status: 0, Frame: AppendReleaseReply(nil, 1)},
		{Tag: 1, Status: 500, Frame: []byte(`{"error":"x"}`)},
	}))
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if count, terse, err := ParseAllocateRequest(data); err == nil {
			if got := AppendAllocateRequest(nil, count, terse); !bytes.Equal(got, data) {
				t.Errorf("allocate request not canonical: %x -> %x", data, got)
			}
		}
		if ids, err := ParseReleaseRequest(data, nil); err == nil {
			if got := AppendReleaseRequest(nil, ids); !bytes.Equal(got, data) {
				t.Errorf("release request not canonical: %x -> %x", data, got)
			}
		}
		if n, err := ParseReleaseReply(data); err == nil {
			if got := AppendReleaseReply(nil, n); !bytes.Equal(got, data) {
				t.Errorf("release reply not canonical: %x -> %x", data, got)
			}
		}
		if pairs, terse, err := ParseCellAllocateRequest(data, nil); err == nil {
			if got := AppendCellAllocateRequest(nil, pairs, terse); !bytes.Equal(got, data) {
				t.Errorf("cell allocate request not canonical: %x -> %x", data, got)
			}
		}
		if cell, snap, err := ParseCellSnapshotBinary(data); err == nil {
			if got := AppendCellSnapshotBinary(nil, cell, snap); !bytes.Equal(got, data) {
				t.Errorf("binary cell snapshot not canonical: %x -> %x", data, got)
			}
		}
		if cell, chain, dlog, err := ParseCellDelta(data); err == nil {
			if got := AppendCellDelta(nil, cell, chain, dlog); !bytes.Equal(got, data) {
				t.Errorf("cell delta not canonical: %x -> %x", data, got)
			}
		}
		var rep Report
		if err := ParseReport(data, &rep); err == nil {
			if got := AppendReport(nil, &rep, false); !bytes.Equal(got, data) {
				t.Errorf("allocate reply not canonical: %x -> %x", data, got)
			}
			rep.AppendIDs(nil) // expansion must not panic on any accepted frame
		}
		if subs, err := ParseBatchRequest(data, nil); err == nil {
			if got := buildBatchRequest(subs); !bytes.Equal(got, data) {
				t.Errorf("batch request not canonical: %x -> %x", data, got)
			}
		}
		if subs, err := ParseBatchReply(data, nil); err == nil {
			if got := buildBatchReply(subs); !bytes.Equal(got, data) {
				t.Errorf("batch reply not canonical: %x -> %x", data, got)
			}
		}
	})
}

// TestEncodeAllocFree: the append-style encoders and parsers perform no
// allocations once the caller's buffers are warm — the property the
// HTTP layer's 0-alloc binary path is built on.
func TestEncodeAllocFree(t *testing.T) {
	rep := Report{
		Admitted: 512, Cells: 4, Rounds: 3, MaxLoad: 8, Excess: 1,
		Spans: []Span{
			{Start: 0, Stride: 4, Count: 128}, {Start: 1, Stride: 4, Count: 128},
			{Start: 2, Stride: 4, Count: 128}, {Start: 3, Stride: 4, Count: 128},
		},
	}
	ids := make([]int64, 600)
	rnd := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = int64(rnd.Intn(1 << 30))
	}
	frame := make([]byte, 0, 1<<16)
	idBuf := make([]int64, 0, 1024)
	var parsed Report
	parsed.Spans = make([]Span, 0, 8)
	parsed.Placements = make([]Placement, 0, 8)
	relFrame := AppendReleaseRequest(make([]byte, 0, 1<<16), ids)
	repFrame := AppendReport(make([]byte, 0, 1<<16), &rep, true)
	allocs := testing.AllocsPerRun(100, func() {
		frame = AppendAllocateRequest(frame[:0], 512, true)
		frame = AppendReleaseRequest(frame[:0], ids)
		frame = AppendReport(frame[:0], &rep, true)
		if _, _, err := ParseAllocateRequest(AppendAllocateRequest(frame[:0], 1, false)); err != nil {
			t.Fatal(err)
		}
		idBuf = idBuf[:0]
		var err error
		idBuf, err = ParseReleaseRequest(relFrame, idBuf)
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseReport(repFrame, &parsed); err != nil {
			t.Fatal(err)
		}
		idBuf = parsed.AppendIDs(idBuf[:0])
	})
	if allocs != 0 {
		t.Errorf("codec hot path allocates %v per op, want 0", allocs)
	}
}

// TestReadFrame: frames read back-to-back off one stream come out whole,
// into the caller's reused buffer; a length over the cap is refused
// after the header alone, and a stream cut mid-frame is an error.
func TestReadFrame(t *testing.T) {
	a := AppendAllocateRequest(nil, 7, true)
	b := AppendReleaseRequest(nil, []int64{1, 2, 3})
	r := bytes.NewReader(append(append([]byte(nil), a...), b...))
	buf := make([]byte, 0, 64)
	for _, want := range [][]byte{a, b} {
		got, err := ReadFrame(r, buf, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %x, want %x", got, want)
		}
		if &got[0] != &buf[:1][0] {
			t.Error("ReadFrame did not reuse the caller's buffer")
		}
	}
	if _, err := ReadFrame(r, buf, 64); err == nil {
		t.Error("read past the end of the stream")
	}

	r = bytes.NewReader(b)
	if _, err := ReadFrame(r, nil, len(b)-1); err == nil {
		t.Errorf("accepted a %d-byte frame over a %d-byte cap", len(b), len(b)-1)
	}
	if left := r.Len(); left != len(b)-4 {
		t.Errorf("an over-cap frame consumed %d bytes past its header", len(b)-4-left)
	}
	if _, err := ReadFrame(bytes.NewReader(b[:len(b)-1]), nil, 64); err == nil {
		t.Error("accepted a frame cut short")
	}
	if got, err := ReadFrame(bytes.NewReader(b), nil, len(b)); err != nil || !bytes.Equal(got, b) {
		t.Errorf("frame exactly at the cap: %x, %v", got, err)
	}
}
