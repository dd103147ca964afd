// Binary snapshot codec: the columnar, varint-packed encoding of an
// online.Snapshot used by cell migration and disk persistence. The JSON
// snapshot document spends ~25+ bytes per live ball (one {"id":..,"bin":..}
// object each); at the ROADMAP's millions-of-balls scale that makes a cell
// move or a boot restore I/O-bound on serialization. This encoding stores
// the same fields columnar — an ID stream and a bin stream — in chunks of
// snapshotChunk balls:
//
//   - the ID column is delta-coded and run-length-collapsed: live IDs are
//     dense ascending (they are admission order minus churn), so a chunk is
//     a handful of (signed gap, run length) pairs instead of 8-byte IDs;
//   - the bin column is one uvarint per ball — 1 byte up to 127 bins,
//     2 bytes up to 16k bins.
//
// Steady state lands well under 2 bytes per live ball against the ≤6-byte
// budget, a >10x reduction over JSON. The encoding is canonical: encoders
// emit minimal varints and maximal runs, parsers reject anything else, so
// parse∘encode is the identity on accepted documents (FuzzParse relies on
// this) and equal snapshots encode to equal bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/online"
)

// snapshotChunk is the ball count per columnar chunk. Chunks bound the
// decoder's lookahead (IDs then bins per chunk, not per document), keeping
// the working set cache-sized for arbitrarily large cells.
const snapshotChunk = 8192

// ChainSize is the byte length of the epoch-chain digest carried by a
// cell-delta frame (SHA-256).
const ChainSize = 32

// readUvarint decodes one minimal unsigned varint from b.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: snapshot varint truncated or overlong")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("wire: snapshot varint not minimal")
	}
	return v, b[n:], nil
}

// readVarint decodes one minimal zigzag varint from b.
func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: snapshot varint truncated or overlong")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("wire: snapshot varint not minimal")
	}
	return v, b[n:], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("wire: snapshot string declares %d bytes but %d remain", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// AppendSnapshot appends the binary encoding of s to dst and returns the
// extended slice. The encoding is allocation-free once dst has capacity.
// Nil and empty Placed/Pending/Trace encode identically.
func AppendSnapshot(dst []byte, s *online.Snapshot) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Version))
	dst = binary.AppendUvarint(dst, uint64(s.N))
	dst = appendString(dst, s.Alg)
	dst = binary.AppendUvarint(dst, s.Seed)
	dst = binary.AppendUvarint(dst, uint64(s.Epoch))
	dst = binary.AppendUvarint(dst, uint64(s.NextID))
	dst = binary.AppendUvarint(dst, uint64(s.Arrived))
	dst = binary.AppendUvarint(dst, uint64(s.Departed))
	dst = binary.AppendUvarint(dst, uint64(s.Rounds))
	m := &s.Metrics
	dst = binary.AppendUvarint(dst, uint64(m.TotalMessages))
	dst = binary.AppendUvarint(dst, uint64(m.BallRequests))
	dst = binary.AppendUvarint(dst, uint64(m.BinReplies))
	dst = binary.AppendUvarint(dst, uint64(m.MaxBallSent))
	dst = binary.AppendUvarint(dst, uint64(m.MaxBinReceived))
	dst = binary.AppendUvarint(dst, uint64(m.CommitMessages))

	dst = binary.AppendUvarint(dst, uint64(len(s.Placed)))
	placed := s.Placed
	next := int64(0) // expected next ID; run gaps are relative to it
	for len(placed) > 0 {
		nballs := len(placed)
		if nballs > snapshotChunk {
			nballs = snapshotChunk
		}
		chunk := placed[:nballs]
		placed = placed[nballs:]
		// Pass 1: count the maximal runs in this chunk's ID column.
		nruns := 1
		exp := chunk[0].ID + 1
		for _, p := range chunk[1:] {
			if p.ID != exp {
				nruns++
			}
			exp = p.ID + 1
		}
		dst = binary.AppendUvarint(dst, uint64(nruns))
		// Pass 2: emit (gap, length) per run.
		start, length := chunk[0].ID, int64(1)
		for _, p := range chunk[1:] {
			if p.ID == start+length {
				length++
				continue
			}
			dst = binary.AppendVarint(dst, start-next)
			dst = binary.AppendUvarint(dst, uint64(length))
			next = start + length
			start, length = p.ID, 1
		}
		dst = binary.AppendVarint(dst, start-next)
		dst = binary.AppendUvarint(dst, uint64(length))
		next = start + length
		// Bin column.
		for _, p := range chunk {
			dst = binary.AppendUvarint(dst, uint64(uint32(p.Bin)))
		}
	}

	dst = binary.AppendUvarint(dst, uint64(len(s.Pending)))
	prev := int64(0)
	for _, id := range s.Pending {
		dst = binary.AppendVarint(dst, id-prev)
		prev = id
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Trace)))
	for _, v := range s.Trace {
		dst = binary.AppendVarint(dst, v)
	}
	dst = appendString(dst, s.Fingerprint)
	dst = appendString(dst, s.Chain)
	return dst
}

// ParseSnapshot decodes a binary snapshot document. Parsing is strict and
// canonical: minimal varints only, exact chunk sizing, maximal runs, no
// trailing bytes — any accepted document re-encodes to identical bytes.
// Semantic validation (ID ranges, duplicate balls, fingerprint) stays with
// online.Snapshot.Restore, exactly as for a JSON document.
func ParseSnapshot(doc []byte) (*online.Snapshot, error) {
	s := &online.Snapshot{}
	rest := doc
	var v uint64
	var err error
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.Version = int(v)
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.N = int(v)
	if s.Alg, rest, err = readString(rest); err != nil {
		return nil, err
	}
	if s.Seed, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.Epoch = int(v)
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.NextID = int64(v)
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.Arrived = int64(v)
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.Departed = int64(v)
	if v, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	s.Rounds = int(v)
	for _, p := range [...]*int64{
		&s.Metrics.TotalMessages, &s.Metrics.BallRequests, &s.Metrics.BinReplies,
		&s.Metrics.MaxBallSent, &s.Metrics.MaxBinReceived, &s.Metrics.CommitMessages,
	} {
		if v, rest, err = readUvarint(rest); err != nil {
			return nil, err
		}
		*p = int64(v)
	}

	var nplaced uint64
	if nplaced, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	// Every ball costs at least one bin byte, so a count beyond the
	// remaining bytes is a lie — reject before allocating.
	if nplaced > uint64(len(rest)) {
		return nil, fmt.Errorf("wire: snapshot declares %d placed balls but carries %d bytes", nplaced, len(rest))
	}
	if nplaced > 0 {
		s.Placed = make([]online.Placement, 0, nplaced)
	}
	next := int64(0)
	for remaining := int(nplaced); remaining > 0; {
		nballs := remaining
		if nballs > snapshotChunk {
			nballs = snapshotChunk
		}
		var nruns uint64
		if nruns, rest, err = readUvarint(rest); err != nil {
			return nil, err
		}
		if nruns == 0 || nruns > uint64(nballs) {
			return nil, fmt.Errorf("wire: snapshot chunk of %d balls declares %d runs", nballs, nruns)
		}
		chunkStart := len(s.Placed)
		got := int64(0)
		for j := uint64(0); j < nruns; j++ {
			var gap int64
			var runLen uint64
			if gap, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
			if runLen, rest, err = readUvarint(rest); err != nil {
				return nil, err
			}
			if runLen == 0 || got+int64(runLen) > int64(nballs) {
				return nil, fmt.Errorf("wire: snapshot run length %d overflows its chunk", runLen)
			}
			if j > 0 && gap == 0 {
				return nil, fmt.Errorf("wire: snapshot carries a non-maximal ID run")
			}
			start := next + gap
			for k := int64(0); k < int64(runLen); k++ {
				s.Placed = append(s.Placed, online.Placement{ID: start + k})
			}
			next = start + int64(runLen)
			got += int64(runLen)
		}
		if got != int64(nballs) {
			return nil, fmt.Errorf("wire: snapshot chunk declares %d balls but its runs carry %d", nballs, got)
		}
		for i := 0; i < nballs; i++ {
			if v, rest, err = readUvarint(rest); err != nil {
				return nil, err
			}
			if v > math.MaxUint32 {
				return nil, fmt.Errorf("wire: snapshot bin %d out of range", v)
			}
			s.Placed[chunkStart+i].Bin = int32(uint32(v))
		}
		remaining -= nballs
	}

	var npending uint64
	if npending, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	if npending > uint64(len(rest)) {
		return nil, fmt.Errorf("wire: snapshot declares %d pending balls but carries %d bytes", npending, len(rest))
	}
	if npending > 0 {
		s.Pending = make([]int64, 0, npending)
		prev := int64(0)
		for i := uint64(0); i < npending; i++ {
			var d int64
			if d, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
			prev += d
			s.Pending = append(s.Pending, prev)
		}
	}
	var ntrace uint64
	if ntrace, rest, err = readUvarint(rest); err != nil {
		return nil, err
	}
	if ntrace > uint64(len(rest)) {
		return nil, fmt.Errorf("wire: snapshot declares %d trace entries but carries %d bytes", ntrace, len(rest))
	}
	if ntrace > 0 {
		s.Trace = make([]int64, 0, ntrace)
		for i := uint64(0); i < ntrace; i++ {
			var t int64
			if t, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
			s.Trace = append(s.Trace, t)
		}
	}
	if s.Fingerprint, rest, err = readString(rest); err != nil {
		return nil, err
	}
	if s.Chain, rest, err = readString(rest); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: snapshot carries %d trailing bytes", len(rest))
	}
	return s, nil
}

// AppendCellSnapshotBinary appends a binary cell-snapshot frame to dst:
// the global cell index plus the binary snapshot document. It is the
// migration transfer format: /cells/migrate/begin answers with it and
// /cells/stage accepts it.
func AppendCellSnapshotBinary(dst []byte, cell int, s *online.Snapshot) []byte {
	base := len(dst)
	dst = appendHeader(dst, KindCellSnapshotBinary, 0) // length patched below
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cell))
	dst = AppendSnapshot(dst, s)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-base-4))
	return dst
}

// ParseCellSnapshotBinary decodes a binary cell-snapshot frame.
func ParseCellSnapshotBinary(frame []byte) (cell int, s *online.Snapshot, err error) {
	body, err := payload(frame, KindCellSnapshotBinary)
	if err != nil {
		return 0, nil, err
	}
	if len(body) < 4 {
		return 0, nil, fmt.Errorf("wire: cell snapshot body is %d bytes, want >= 4", len(body))
	}
	c := binary.LittleEndian.Uint32(body)
	if c > math.MaxInt32 {
		return 0, nil, fmt.Errorf("wire: cell snapshot cell %d out of range", c)
	}
	s, err = ParseSnapshot(body[4:])
	if err != nil {
		return 0, nil, err
	}
	return int(c), s, nil
}

// AppendCellDelta appends a cell-delta frame to dst: the global cell
// index, the source allocator's epoch-chain digest after the last logged
// event, and the opaque delta-log bytes (online.Allocator.CutDeltaLog).
// The chain digest is the handoff contract: the destination applies the
// log and must land on the identical chain.
func AppendCellDelta(dst []byte, cell int, chain []byte, log []byte) []byte {
	dst = appendHeader(dst, KindCellDelta, 4+1+len(chain)+len(log))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cell))
	dst = append(dst, byte(len(chain)))
	dst = append(dst, chain...)
	return append(dst, log...)
}

// ParseCellDelta decodes a cell-delta frame. The returned chain and log
// bytes alias the frame; copy them before reusing the buffer.
func ParseCellDelta(frame []byte) (cell int, chain, log []byte, err error) {
	body, err := payload(frame, KindCellDelta)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(body) < 5 {
		return 0, nil, nil, fmt.Errorf("wire: cell delta body is %d bytes, want >= 5", len(body))
	}
	c := binary.LittleEndian.Uint32(body)
	if c > math.MaxInt32 {
		return 0, nil, nil, fmt.Errorf("wire: cell delta cell %d out of range", c)
	}
	chainLen := int(body[4])
	if len(body) < 5+chainLen {
		return 0, nil, nil, fmt.Errorf("wire: cell delta declares a %d-byte chain but carries %d bytes", chainLen, len(body)-5)
	}
	return int(c), body[5 : 5+chainLen], body[5+chainLen:], nil
}
