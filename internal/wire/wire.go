// Package wire is the compact binary wire format the serving layer
// speaks alongside JSON on POST /allocate and POST /release. JSON is the
// debuggable default; the binary format exists because at serving rates
// the JSON boundary dominates the allocator itself — every /allocate
// response re-renders the same span and placement vocabulary through
// reflection, and every /release re-parses an integer list digit by
// digit. The binary codec is a straight memory image of that vocabulary:
// fixed-width little-endian fields, ID spans kept as (start, stride,
// count) triples exactly as the router grants them (O(shards) on the
// wire, never O(batch)), and append-style encoders that write into
// caller-owned buffers so a steady-state request allocates nothing.
//
// # Frame layout
//
// Every message is one frame:
//
//	u32le  payload length (kind byte + body)
//	u8     kind (KindAllocateRequest..KindReleaseReply)
//	...    body, fixed-width little-endian fields
//
// The length prefix makes the frame self-delimiting, so the same bytes
// work over HTTP (where Content-Length already frames the body — the
// prefix is then redundant but cheap) and over a bare stream, where
// ReadFrame is the only framing (the cluster tier's upgraded
// router↔replica connections).
// Parsers require the frame to be exactly one message: a declared length
// that disagrees with the bytes on hand, trailing garbage, or an
// unexpected kind is an error, never a best-effort decode.
//
// # Bodies
//
//	AllocateRequest      u32 count | u8 flags (bit 0: terse)
//	AllocateReply        u32 admitted | u32 pending | u32 cells | u32 rounds |
//	                     i64 max_load | i64 excess |
//	                     u32 nspans   | nspans  x (i64 start | i64 stride | u32 count) |
//	                     u32 nplaced  | nplaced x (i64 id | i32 bin)
//	ReleaseRequest       u32 n | n x i64 id
//	ReleaseReply         u32 released
//	CellAllocateRequest  u8 flags (bit 0: terse) | u32 npairs |
//	                     npairs x (u32 cell | u32 count); travels only
//	                     nested in a BatchRequest, answered with an
//	                     AllocateReply whose spans/placements use global IDs
//	CellSnapshotBinary   u32 cell | the columnar varint snapshot document
//	                     (see snapshot.go) — the fields of online.Snapshot
//	                     at a fraction of the JSON bytes per ball
//	CellDelta            u32 cell | u8 chain_len | chain | delta-log bytes
//	                     — the paused tail of a two-phase cell migration:
//	                     the epochs the source ran after its snapshot was
//	                     shipped, plus the chain digest the destination
//	                     must land on after replaying them
//	BatchRequest         u32 nsub | nsub x (u32 tag | nested frame) —
//	                     the cluster tier's group-commit container: many
//	                     tagged sub-requests flushed to one replica as a
//	                     single frame (see batch.go)
//	BatchReply           u32 nsub | nsub x (u32 tag | u8 status |
//	                     payload) — the matching per-sub replies,
//	                     demuxed back to waiting callers by tag
//
// # Equivalence guarantee
//
// The binary messages carry exactly the fields of the JSON messages —
// Report and Span below are the one vocabulary both encodings render —
// so a request sequence produces identical service state (same splits,
// same placements, same fingerprints) whichever encoding each request
// chose. The serve package's golden test replays one trace through both
// and asserts fingerprint equality.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/online"
)

// ContentType is the HTTP media type that selects the binary codec on
// the serve endpoints; requests that send it get binary replies.
const ContentType = "application/x-pba-wire"

// Message kinds, one per frame type. The cell-addressed kinds are the
// cluster tier's upstream vocabulary (internal/cluster): a pba-router
// front process draws the per-cell multinomial split itself and forwards
// each replica its cells' shares as a CellAllocateRequest nested in a
// BatchRequest (never standalone), and live cell migration ships a
// cell's state as a CellSnapshotBinary frame. Kind 0x06 (the
// JSON-document cell snapshot) is retired; never reuse it.
const (
	KindAllocateRequest     = 0x01
	KindAllocateReply       = 0x02
	KindReleaseRequest      = 0x03
	KindReleaseReply        = 0x04
	KindCellAllocateRequest = 0x05
	KindCellSnapshotBinary  = 0x07
	KindCellDelta           = 0x08
	KindBatchRequest        = 0x09
	KindBatchReply          = 0x0A
)

// flagTerse asks the server to drop per-ball placements from the reply,
// keeping only the ID spans (the load driver's steady-state shape).
const flagTerse = 0x01

// headerLen is the frame header: u32 length + u8 kind.
const headerLen = 5

// Placement reports where one ball landed, in global coordinates.
type Placement = online.Placement

// Span is an arithmetic progression of global ball IDs: Start, then
// Start+Stride, Count values in total. One cell's admitted balls form
// one span (global IDs interleave cells: global = local*shards + cell),
// so a request's ID grant is a handful of spans instead of a flat list —
// a terse /allocate response stays O(shards), not O(batch).
type Span struct {
	Start  int64 `json:"start"`
	Stride int64 `json:"stride"`
	Count  int   `json:"count"`
}

// Report summarizes one allocate call. It is the one reply vocabulary of
// the serving layer: the JSON endpoint marshals it with the struct tags
// below, the binary endpoint encodes the same fields via AppendReport,
// and the two are field-for-field equivalent.
type Report struct {
	// Admitted is the number of fresh balls granted IDs — always the sum
	// of the span counts, so on a partial cell failure it reflects only
	// the balls actually granted. Spans carries the IDs (see Span).
	Admitted int    `json:"admitted"`
	Spans    []Span `json:"spans,omitempty"`
	// Placements lists global (id, bin) pairs resolved by the epochs this
	// request coalesced into: all of this request's placed balls plus any
	// formerly-pending balls those epochs placed (attributed to the first
	// request of each coalesced epoch).
	Placements []Placement `json:"placements,omitempty"`
	// Pending counts this request's balls left unplaced; they re-enter
	// their cell's next epoch automatically.
	Pending int `json:"pending"`
	// Cells is the number of cell epochs this request participated in;
	// Rounds is the max round count among them (they run in parallel).
	Cells  int `json:"cells"`
	Rounds int `json:"rounds"`
	// MaxLoad and Excess are the maxima over the touched cells (each
	// cell's excess is relative to its own placed/bin ratio — the
	// per-cell O(1) bound is the guarantee that survives partitioning).
	MaxLoad int64 `json:"max_load"`
	Excess  int64 `json:"excess"`
}

// Reset clears the report for reuse, keeping the span and placement
// backing arrays so pooled reports stop allocating once warm.
func (r *Report) Reset() {
	r.Admitted, r.Pending, r.Cells, r.Rounds = 0, 0, 0, 0
	r.MaxLoad, r.Excess = 0, 0
	r.Spans = r.Spans[:0]
	r.Placements = r.Placements[:0]
}

// IDs expands the report's spans into the admitted global IDs, ascending.
func (r *Report) IDs() []int64 {
	return r.AppendIDs(make([]int64, 0, r.Admitted))
}

// AppendIDs appends the admitted global IDs to dst in ascending order and
// returns the extended slice — the allocation-free spelling of IDs for
// callers that keep a reusable buffer. Each span is an ascending
// arithmetic progression, so the expansion is an S-way merge of sorted
// runs: selection over the span heads, O(total x spans) comparisons with
// no scratch beyond a small stack array at realistic shard counts.
func (r *Report) AppendIDs(dst []int64) []int64 {
	if len(r.Spans) == 1 {
		sp := r.Spans[0]
		id := sp.Start
		for j := 0; j < sp.Count; j++ {
			dst = append(dst, id)
			id += sp.Stride
		}
		return dst
	}
	var headsArr [16]int64
	var leftArr [16]int
	heads, left := headsArr[:0], leftArr[:0]
	if len(r.Spans) > len(headsArr) {
		heads = make([]int64, 0, len(r.Spans))
		left = make([]int, 0, len(r.Spans))
	}
	total := 0
	for _, sp := range r.Spans {
		heads = append(heads, sp.Start)
		left = append(left, sp.Count)
		if sp.Count > 0 {
			total += sp.Count
		}
	}
	for t := 0; t < total; t++ {
		best := -1
		for i := range heads {
			if left[i] > 0 && (best < 0 || heads[i] < heads[best]) {
				best = i
			}
		}
		dst = append(dst, heads[best])
		heads[best] += r.Spans[best].Stride
		left[best]--
	}
	return dst
}

// appendHeader writes the frame header for a payload of n body bytes
// (kind byte excluded from n here; included in the wire length field).
func appendHeader(dst []byte, kind byte, bodyLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen+1))
	return append(dst, kind)
}

// payload validates the frame header and returns the body. The frame
// must contain exactly one message.
func payload(frame []byte, kind byte) ([]byte, error) {
	if len(frame) < headerLen {
		return nil, fmt.Errorf("wire: frame truncated: %d bytes, header needs %d", len(frame), headerLen)
	}
	n := binary.LittleEndian.Uint32(frame)
	if int64(n) != int64(len(frame)-4) {
		return nil, fmt.Errorf("wire: frame declares %d payload bytes but carries %d", n, len(frame)-4)
	}
	if frame[4] != kind {
		return nil, fmt.Errorf("wire: frame kind 0x%02x, want 0x%02x", frame[4], kind)
	}
	return frame[headerLen:], nil
}

// AppendAllocateRequest appends an allocate-request frame for count
// fresh balls to dst.
func AppendAllocateRequest(dst []byte, count int, terse bool) []byte {
	dst = appendHeader(dst, KindAllocateRequest, 5)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	var flags byte
	if terse {
		flags |= flagTerse
	}
	return append(dst, flags)
}

// ParseAllocateRequest decodes an allocate-request frame.
func ParseAllocateRequest(frame []byte) (count int, terse bool, err error) {
	body, err := payload(frame, KindAllocateRequest)
	if err != nil {
		return 0, false, err
	}
	if len(body) != 5 {
		return 0, false, fmt.Errorf("wire: allocate request body is %d bytes, want 5", len(body))
	}
	c := binary.LittleEndian.Uint32(body)
	if c > math.MaxInt32 {
		return 0, false, fmt.Errorf("wire: allocate count %d out of range", c)
	}
	if body[4]&^flagTerse != 0 {
		return 0, false, fmt.Errorf("wire: allocate request carries unknown flags 0x%02x", body[4])
	}
	return int(c), body[4]&flagTerse != 0, nil
}

// AppendReleaseRequest appends a release-request frame for ids to dst.
func AppendReleaseRequest(dst []byte, ids []int64) []byte {
	dst = appendHeader(dst, KindReleaseRequest, 4+8*len(ids))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	}
	return dst
}

// ParseReleaseRequest decodes a release-request frame, appending the IDs
// to ids (pass a reused buffer's [:0] for an allocation-free parse).
func ParseReleaseRequest(frame []byte, ids []int64) ([]int64, error) {
	body, err := payload(frame, KindReleaseRequest)
	if err != nil {
		return ids, err
	}
	if len(body) < 4 {
		return ids, fmt.Errorf("wire: release request body is %d bytes, want >= 4", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if int64(len(body)) != 8*int64(n) {
		return ids, fmt.Errorf("wire: release request declares %d ids but carries %d bytes", n, len(body))
	}
	for ; len(body) >= 8; body = body[8:] {
		ids = append(ids, int64(binary.LittleEndian.Uint64(body)))
	}
	return ids, nil
}

// AppendReleaseReply appends a release-reply frame to dst.
func AppendReleaseReply(dst []byte, released int) []byte {
	dst = appendHeader(dst, KindReleaseReply, 4)
	return binary.LittleEndian.AppendUint32(dst, uint32(released))
}

// ParseReleaseReply decodes a release-reply frame.
func ParseReleaseReply(frame []byte) (int, error) {
	body, err := payload(frame, KindReleaseReply)
	if err != nil {
		return 0, err
	}
	if len(body) != 4 {
		return 0, fmt.Errorf("wire: release reply body is %d bytes, want 4", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("wire: released count %d out of range", n)
	}
	return int(n), nil
}

// AppendReport appends an allocate-reply frame to dst. When terse is set
// the placements are omitted from the wire (the request asked for spans
// only); every other field is encoded as-is.
func AppendReport(dst []byte, r *Report, terse bool) []byte {
	placements := r.Placements
	if terse {
		placements = nil
	}
	body := 4*4 + 2*8 + 4 + len(r.Spans)*20 + 4 + len(placements)*12
	dst = appendHeader(dst, KindAllocateReply, body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Admitted))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Pending))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Cells))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Rounds))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.MaxLoad))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Excess))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Spans)))
	for _, sp := range r.Spans {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.Stride))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(sp.Count))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(placements)))
	for _, p := range placements {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.ID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Bin))
	}
	return dst
}

// Kind returns the frame's kind byte, so a reader accepting several
// frame kinds (a batch request's subs are cell allocates or releases)
// can dispatch before parsing.
func Kind(frame []byte) (byte, error) {
	if len(frame) < headerLen {
		return 0, fmt.Errorf("wire: frame truncated: %d bytes, header needs %d", len(frame), headerLen)
	}
	return frame[4], nil
}

// ReadFrame reads one frame off r into buf, reusing its capacity, and
// returns it: the u32 length, then exactly that many payload bytes. A
// frame declaring more than max bytes in all is refused before its body
// is read, so a bad length cannot balloon memory. The frame is not
// parsed. After an error r's position is unknown: drop the stream.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	if cap(buf) < headerLen {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := 4 + int64(binary.LittleEndian.Uint32(buf))
	if n > int64(max) {
		return nil, fmt.Errorf("wire: frame declares %d bytes, over the %d-byte cap", n, max)
	}
	if int64(cap(buf)) < n {
		buf = append(make([]byte, 0, n), buf...)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// CellCount is one cell's share of a cell-addressed allocate: admit Count
// fresh balls into the cell with global index Cell.
type CellCount struct {
	Cell  int `json:"cell"`
	Count int `json:"count"`
}

// AppendCellAllocateRequest appends a cell-addressed allocate frame to
// dst: the router's per-cell split shares for one replica, in ascending
// cell order.
func AppendCellAllocateRequest(dst []byte, pairs []CellCount, terse bool) []byte {
	dst = appendHeader(dst, KindCellAllocateRequest, 1+4+8*len(pairs))
	var flags byte
	if terse {
		flags |= flagTerse
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Cell))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Count))
	}
	return dst
}

// ParseCellAllocateRequest decodes a cell-addressed allocate frame,
// appending the (cell, count) pairs to pairs (pass a reused buffer's [:0]
// for an allocation-free parse).
func ParseCellAllocateRequest(frame []byte, pairs []CellCount) ([]CellCount, bool, error) {
	body, err := payload(frame, KindCellAllocateRequest)
	if err != nil {
		return pairs, false, err
	}
	if len(body) < 5 {
		return pairs, false, fmt.Errorf("wire: cell allocate request body is %d bytes, want >= 5", len(body))
	}
	if body[0]&^flagTerse != 0 {
		return pairs, false, fmt.Errorf("wire: cell allocate request carries unknown flags 0x%02x", body[0])
	}
	terse := body[0]&flagTerse != 0
	n := binary.LittleEndian.Uint32(body[1:])
	body = body[5:]
	if int64(len(body)) != 8*int64(n) {
		return pairs, terse, fmt.Errorf("wire: cell allocate request declares %d pairs but carries %d bytes", n, len(body))
	}
	for ; len(body) >= 8; body = body[8:] {
		cell := binary.LittleEndian.Uint32(body)
		count := binary.LittleEndian.Uint32(body[4:])
		if cell > math.MaxInt32 || count > math.MaxInt32 {
			return pairs, terse, fmt.Errorf("wire: cell allocate pair (%d, %d) out of range", cell, count)
		}
		pairs = append(pairs, CellCount{Cell: int(cell), Count: int(count)})
	}
	return pairs, terse, nil
}

// ParseReport decodes an allocate-reply frame into r, reusing r's span
// and placement backing arrays (r is Reset first).
func ParseReport(frame []byte, r *Report) error {
	body, err := payload(frame, KindAllocateReply)
	if err != nil {
		return err
	}
	r.Reset()
	const fixed = 4*4 + 2*8 + 4
	if len(body) < fixed {
		return fmt.Errorf("wire: allocate reply body is %d bytes, want >= %d", len(body), fixed)
	}
	r.Admitted = int(int32(binary.LittleEndian.Uint32(body[0:])))
	r.Pending = int(int32(binary.LittleEndian.Uint32(body[4:])))
	r.Cells = int(int32(binary.LittleEndian.Uint32(body[8:])))
	r.Rounds = int(int32(binary.LittleEndian.Uint32(body[12:])))
	if r.Admitted < 0 || r.Pending < 0 || r.Cells < 0 || r.Rounds < 0 {
		return fmt.Errorf("wire: allocate reply carries negative counters")
	}
	r.MaxLoad = int64(binary.LittleEndian.Uint64(body[16:]))
	r.Excess = int64(binary.LittleEndian.Uint64(body[24:]))
	nspans := binary.LittleEndian.Uint32(body[32:])
	body = body[fixed:]
	if int64(len(body)) < 20*int64(nspans)+4 {
		return fmt.Errorf("wire: allocate reply declares %d spans but carries %d bytes", nspans, len(body))
	}
	for i := uint32(0); i < nspans; i++ {
		sp := Span{
			Start:  int64(binary.LittleEndian.Uint64(body[0:])),
			Stride: int64(binary.LittleEndian.Uint64(body[8:])),
			Count:  int(int32(binary.LittleEndian.Uint32(body[16:]))),
		}
		if sp.Count < 0 {
			return fmt.Errorf("wire: allocate reply span %d has negative count", i)
		}
		r.Spans = append(r.Spans, sp)
		body = body[20:]
	}
	nplaced := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if int64(len(body)) != 12*int64(nplaced) {
		return fmt.Errorf("wire: allocate reply declares %d placements but carries %d bytes", nplaced, len(body))
	}
	for ; len(body) >= 12; body = body[12:] {
		r.Placements = append(r.Placements, Placement{
			ID:  int64(binary.LittleEndian.Uint64(body)),
			Bin: int32(binary.LittleEndian.Uint32(body[8:])),
		})
	}
	return nil
}
