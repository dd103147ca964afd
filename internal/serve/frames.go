package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// The cluster tier's data plane: a router upgrades one connection per
// replica with GET /frames and "Upgrade: pba-frames", and from the 101
// on the connection carries bare wire frames, stop-and-wait — one
// KindBatchRequest in, one KindBatchReply out. The frames' own u32
// length prefix is the only framing; no HTTP is parsed after the
// upgrade. A frame over MaxBody, or one that does not parse, closes the
// connection (the router redials); per-sub failures are answered inside
// the reply.

// FramesProtocol is the Upgrade token of GET /frames.
const FramesProtocol = "pba-frames"

// frameScratch is one upgraded connection's workspace, reused frame after
// frame: the request and reply frames, the parsed sub views and their
// routing metadata, the decoded pairs and IDs, and the group-commit items
// with their reply reports.
type frameScratch struct {
	in, out []byte
	subs    []wire.BatchSub
	meta    []batchSubMeta
	pairs   []wire.CellCount
	ids     []int64
	items   []CellBatchItem
	reps    []Report
}

// batchSubMeta carries one batch sub-request through frameReply: which
// span of pairs (allocate) or ids (release) it parsed into, its reply
// mode, and any pre-execution failure.
type batchSubMeta struct {
	allocate bool
	terse    bool
	status   int // non-zero: reply with this HTTP error status
	off, n   int // span into pairs (allocate) or ids (release)
	item     int // index into items/reps; -1 when not executed
	released int
}

// serveFrames is GET /frames: upgrade the connection, then answer batch
// frames until the peer hangs up or a frame is refused.
func (s *Service) serveFrames(hc HandlerConfig, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), FramesProtocol) {
		httpError(w, http.StatusUpgradeRequired, "GET /frames needs Upgrade: %s", FramesProtocol)
		return
	}
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "upgrading: %v", err)
		return
	}
	defer nc.Close()
	if !s.trackFrames(nc) {
		return
	}
	defer s.untrackFrames(nc)
	// A hijacked connection keeps any deadline the server set; the frame
	// stream has none.
	_ = nc.SetDeadline(time.Time{})
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+FramesProtocol+"\r\n\r\n"); err != nil {
		return
	}
	sc := new(frameScratch)
	for {
		if sc.in, err = wire.ReadFrame(brw.Reader, sc.in, MaxBody); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				log.Printf("serve: /frames from %s: %v; closing", r.RemoteAddr, err)
			}
			return
		}
		out, err := s.frameReply(sc, hc)
		if err != nil {
			log.Printf("serve: /frames from %s: bad frame: %v; closing", r.RemoteAddr, err)
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// trackFrames registers an upgraded connection so Close can end it —
// http.Server.Shutdown does not see hijacked connections. It reports
// false once the service has closed.
func (s *Service) trackFrames(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.frameConns == nil {
		s.frameConns = make(map[net.Conn]struct{})
	}
	s.frameConns[nc] = struct{}{}
	s.frameLoops.Add(1)
	return true
}

func (s *Service) untrackFrames(nc net.Conn) {
	s.mu.Lock()
	delete(s.frameConns, nc)
	s.mu.Unlock()
	s.frameLoops.Done()
}

// frameReply runs one batch-request frame (sc.in) and returns its
// batch-reply frame, encoded into sc.out: the frame is decoded in a
// single pass, its allocates run as one AllocateCellsBatch so they share
// cell epochs, then its releases run in sub order. Sub-requests fail
// independently — an oversized count or an allocator failure becomes that
// sub's error entry — while structural malformation is an error before
// anything executes. Steady state allocates nothing.
func (s *Service) frameReply(sc *frameScratch, hc HandlerConfig) ([]byte, error) {
	start := time.Now()
	var err error
	if sc.subs, err = wire.ParseBatchRequest(sc.in, sc.subs[:0]); err != nil {
		return nil, err
	}
	sc.meta = sc.meta[:0]
	sc.items = sc.items[:0]
	sc.pairs = sc.pairs[:0]
	sc.ids = sc.ids[:0]
	nalloc := 0
	for i, sub := range sc.subs {
		kind, _ := wire.Kind(sub.Frame)
		meta := batchSubMeta{item: -1}
		if kind == wire.KindCellAllocateRequest {
			meta.allocate = true
			off := len(sc.pairs)
			if sc.pairs, meta.terse, err = wire.ParseCellAllocateRequest(sub.Frame, sc.pairs); err != nil {
				return nil, fmt.Errorf("sub %d: %w", i, err)
			}
			meta.off, meta.n = off, len(sc.pairs)-off
			count := 0
			for _, p := range sc.pairs[off:] {
				count += p.Count
			}
			if count > MaxBatch {
				meta.status = http.StatusBadRequest
			} else {
				meta.item = nalloc
				nalloc++
			}
		} else { // KindReleaseRequest — ParseBatchRequest admits nothing else
			off := len(sc.ids)
			if sc.ids, err = wire.ParseReleaseRequest(sub.Frame, sc.ids); err != nil {
				return nil, fmt.Errorf("sub %d: %w", i, err)
			}
			meta.off, meta.n = off, len(sc.ids)-off
		}
		sc.meta = append(sc.meta, meta)
	}
	s.metrics.http.stageDecode.ObserveDuration(time.Since(start))

	// Sub-slices are taken only now that every append into sc.pairs and
	// sc.ids is done — mid-parse views could alias a stale backing array.
	for len(sc.reps) < nalloc {
		sc.reps = append(sc.reps, Report{})
	}
	for i := range sc.meta {
		mt := &sc.meta[i]
		if mt.item >= 0 {
			sc.items = append(sc.items, CellBatchItem{
				Pairs: sc.pairs[mt.off : mt.off+mt.n],
				Rep:   &sc.reps[mt.item],
			})
		}
	}
	if len(sc.items) > 0 {
		s.AllocateCellsBatch(sc.items)
	}
	for i := range sc.meta {
		if mt := &sc.meta[i]; !mt.allocate {
			mt.released = s.Release(sc.ids[mt.off : mt.off+mt.n])
		}
	}
	if hc.Verbose {
		log.Printf("batch: %d sub-request(s), %d allocate(s)", len(sc.subs), nalloc)
	}

	start = time.Now()
	out := wire.BeginBatchReply(sc.out[:0])
	for i, sub := range sc.subs {
		mt := &sc.meta[i]
		out = wire.AppendBatchTag(out, sub.Tag)
		switch {
		case mt.status != 0:
			out = wire.AppendBatchSubError(out, mt.status,
				batchErrDoc(fmt.Errorf("count must be in [0, %d]", MaxBatch), nil))
		case mt.allocate:
			rep := &sc.reps[mt.item]
			if serr := sc.items[mt.item].Err; serr != nil {
				out = wire.AppendBatchSubError(out, http.StatusInternalServerError,
					batchErrDoc(fmt.Errorf("allocate: %w", serr), rep.Spans))
			} else {
				out = wire.AppendBatchOK(out)
				out = wire.AppendReport(out, rep, mt.terse)
			}
		default:
			out = wire.AppendBatchOK(out)
			out = wire.AppendReleaseReply(out, mt.released)
		}
	}
	sc.out = wire.FinishBatch(out, 0, len(sc.subs))
	s.metrics.http.stageEncode.ObserveDuration(time.Since(start))
	return sc.out, nil
}

// batchErrDoc builds a sub-error JSON document in the writePartialFailure
// shape ({"error", "spans"}), so a failed sub reads like any serve error
// reply. Error paths may allocate.
func batchErrDoc(err error, spans []Span) []byte {
	doc := struct {
		Error string `json:"error"`
		Spans []Span `json:"spans,omitempty"`
	}{err.Error(), spans}
	out, merr := json.Marshal(doc)
	if merr != nil {
		return []byte(`{"error":"encoding error document failed"}`)
	}
	return out
}
