package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// MaxBatch bounds one /allocate request; far above realistic batch sizes,
// low enough that a bad request cannot wedge a cell in one epoch.
const MaxBatch = 1 << 22

// MaxBody caps one POST body. 16 MiB covers a binary /release of ~2M IDs
// and any realistic JSON payload; anything larger is rejected with 413
// before it can balloon server memory.
const MaxBody = 16 << 20

// MaxSnapshotBody caps a cell-snapshot transfer on /cells/stage — state
// documents scale with live balls, so the migration path gets a far
// larger allowance than the request path.
const MaxSnapshotBody = 1 << 30

// Evacuation coordinate headers: a cluster router stamps these on every
// /cells/attach and /cells/stage so the replica knows whom to ask for
// migration when it is told to shut down (see Service.SetEvacuation).
const (
	HeaderRouter = "X-PBA-Router"
	HeaderSelf   = "X-PBA-Self"
)

// HandlerConfig tunes the HTTP front end.
type HandlerConfig struct {
	// Verbose logs one line per allocate/release to the standard logger.
	Verbose bool
}

// Backend is the data-plane surface the serving endpoints front. The
// sharded Service implements it; so does the cluster tier's router
// (internal/cluster), which is how both processes expose byte-identical
// /allocate and /release protocols without duplicating the HTTP layer.
type Backend interface {
	// AllocateInto admits k balls into a caller-owned report (pooled by
	// the handler); see Service.AllocateInto for the partial-failure
	// contract the handler's 500 path depends on.
	AllocateInto(k int, rep *Report) error
	// Release departs balls by global ID, returning how many released.
	Release(ids []int64) int
	// StatsDoc returns the /stats JSON document (with full-state
	// fingerprints when fingerprint is true); HealthDoc the /healthz one.
	StatsDoc(fingerprint bool) any
	HealthDoc() any
}

// StatsDoc implements Backend for the Service.
func (s *Service) StatsDoc(fingerprint bool) any {
	if fingerprint {
		return s.Stats()
	}
	return s.StatsLite()
}

// HealthDoc implements Backend for the Service.
func (s *Service) HealthDoc() any { return s.Health() }

// bufPool holds the reusable JSON encode/decode buffers: request bodies
// are slurped into a pooled buffer and responses are encoded into one
// before a single Write, so a steady-state request performs no
// per-call buffer allocations in the HTTP layer.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// releaseReqPool pools /release request payloads so the decoded ID slice's
// backing array is reused across calls (encoding/json appends into an
// existing slice when the capacity suffices).
var releaseReqPool = sync.Pool{New: func() any { return new(releaseReq) }}

// repPool pools allocate reports: AllocateInto refills a pooled report in
// place, reusing its span and placement arrays across requests.
var repPool = sync.Pool{New: func() any { return new(Report) }}

type releaseReq struct {
	IDs []int64 `json:"ids"`
}

// allocateReq is the JSON /allocate payload.
type allocateReq struct {
	Count int  `json:"count"`
	Terse bool `json:"terse,omitempty"`
}

// wireScratch is one binary-protocol request's complete workspace: the
// body slurp buffer, a bounded reader over it, the decoded ID slice, the
// reply report, and the outgoing frame. Pooled as a unit, the binary
// /allocate and /release paths run allocation-free in steady state.
type wireScratch struct {
	lr  io.LimitedReader
	in  bytes.Buffer
	ids []int64
	rep Report
	out []byte
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// wireCTValue is the preboxed Content-Type header value for binary
// replies: assigning a shared slice into the header map avoids the
// per-request []string allocation http.Header.Set would make.
var wireCTValue = []string{wire.ContentType}

func putWire(sc *wireScratch) {
	// As with putBuf: one oversized body must not pin its memory forever.
	if sc.in.Cap() > 1<<20 {
		sc.in = bytes.Buffer{}
	}
	if cap(sc.ids) > 1<<17 {
		sc.ids = nil
	}
	if cap(sc.out) > 1<<20 {
		sc.out = nil
	}
	sc.lr.R = nil
	wirePool.Put(sc)
}

// readBody slurps the request body into a pooled buffer, unmarshals it,
// and returns the buffer to the pool (json.Unmarshal copies everything it
// decodes, so nothing aliases the buffer after it returns). The body is
// capped at MaxBody via http.MaxBytesReader; overruns surface as
// *http.MaxBytesError for bodyError to turn into a 413.
func readBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBody)
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := io.Copy(buf, r.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	putBuf(buf)
	return err
}

// bodyError maps a readBody failure onto the JSON error shape: 413 for
// bodies over the cap, 400 for everything else.
func bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
}

// readWireBody slurps a binary frame into the scratch buffer, reading at
// most MaxBody+1 bytes so an oversized body is detected (and 413'd)
// without ever being held in memory past the cap.
func readWireBody(sc *wireScratch, w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	sc.lr.R = r.Body
	sc.lr.N = MaxBody + 1
	sc.in.Reset()
	if _, err := sc.in.ReadFrom(&sc.lr); err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	if sc.in.Len() > MaxBody {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBody)
		return nil, false
	}
	return sc.in.Bytes(), true
}

func putBuf(buf *bytes.Buffer) {
	// Oversized one-off bodies should not pin their memory in the pool.
	if buf.Cap() <= 1<<20 {
		bufPool.Put(buf)
	}
}

// writePartialFailure reports a partial /allocate failure: 500 with the
// JSON error shape, carrying the spans the successful cells granted so
// those balls remain releasable by the client. Binary requests receive
// the same JSON document — error paths are never binary.
func writePartialFailure(w http.ResponseWriter, err error, spans []Span) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	body := map[string]any{"error": fmt.Sprintf("allocate: %v", err)}
	if len(spans) > 0 {
		body["spans"] = spans
	}
	_ = json.NewEncoder(w).Encode(body)
}

// handlerMetrics is the instrument subset the HTTP layer itself records
// (the backend records the pipeline stages past decode). The Service's
// set is part of its own instrument set (metrics.http); a non-Service
// backend (the cluster router) registers one on its registry.
type handlerMetrics struct {
	reqAllocate *obs.Counter
	reqRelease  *obs.Counter
	reqStats    *obs.Counter
	reqSnapshot *obs.Counter
	reqHealthz  *obs.Counter
	reqMetrics  *obs.Counter
	stageDecode *obs.Histogram
	stageEncode *obs.Histogram
}

// newHandlerMetrics registers the HTTP layer's instrument set on reg.
func newHandlerMetrics(reg *obs.Registry) *handlerMetrics {
	httpReq := func(path string) *obs.Counter {
		return reg.Counter("pba_http_requests_total", "HTTP requests by path.", obs.L("path", path))
	}
	return &handlerMetrics{
		reqAllocate: httpReq("/allocate"), reqRelease: httpReq("/release"),
		reqStats: httpReq("/stats"), reqSnapshot: httpReq("/snapshot"),
		reqHealthz: httpReq("/healthz"), reqMetrics: httpReq("/metrics"),
		stageDecode: stage(reg, "decode"), stageEncode: stage(reg, "encode"),
	}
}

// NewBackendHandler exposes any Backend over the serving HTTP protocol
// (see NewHandler for the endpoint table; /snapshot and the /cells admin
// family are Service-specific and absent here). The handler's own
// instruments — path counters, decode/encode stages — register on reg,
// and GET /metrics serves reg's exposition. The returned mux is open:
// callers add process-specific endpoints alongside.
func NewBackendHandler(b Backend, reg *obs.Registry, hc HandlerConfig) *http.ServeMux {
	return backendMux(b, newHandlerMetrics(reg), reg, hc)
}

// NewHandler exposes the service over HTTP. Every endpoint speaks JSON;
// POST /allocate and /release also speak the compact binary framing of
// internal/wire — a request whose Content-Type is wire.ContentType is
// decoded as a binary frame and answered with one (error responses stay
// JSON regardless of protocol):
//
//	POST /allocate {"count": k, "terse": bool}  admit k balls -> Report
//	                                            (terse drops placements,
//	                                            keeps the ID spans)
//	POST /release  {"ids": [..]}                depart balls -> {"released": k}
//	GET  /frames   Upgrade: pba-frames          101, then the connection
//	                                            carries bare batch frames,
//	                                            one reply per request — a
//	                                            cluster router's data plane
//	                                            (see frames.go; a frame over
//	                                            MaxBody or one that does not
//	                                            parse closes it)
//	GET  /stats                                 aggregated StatsLite (O(1)
//	                                            counters + chain fingerprints);
//	                                            ?fingerprint=1 adds the O(live)
//	                                            full-state fingerprints
//	GET  /snapshot                              versioned service snapshot JSON
//	                                            (409 on a cluster replica —
//	                                            cells migrate individually)
//	GET  /healthz                               serve.Health: uptime, restore
//	                                            provenance, per-cell liveness
//	GET  /metrics                               Prometheus text exposition:
//	                                            stage histograms, per-cell
//	                                            counters, Go runtime gauges
//	GET  /cells                                 hosted cells (?fingerprint=1
//	                                            adds full-state fingerprints)
//	POST /cells/attach {"cell": g}              attach a fresh cell; the
//	                                            X-PBA-Router / X-PBA-Self
//	                                            headers set the evacuation
//	                                            coordinates
//	POST /cells/detach {"cell": g}              drop a migrated-away cell ->
//	                                            {"cell", "chain"} (its O(1)
//	                                            chain fingerprint)
//
// The two-phase migration family (see Service.BeginCellMigration for the
// protocol; errors 409 on topology conflicts):
//
//	POST /cells/migrate/begin {"cell": g}       snapshot + arm the delta log
//	                                            -> CellSnapshotBinary frame
//	POST /cells/migrate/cut   {"cell": g}       cut the log -> CellDelta frame
//	POST /cells/migrate/abort {"cell": g}       drop the log ({"staged": true}:
//	                                            discard this replica's staged
//	                                            copy instead)
//	POST /cells/stage                           CellSnapshotBinary frame ->
//	                                            staged cell (same headers as
//	                                            /cells/attach)
//	POST /cells/commit                          CellDelta frame -> replay,
//	                                            verify chain, enter topology
//
// Errors are JSON {"error": ...} with 400 (bad request or bad frame),
// 405 (wrong method), 409 (topology conflict), 413 (body over the cap),
// 426 (GET /frames without the upgrade), or 500 (allocator failure;
// carries the granted spans, see writePartialFailure).
func NewHandler(s *Service, hc HandlerConfig) http.Handler {
	mux := backendMux(s, s.metrics.http, s.metrics.reg, hc)
	m := s.metrics.http
	mux.HandleFunc("/frames", func(w http.ResponseWriter, r *http.Request) {
		s.serveFrames(hc, w, r)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		m.reqSnapshot.Inc()
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		if s.Clustered() {
			httpError(w, http.StatusConflict, "cluster replicas snapshot per cell (POST /cells/migrate/begin)")
			return
		}
		writeJSON(w, m, s.Snapshot())
	})
	mux.HandleFunc("/cells", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		doc := struct {
			N      int        `json:"n"`
			Shards int        `json:"shards"`
			Alg    string     `json:"alg"`
			Seed   uint64     `json:"seed"`
			Cells  []CellInfo `json:"cells"`
		}{s.N(), s.Shards(), s.Alg(), s.Seed(), s.Cells(r.URL.Query().Get("fingerprint") == "1")}
		writeJSON(w, nil, doc)
	})
	mux.HandleFunc("/cells/attach", cellVerb(MaxBody, func(r *http.Request, body []byte) (any, error) {
		s.SetEvacuation(r.Header.Get(HeaderRouter), r.Header.Get(HeaderSelf))
		req, err := decodeCell(body)
		if err == nil {
			err = s.AttachCell(req.Cell)
		}
		return map[string]any{"cell": req.Cell, "attached": true}, err
	}))
	mux.HandleFunc("/cells/detach", cellVerb(MaxBody, func(_ *http.Request, body []byte) (any, error) {
		req, err := decodeCell(body)
		var chain string
		if err == nil {
			chain, err = s.DetachCellLite(req.Cell)
		}
		return map[string]any{"cell": req.Cell, "chain": chain}, err
	}))
	mux.HandleFunc("/cells/migrate/begin", cellVerb(MaxBody, func(_ *http.Request, body []byte) (any, error) {
		req, err := decodeCell(body)
		if err != nil {
			return nil, err
		}
		snap, err := s.BeginCellMigration(req.Cell)
		if err != nil {
			return nil, err
		}
		frame := wire.AppendCellSnapshotBinary(nil, req.Cell, snap)
		s.metrics.snapshotBytes.Add(uint64(len(frame)))
		return frame, nil
	}))
	mux.HandleFunc("/cells/migrate/cut", cellVerb(MaxBody, func(_ *http.Request, body []byte) (any, error) {
		req, err := decodeCell(body)
		if err != nil {
			return nil, err
		}
		deltaLog, chainHex, err := s.CutCellMigration(req.Cell)
		if err != nil {
			return nil, err
		}
		chain, err := hex.DecodeString(chainHex)
		if err != nil {
			return nil, fmt.Errorf("serve: cell %d chain fingerprint %q is not hex: %w", req.Cell, chainHex, err)
		}
		frame := wire.AppendCellDelta(nil, req.Cell, chain, deltaLog)
		s.metrics.snapshotBytes.Add(uint64(len(frame)))
		return frame, nil
	}))
	mux.HandleFunc("/cells/migrate/abort", cellVerb(MaxBody, func(_ *http.Request, body []byte) (any, error) {
		req, err := decodeCell(body)
		switch {
		case err != nil:
		case req.Staged:
			err = s.DiscardStagedCell(req.Cell)
		default:
			err = s.AbortCellMigration(req.Cell)
		}
		return map[string]any{"cell": req.Cell, "aborted": true}, err
	}))
	mux.HandleFunc("/cells/stage", cellVerb(MaxSnapshotBody, func(r *http.Request, body []byte) (any, error) {
		s.SetEvacuation(r.Header.Get(HeaderRouter), r.Header.Get(HeaderSelf))
		cell, cs, err := wire.ParseCellSnapshotBinary(body)
		if err != nil {
			return nil, badRequest{fmt.Errorf("bad frame: %w", err)}
		}
		s.metrics.snapshotBytes.Add(uint64(len(body)))
		return map[string]any{"cell": cell, "staged": true}, s.StageCell(cell, cs)
	}))
	mux.HandleFunc("/cells/commit", cellVerb(MaxSnapshotBody, func(_ *http.Request, body []byte) (any, error) {
		cell, chain, deltaLog, err := wire.ParseCellDelta(body)
		if err != nil {
			return nil, badRequest{fmt.Errorf("bad frame: %w", err)}
		}
		s.metrics.snapshotBytes.Add(uint64(len(body)))
		return map[string]any{"cell": cell, "committed": true}, s.CommitStagedCell(cell, deltaLog, hex.EncodeToString(chain))
	}))
	return mux
}

// cellReq is the JSON body of the cell-addressed /cells verbs.
type cellReq struct {
	Cell   int  `json:"cell"`
	Staged bool `json:"staged"`
}

// badRequest marks a /cells verb's error as a malformed body or frame
// (400) rather than a topology conflict (409).
type badRequest struct{ error }

// decodeCell parses a /cells verb's JSON body.
func decodeCell(body []byte) (req cellReq, err error) {
	if err := json.Unmarshal(body, &req); err != nil {
		return req, badRequest{fmt.Errorf("bad JSON: %w", err)}
	}
	return req, nil
}

// cellVerb adapts one POST /cells verb to HTTP. It reads the body whole,
// up to max bytes (413 past the cap), and hands it to run. A wrong method
// is 405, a badRequest error 400, and any other error 409, a topology
// conflict. A []byte reply goes out as a wire frame, anything else as
// JSON.
func cellVerb(max int64, run func(r *http.Request, body []byte) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
		if err != nil {
			bodyError(w, err)
			return
		}
		reply, err := run(r, body)
		var bad badRequest
		switch {
		case errors.As(err, &bad):
			httpError(w, http.StatusBadRequest, "%v", err)
		case err != nil:
			httpError(w, http.StatusConflict, "%v", err)
		default:
			if frame, ok := reply.([]byte); ok {
				w.Header()["Content-Type"] = wireCTValue
				_, _ = w.Write(frame)
				return
			}
			writeJSON(w, nil, reply)
		}
	}
}

// backendMux builds the shared data-plane mux over a Backend.
func backendMux(b Backend, m *handlerMetrics, reg *obs.Registry, hc HandlerConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/allocate", func(w http.ResponseWriter, r *http.Request) {
		m.reqAllocate.Inc()
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if r.Header.Get("Content-Type") == wire.ContentType {
			wireAllocate(b, m, hc, w, r)
			return
		}
		var req allocateReq
		start := time.Now()
		err := readBody(w, r, &req)
		m.stageDecode.ObserveDuration(time.Since(start))
		if err != nil {
			bodyError(w, err)
			return
		}
		if req.Count < 0 || req.Count > MaxBatch {
			httpError(w, http.StatusBadRequest, "count must be in [0, %d], got %d", MaxBatch, req.Count)
			return
		}
		rep := repPool.Get().(*Report)
		if err = b.AllocateInto(req.Count, rep); err != nil {
			writePartialFailure(w, err, rep.Spans)
			repPool.Put(rep)
			return
		}
		if req.Terse {
			// Empty-not-nil keeps the pooled backing array; omitempty still
			// drops the field from the JSON document.
			rep.Placements = rep.Placements[:0]
		}
		if hc.Verbose {
			log.Printf("allocate: admitted %d over %d cell epoch(s), pending %d, rounds %d, max load %d (excess %d)",
				rep.Admitted, rep.Cells, rep.Pending, rep.Rounds, rep.MaxLoad, rep.Excess)
		}
		writeJSON(w, m, rep)
		repPool.Put(rep)
	})
	mux.HandleFunc("/release", func(w http.ResponseWriter, r *http.Request) {
		m.reqRelease.Inc()
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if r.Header.Get("Content-Type") == wire.ContentType {
			wireRelease(b, m, hc, w, r)
			return
		}
		req := releaseReqPool.Get().(*releaseReq)
		req.IDs = req.IDs[:0]
		start := time.Now()
		err := readBody(w, r, req)
		m.stageDecode.ObserveDuration(time.Since(start))
		if err != nil {
			releaseReqPool.Put(req)
			bodyError(w, err)
			return
		}
		released := b.Release(req.IDs)
		total := len(req.IDs)
		releaseReqPool.Put(req)
		if hc.Verbose {
			log.Printf("released %d of %d", released, total)
		}
		writeJSON(w, m, map[string]int{"released": released})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		m.reqStats.Inc()
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		// The default is the O(1) lite path; full-state fingerprints are
		// opt-in, so routine health polling never pays O(live) hashing.
		writeJSON(w, m, b.StatsDoc(r.URL.Query().Get("fingerprint") == "1"))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		m.reqHealthz.Inc()
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, m, b.HealthDoc())
	})
	metricsHandler := reg.Handler()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		m.reqMetrics.Inc()
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		metricsHandler.ServeHTTP(w, r)
	})
	return mux
}

// wireAllocate is the binary-protocol /allocate path: parse the frame out
// of the pooled scratch, allocate into the scratch report, encode the
// reply frame in place, one Write. Steady state allocates nothing. Only
// the plain AllocateRequest is accepted here; a cluster router's
// cell-addressed allocates ride GET /frames.
func wireAllocate(b Backend, m *handlerMetrics, hc HandlerConfig, w http.ResponseWriter, r *http.Request) {
	sc := wirePool.Get().(*wireScratch)
	start := time.Now()
	frame, ok := readWireBody(sc, w, r)
	if !ok {
		putWire(sc)
		return
	}
	count, terse, err := wire.ParseAllocateRequest(frame)
	m.stageDecode.ObserveDuration(time.Since(start))
	if err != nil {
		putWire(sc)
		httpError(w, http.StatusBadRequest, "bad frame: %v", err)
		return
	}
	if count > MaxBatch {
		putWire(sc)
		httpError(w, http.StatusBadRequest, "count must be in [0, %d], got %d", MaxBatch, count)
		return
	}
	rep := &sc.rep
	if err := b.AllocateInto(count, rep); err != nil {
		writePartialFailure(w, err, rep.Spans)
		putWire(sc)
		return
	}
	if hc.Verbose {
		log.Printf("allocate: admitted %d over %d cell epoch(s), pending %d, rounds %d, max load %d (excess %d)",
			rep.Admitted, rep.Cells, rep.Pending, rep.Rounds, rep.MaxLoad, rep.Excess)
	}
	start = time.Now()
	sc.out = wire.AppendReport(sc.out[:0], rep, terse)
	m.stageEncode.ObserveDuration(time.Since(start))
	w.Header()["Content-Type"] = wireCTValue
	_, _ = w.Write(sc.out)
	putWire(sc)
}

// wireRelease is the binary-protocol /release path; like wireAllocate it
// runs entirely out of the pooled scratch.
func wireRelease(b Backend, m *handlerMetrics, hc HandlerConfig, w http.ResponseWriter, r *http.Request) {
	sc := wirePool.Get().(*wireScratch)
	start := time.Now()
	frame, ok := readWireBody(sc, w, r)
	if !ok {
		putWire(sc)
		return
	}
	ids, err := wire.ParseReleaseRequest(frame, sc.ids[:0])
	m.stageDecode.ObserveDuration(time.Since(start))
	if err != nil {
		putWire(sc)
		httpError(w, http.StatusBadRequest, "bad frame: %v", err)
		return
	}
	sc.ids = ids
	released := b.Release(ids)
	if hc.Verbose {
		log.Printf("released %d of %d", released, len(ids))
	}
	start = time.Now()
	sc.out = wire.AppendReleaseReply(sc.out[:0], released)
	m.stageEncode.ObserveDuration(time.Since(start))
	w.Header()["Content-Type"] = wireCTValue
	_, _ = w.Write(sc.out)
	putWire(sc)
}

// writeJSON encodes v into a pooled buffer and writes it in one call, so
// the response path reuses encoder memory across requests. The encoding
// (not the socket write) is recorded into the encode stage histogram when
// m is non-nil.
func writeJSON(w http.ResponseWriter, m *handlerMetrics, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	start := time.Now()
	err := json.NewEncoder(buf).Encode(v)
	if m != nil {
		m.stageEncode.ObserveDuration(time.Since(start))
	}
	if err != nil {
		putBuf(buf)
		log.Printf("serve: encoding response: %v", err)
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
