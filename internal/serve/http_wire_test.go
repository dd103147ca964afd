package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/online"
	"repro/internal/wire"
)

// failingAlloc wraps a cell's allocator and fails every epoch, leaving
// the wrapped allocator's state untouched — the injectable failure mode
// the real allocator does not offer from outside.
type failingAlloc struct {
	cellAllocator
	fail bool
}

func (f *failingAlloc) Allocate(k int) (*online.Report, error) {
	if f.fail {
		return nil, errors.New("injected epoch failure")
	}
	return f.cellAllocator.Allocate(k)
}

// gatedAlloc wraps a cell's allocator and holds the cell's first epoch
// open: it closes entered, then waits for release to close before
// running the epoch. It records every epoch's arrival count, so a test
// sees which requests shared an epoch. Only the cell's batcher calls
// it; epochs is read after every request has replied.
type gatedAlloc struct {
	cellAllocator
	entered chan struct{}
	release chan struct{}
	epochs  []int
}

func (g *gatedAlloc) Allocate(k int) (*online.Report, error) {
	g.epochs = append(g.epochs, k)
	if len(g.epochs) == 1 {
		close(g.entered)
		<-g.release
	}
	return g.cellAllocator.Allocate(k)
}

// benchRW is a reusable in-memory ResponseWriter: header map and body
// buffer persist across requests so driving the handler allocates
// nothing on the recorder side.
type benchRW struct {
	h    http.Header
	body []byte
	code int
}

func (w *benchRW) Header() http.Header         { return w.h }
func (w *benchRW) Write(p []byte) (int, error) { w.body = append(w.body, p...); return len(p), nil }
func (w *benchRW) WriteHeader(c int)           { w.code = c }
func (w *benchRW) reset()                      { w.body = w.body[:0]; w.code = http.StatusOK }

// rcReader is a no-op-close ReadCloser over a resettable bytes.Reader.
// Its single pointer field keeps the interface conversion allocation-free.
type rcReader struct{ *bytes.Reader }

func (rcReader) Close() error { return nil }

// protoDriver drives a handler in-memory over one protocol, reusing
// every request, buffer, and reply structure across calls. It is the
// client half of the zero-allocation claim: with proto "binary" a warm
// driver performs no allocations per allocate/release round trip beyond
// what the service core itself does.
type protoDriver struct {
	h     http.Handler
	proto string
	w     benchRW

	areq  *http.Request
	abody *bytes.Reader
	rreq  *http.Request
	rbody *bytes.Reader

	frame []byte
	jbuf  bytes.Buffer
	ids   []int64
	rep   Report
}

func newProtoDriver(h http.Handler, proto string) *protoDriver {
	d := &protoDriver{h: h, proto: proto}
	d.w.h = make(http.Header)
	d.abody = bytes.NewReader(nil)
	d.rbody = bytes.NewReader(nil)
	d.areq = httptest.NewRequest(http.MethodPost, "/allocate", nil)
	d.rreq = httptest.NewRequest(http.MethodPost, "/release", nil)
	ct := "application/json"
	if proto == "binary" {
		ct = wire.ContentType
	}
	d.areq.Header.Set("Content-Type", ct)
	d.rreq.Header.Set("Content-Type", ct)
	return d
}

func (d *protoDriver) do(req *http.Request, body *bytes.Reader, payload []byte) int {
	body.Reset(payload)
	// Reassign every call: the JSON path swaps in a stateful
	// MaxBytesReader, which must not leak into the next request.
	req.Body = rcReader{body}
	d.w.reset()
	d.h.ServeHTTP(&d.w, req)
	return d.w.code
}

// allocate admits count balls and decodes the reply into d.rep.
func (d *protoDriver) allocate(count int, terse bool) error {
	var payload []byte
	if d.proto == "binary" {
		d.frame = wire.AppendAllocateRequest(d.frame[:0], count, terse)
		payload = d.frame
	} else {
		d.jbuf.Reset()
		fmt.Fprintf(&d.jbuf, `{"count":%d,"terse":%v}`, count, terse)
		payload = d.jbuf.Bytes()
	}
	if code := d.do(d.areq, d.abody, payload); code != http.StatusOK {
		return fmt.Errorf("/allocate: status %d: %s", code, d.w.body)
	}
	if d.proto == "binary" {
		return wire.ParseReport(d.w.body, &d.rep)
	}
	d.rep.Reset()
	return json.Unmarshal(d.w.body, &d.rep)
}

// release departs ids and returns the server's released count.
func (d *protoDriver) release(ids []int64) (int, error) {
	var payload []byte
	if d.proto == "binary" {
		d.frame = wire.AppendReleaseRequest(d.frame[:0], ids)
		payload = d.frame
	} else {
		d.jbuf.Reset()
		if err := json.NewEncoder(&d.jbuf).Encode(struct {
			IDs []int64 `json:"ids"`
		}{ids}); err != nil {
			return 0, err
		}
		payload = d.jbuf.Bytes()
	}
	if code := d.do(d.rreq, d.rbody, payload); code != http.StatusOK {
		return 0, fmt.Errorf("/release: status %d: %s", code, d.w.body)
	}
	if d.proto == "binary" {
		return wire.ParseReleaseReply(d.w.body)
	}
	var rel struct {
		Released int `json:"released"`
	}
	err := json.Unmarshal(d.w.body, &rel)
	return rel.Released, err
}

// step is one steady-state serving round trip: allocate a terse batch,
// release every granted ball.
func (d *protoDriver) step(batch int) error {
	if err := d.allocate(batch, true); err != nil {
		return err
	}
	d.ids = d.rep.AppendIDs(d.ids[:0])
	released, err := d.release(d.ids)
	if err != nil {
		return err
	}
	if released != len(d.ids) {
		return fmt.Errorf("released %d of %d", released, len(d.ids))
	}
	return nil
}

// frameConn is a test client of GET /frames: one upgraded connection
// and its reusable reply buffers.
type frameConn struct {
	nc    net.Conn
	br    *bufio.Reader
	reply []byte
	subs  []wire.BatchSubReply
}

// upgradeFrames dials the server at addr (host:port) and upgrades the
// connection with GET /frames.
func upgradeFrames(addr string) (*frameConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := &frameConn{nc: nc, br: bufio.NewReader(nc)}
	if _, err = fmt.Fprintf(nc, "GET /frames HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", addr, FramesProtocol); err == nil {
		var res *http.Response
		if res, err = http.ReadResponse(fc.br, nil); err == nil && res.StatusCode != http.StatusSwitchingProtocols {
			err = fmt.Errorf("upgrade answered %s", res.Status)
		}
	}
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	return fc, nil
}

// dialFrames is upgradeFrames for a test that needs the connection; it
// closes with the test.
func dialFrames(t testing.TB, addr string) *frameConn {
	t.Helper()
	fc, err := upgradeFrames(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fc.nc.Close() })
	return fc
}

// roundTrip sends one batch-request frame and parses the reply frame.
// The sub-replies alias the connection's buffers until the next call.
func (c *frameConn) roundTrip(frame []byte) ([]wire.BatchSubReply, error) {
	if _, err := c.nc.Write(frame); err != nil {
		return nil, err
	}
	var err error
	if c.reply, err = wire.ReadFrame(c.br, c.reply, 1<<30); err != nil {
		return nil, err
	}
	c.subs, err = wire.ParseBatchReply(c.reply, c.subs[:0])
	return c.subs, err
}

// TestPartialFailureAccounting: when one cell's epoch fails, Admitted
// must equal the sum of the granted span counts (not the requested k),
// and the granted balls must be live and releasable.
func TestPartialFailureAccounting(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Swap before any traffic: the cell loop reads c.alloc only after a
	// queue receive, which the fan-out's send happens-before.
	s.cells[2].alloc = &failingAlloc{cellAllocator: s.cells[2].alloc, fail: true}

	const k = 1000
	rep, err := s.Allocate(k)
	if err == nil {
		t.Fatal("allocate with a failing cell returned no error")
	}
	if !strings.Contains(err.Error(), "cell 2") {
		t.Errorf("error %q does not name the failing cell", err)
	}
	sum := 0
	for _, sp := range rep.Spans {
		sum += sp.Count
	}
	if rep.Admitted != sum {
		t.Fatalf("Admitted %d != span total %d", rep.Admitted, sum)
	}
	if sum <= 0 || sum >= k {
		t.Fatalf("span total %d; want in (0, %d) with one failing cell of four", sum, k)
	}
	if got := len(rep.IDs()); got != sum {
		t.Fatalf("spans expand to %d IDs, want %d", got, sum)
	}
	// Every granted ball is live: releasing them all succeeds exactly.
	if released := s.Release(rep.IDs()); released != sum {
		t.Fatalf("released %d of %d granted balls", released, sum)
	}

	// The HTTP layer serves the same contract: 500 with a JSON error body
	// carrying the granted spans — for binary requests too (error
	// responses are never binary).
	h := NewHandler(s, HandlerConfig{})
	d := newProtoDriver(h, "binary")
	d.frame = wire.AppendAllocateRequest(d.frame[:0], k, false)
	if code := d.do(d.areq, d.abody, d.frame); code != http.StatusInternalServerError {
		t.Fatalf("partial failure served status %d, want 500", code)
	}
	if ct := d.w.h.Get("Content-Type"); ct != "application/json" {
		t.Errorf("partial-failure Content-Type %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(d.w.body, &body); err != nil {
		t.Fatalf("500 body is not the JSON error shape: %v", err)
	}
	if body.Error == "" || len(body.Spans) == 0 {
		t.Fatalf("500 body %+v; want error text and granted spans", body)
	}
	granted := 0
	ids := []int64{}
	for _, sp := range body.Spans {
		granted += sp.Count
		for i := 0; i < sp.Count; i++ {
			ids = append(ids, sp.Start+int64(i)*sp.Stride)
		}
	}
	released, err := d.release(ids)
	if err != nil {
		t.Fatal(err)
	}
	if released != granted {
		t.Fatalf("released %d of %d balls granted alongside the 500", released, granted)
	}
}

// TestFramePartialFailure: the partial-failure contract on the path
// that carries it, one batch frame over an upgraded GET /frames
// connection. When one addressed cell's epoch fails, that sub answers 500
// with the JSON error shape naming the cell and carrying the spans the
// healthy cells granted; a second sub in the same frame, clear of the
// failing cell, succeeds; and a release sub then frees every granted ID.
// The router's merge folds exactly this shape into its partial reply, so
// this contract is what keeps a cluster from losing grants when a
// replica half-fails.
func TestFramePartialFailure(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 4, Host: []int{0, 1, 2, 3}, Alg: "aheavy", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cells[2].alloc = &failingAlloc{cellAllocator: s.cells[2].alloc, fail: true}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	fc := dialFrames(t, ts.Listener.Addr().String())

	f := wire.AppendBatchTag(wire.BeginBatchRequest(nil), 7)
	f = wire.AppendCellAllocateRequest(f, []wire.CellCount{
		{Cell: 0, Count: 250}, {Cell: 1, Count: 250}, {Cell: 2, Count: 250}, {Cell: 3, Count: 250},
	}, false)
	f = wire.AppendBatchTag(f, 8)
	f = wire.AppendCellAllocateRequest(f, []wire.CellCount{{Cell: 0, Count: 10}, {Cell: 3, Count: 20}}, true)
	subs, err := fc.roundTrip(wire.FinishBatch(f, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].Tag != 7 || subs[1].Tag != 8 {
		t.Fatalf("batch reply carries subs %+v, want tags 7 and 8", subs)
	}
	if subs[0].Status != http.StatusInternalServerError {
		t.Fatalf("failing sub answered status %d, want 500", subs[0].Status)
	}
	var body struct {
		Error string `json:"error"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(subs[0].Frame, &body); err != nil {
		t.Fatalf("sub-error is not the JSON error shape: %v (%s)", err, subs[0].Frame)
	}
	if !strings.Contains(body.Error, "cell 2") {
		t.Errorf("error %q does not name the failing cell", body.Error)
	}
	granted := 0
	var ids []int64
	for _, sp := range body.Spans {
		if sp.Start%4 == 2 {
			t.Fatalf("failing cell 2 granted span %+v", sp)
		}
		granted += sp.Count
		for i := 0; i < sp.Count; i++ {
			ids = append(ids, sp.Start+int64(i)*sp.Stride)
		}
	}
	if granted != 750 {
		t.Fatalf("healthy cells granted %d balls, want 750", granted)
	}
	if subs[1].Status != 0 {
		t.Fatalf("sub clear of the failing cell answered status %d: %s", subs[1].Status, subs[1].Frame)
	}
	var rep Report
	if err := wire.ParseReport(subs[1].Frame, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 30 {
		t.Fatalf("second sub admitted %d, want 30", rep.Admitted)
	}
	ids = rep.AppendIDs(ids)

	// The granted balls are real state: one release sub departs them all.
	f = wire.AppendBatchTag(wire.BeginBatchRequest(nil), 9)
	f = wire.AppendReleaseRequest(f, ids)
	if subs, err = fc.roundTrip(wire.FinishBatch(f, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Tag != 9 || subs[0].Status != 0 {
		t.Fatalf("release reply %+v", subs)
	}
	released, err := wire.ParseReleaseReply(subs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if released != len(ids) {
		t.Fatalf("released %d of %d granted balls", released, len(ids))
	}
	for _, ci := range s.Cells(false) {
		if ci.Live != 0 {
			t.Fatalf("cell %d holds %d live balls after the release, want 0", ci.Cell, ci.Live)
		}
	}
}

// TestOversizedBody413: both POST endpoints reject bodies over MaxBody
// with 413 and the JSON error shape, on both protocols.
func TestOversizedBody413(t *testing.T) {
	s, err := New(Config{N: 16, Shards: 2, Alg: "aheavy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s, HandlerConfig{})
	big := bytes.Repeat([]byte{'1'}, MaxBody+2)
	for _, path := range []string{"/allocate", "/release"} {
		for _, ct := range []string{"application/json", wire.ContentType} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(big))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s (%s) with %d-byte body: status %d, want 413", path, ct, len(big), rec.Code)
				continue
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("POST %s (%s): 413 body %q is not the JSON error shape", path, ct, rec.Body.String())
			}
		}
	}
	// A body exactly at the cap is not rejected for its size.
	req := httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(big[:MaxBody]))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusRequestEntityTooLarge {
		t.Errorf("body of exactly MaxBody bytes rejected with 413")
	}
}

// TestFramesEntryPoint: GET /frames refuses what it cannot serve. A frame
// declaring more than MaxBody bytes closes the connection before its body
// is read, and so does a malformed batch frame; GET without the upgrade
// header and POST get the JSON error shape. After every case a fresh
// upgrade still serves.
func TestFramesEntryPoint(t *testing.T) {
	s, err := New(Config{N: 16, Shards: 2, Alg: "aheavy", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s, HandlerConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	addr := ts.Listener.Addr().String()

	stillServes := func(after string) {
		t.Helper()
		fc := dialFrames(t, addr)
		f := wire.AppendBatchTag(wire.BeginBatchRequest(nil), 1)
		f = wire.AppendCellAllocateRequest(f, []wire.CellCount{{Cell: 0, Count: 5}}, true)
		subs, err := fc.roundTrip(wire.FinishBatch(f, 0, 1))
		if err != nil || len(subs) != 1 || subs[0].Status != 0 {
			t.Fatalf("after %s, a fresh upgrade does not serve: %+v, %v", after, subs, err)
		}
		_ = fc.nc.Close()
	}
	closes := func(name string, payload []byte) {
		t.Helper()
		fc := dialFrames(t, addr)
		if _, err := fc.nc.Write(payload); err != nil {
			t.Fatal(err)
		}
		_ = fc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := fc.br.ReadByte()
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s: connection still open (read: %v)", name, err)
		}
		stillServes(name)
	}
	// Only the header is sent, so a close proves the body was never awaited.
	closes("a frame over MaxBody", binary.LittleEndian.AppendUint32(nil, MaxBody))
	closes("a malformed batch frame", wire.FinishBatch(wire.BeginBatchRequest(nil), 0, 0))

	for _, tc := range []struct {
		method  string
		upgrade string
		want    int
	}{
		{http.MethodGet, "", http.StatusUpgradeRequired},
		{http.MethodPost, FramesProtocol, http.StatusMethodNotAllowed},
	} {
		req := httptest.NewRequest(tc.method, "/frames", nil)
		if tc.upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", tc.upgrade)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s /frames (Upgrade %q): status %d, want %d", tc.method, tc.upgrade, rec.Code, tc.want)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s /frames: body %q is not the JSON error shape", tc.method, rec.Body.String())
		}
		stillServes(tc.method + " /frames")
	}
}

// TestCloseEndsFrameConns: Close ends every upgraded connection, which
// http.Server.Shutdown does not see, and returns only after their loops
// have exited, with frames in flight on all of them; an upgrade after
// Close is refused.
func TestCloseEndsFrameConns(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	addr := ts.Listener.Addr().String()
	f := wire.AppendBatchTag(wire.BeginBatchRequest(nil), 0)
	f = wire.FinishBatch(wire.AppendCellAllocateRequest(f, []wire.CellCount{{Cell: 1, Count: 3}}, true), 0, 1)

	const clients = 3
	served := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		fc := dialFrames(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if _, err := fc.roundTrip(f); err != nil {
					return // Close cut the connection
				}
				if n == 0 {
					served <- struct{}{}
				}
			}
		}()
	}
	for i := 0; i < clients; i++ {
		<-served
	}
	s.Close()
	wg.Wait()
	if fc, err := upgradeFrames(addr); err == nil {
		_ = fc.nc.Close()
		t.Fatal("upgrade after Close succeeded")
	}
}

// TestProtocolEquivalence: the same request sequence driven through the
// JSON API, the binary wire framing, and the Service directly must leave
// fingerprint-identical state — the codecs are pure encodings of one
// service, never a second code path with its own semantics.
func TestProtocolEquivalence(t *testing.T) {
	cfg := Config{N: 96, Shards: 4, Alg: "aheavy", Seed: 11}
	steps := []struct {
		arrive  int
		release int
	}{
		{400, 0}, {300, 100}, {0, 50}, {500, 200}, {100, 0}, {0, 300}, {257, 128},
	}

	viaHTTP := func(proto string) string {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := NewHandler(s, HandlerConfig{})
		d := newProtoDriver(h, proto)
		var live []int64
		for _, st := range steps {
			if st.release > 0 {
				released, err := d.release(live[:st.release])
				if err != nil {
					t.Fatal(err)
				}
				if released != st.release {
					t.Fatalf("%s: released %d of %d", proto, released, st.release)
				}
				live = live[st.release:]
			}
			if err := d.allocate(st.arrive, true); err != nil {
				t.Fatal(err)
			}
			if d.rep.Admitted != st.arrive {
				t.Fatalf("%s: admitted %d, want %d", proto, d.rep.Admitted, st.arrive)
			}
			live = d.rep.AppendIDs(live)
		}
		return s.Fingerprint()
	}

	direct := func() string {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var live []int64
		for _, st := range steps {
			if st.release > 0 {
				if got := s.Release(live[:st.release]); got != st.release {
					t.Fatalf("direct: released %d of %d", got, st.release)
				}
				live = live[st.release:]
			}
			rep, err := s.Allocate(st.arrive)
			if err != nil {
				t.Fatal(err)
			}
			live = rep.AppendIDs(live)
		}
		return s.Fingerprint()
	}()

	jsonFP, binFP := viaHTTP("json"), viaHTTP("binary")
	if jsonFP != binFP {
		t.Errorf("JSON-driven fingerprint %s != binary-driven %s", jsonFP, binFP)
	}
	if jsonFP != direct {
		t.Errorf("HTTP-driven fingerprint %s != directly-driven %s", jsonFP, direct)
	}
}

// TestBinaryHandlerAllocFree: in steady state, the binary HTTP+codec
// layer adds zero allocations per allocate/release round trip over what
// the service core itself performs, and never allocates more than the
// JSON layer. Both hold sequentially at 1 shard (the inline path) and 4,
// and binary <= JSON also holds from four concurrent clients at 4 shards.
func TestBinaryHandlerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	const batch = 64
	newHandler := func(t *testing.T, shards int) (*Service, http.Handler) {
		s, err := New(Config{N: 256, Shards: shards, Alg: "aheavy", Seed: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, NewHandler(s, HandlerConfig{})
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, h := newHandler(t, shards)
			rep := new(Report)
			var scratch []int64
			direct := func() {
				if err := s.AllocateInto(batch, rep); err != nil {
					t.Fatal(err)
				}
				scratch = rep.AppendIDs(scratch[:0])
				s.Release(scratch)
			}
			step := func(d *protoDriver) func() {
				return func() {
					if err := d.step(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			viaBinary := step(newProtoDriver(h, "binary"))
			viaJSON := step(newProtoDriver(h, "json"))
			// Warm every pool and slice capacity on all three paths.
			for i := 0; i < 50; i++ {
				direct()
				viaBinary()
				viaJSON()
			}
			core := testing.AllocsPerRun(200, direct)
			bin := testing.AllocsPerRun(200, viaBinary)
			js := testing.AllocsPerRun(200, viaJSON)
			t.Logf("allocs/op: service core %.2f, binary %.2f, JSON %.2f", core, bin, js)
			if delta := bin - core; delta >= 1 {
				t.Errorf("binary HTTP layer adds %.2f allocs/op (handler %.2f, service core %.2f); want 0",
					delta, bin, core)
			}
			if bin > js {
				t.Errorf("binary handler %.2f allocs/op > JSON handler %.2f", bin, js)
			}
		})
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1, so the concurrent shape
	// counts the process's mallocs over a fixed number of warm steps, with
	// one P per client.
	t.Run("shards=4,clients=4", func(t *testing.T) {
		const clients, warm, steps = 4, 50, 100
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clients))
		_, h := newHandler(t, 4)
		perStep := func(proto string) float64 {
			drivers := make([]*protoDriver, clients)
			for c := range drivers {
				drivers[c] = newProtoDriver(h, proto)
			}
			run := func(n int) {
				var wg sync.WaitGroup
				for _, d := range drivers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if err := d.step(batch); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			run(warm)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			run(steps)
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs-m0.Mallocs) / (clients * steps)
		}
		bin, js := perStep("binary"), perStep("json")
		t.Logf("mallocs/step over %d clients: binary %.2f, JSON %.2f", clients, bin, js)
		if bin > js {
			t.Errorf("binary handler %.2f mallocs/step > JSON handler %.2f from %d clients", bin, js, clients)
		}
	})
}

// TestFrameLoopAllocFree: in steady state, a batch round trip over an
// upgraded /frames connection — frame read, decode, reply encode, write,
// and the client's own frame codec — adds zero allocations over calling
// AllocateCellsBatch and Release directly.
func TestFrameLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	s, err := New(Config{N: 256, Shards: 4, Alg: "aheavy", Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	fc := dialFrames(t, ts.Listener.Addr().String())
	pairs := []wire.CellCount{{Cell: 0, Count: 16}, {Cell: 1, Count: 16}, {Cell: 2, Count: 16}, {Cell: 3, Count: 16}}
	items := []CellBatchItem{{Pairs: pairs, Rep: new(Report)}}
	var frame []byte
	var rep Report
	var ids []int64
	viaFrames := func() {
		frame = wire.AppendBatchTag(wire.BeginBatchRequest(frame[:0]), 0)
		frame = wire.FinishBatch(wire.AppendCellAllocateRequest(frame, pairs, true), 0, 1)
		subs, err := fc.roundTrip(frame)
		if err != nil || len(subs) != 1 || subs[0].Status != 0 {
			t.Fatalf("allocate frame: %+v, %v", subs, err)
		}
		if err := wire.ParseReport(subs[0].Frame, &rep); err != nil {
			t.Fatal(err)
		}
		ids = rep.AppendIDs(ids[:0])
		frame = wire.AppendBatchTag(wire.BeginBatchRequest(frame[:0]), 0)
		frame = wire.FinishBatch(wire.AppendReleaseRequest(frame, ids), 0, 1)
		if subs, err = fc.roundTrip(frame); err != nil || len(subs) != 1 || subs[0].Status != 0 {
			t.Fatalf("release frame: %+v, %v", subs, err)
		}
		if got, err := wire.ParseReleaseReply(subs[0].Frame); err != nil || got != len(ids) {
			t.Fatalf("released %d of %d: %v", got, len(ids), err)
		}
	}
	direct := func() {
		s.AllocateCellsBatch(items)
		if err := items[0].Err; err != nil {
			t.Fatal(err)
		}
		ids = items[0].Rep.AppendIDs(ids[:0])
		if got := s.Release(ids); got != len(ids) {
			t.Fatalf("released %d of %d", got, len(ids))
		}
	}
	// Warm every buffer and slice capacity on both paths.
	for i := 0; i < 50; i++ {
		viaFrames()
		direct()
	}
	base := testing.AllocsPerRun(200, direct)
	via := testing.AllocsPerRun(200, viaFrames)
	if delta := via - base; delta >= 1 {
		t.Errorf("frame loop adds %.2f allocs/op (frames %.2f, service core %.2f); want 0", delta, via, base)
	}
}

// TestHandlerWireOverTCP drives the binary protocol through a real TCP
// server: framed round trips, protocol-correct reply Content-Type, and
// the JSON error shape on a malformed frame.
func TestHandlerWireOverTCP(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 4, Alg: "aheavy", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()

	frame := wire.AppendAllocateRequest(nil, 321, false)
	res, err := http.Post(ts.URL+"/allocate", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	if ct := res.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary request answered with Content-Type %q", ct)
	}
	var rep Report
	if err := wire.ParseReport(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 321 || len(rep.IDs()) != 321 {
		t.Fatalf("admitted %d (%d ids), want 321", rep.Admitted, len(rep.IDs()))
	}
	if len(rep.Placements) == 0 {
		t.Error("non-terse binary reply carries no placements")
	}

	relFrame := wire.AppendReleaseRequest(nil, rep.IDs())
	res, err = http.Post(ts.URL+"/release", wire.ContentType, bytes.NewReader(relFrame))
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	released, err := wire.ParseReleaseReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if released != 321 {
		t.Fatalf("released %d, want 321", released)
	}

	// A malformed frame is a 400 with the JSON error shape.
	res, err = http.Post(ts.URL+"/allocate", wire.ContentType, bytes.NewReader(frame[:3]))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame: status %d, want 400", res.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("truncated frame: body %q is not the JSON error shape", raw)
	}
}
