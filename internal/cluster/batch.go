package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Upstream group commit, the router's forwarding plane: each upstream's
// upgraded frame connection (conn.go) is owned by a single writer
// goroutine. Forwards submit their share of a round to the writer's
// queue and wait; the writer drains whatever has queued up and flushes
// the whole group as one KindBatchRequest frame — many concurrent client
// requests become one upstream round trip, so upstream frames/s grows
// with replicas instead of client concurrency. Replies demux back to the
// waiting callers by sequence tag.
//
// The writer is self-clocked, like the replica's cell batcher: it runs
// one round trip at a time, and submissions that arrive while a frame is
// on the wire form the next frame. Nothing holds a flush open, so a
// sequential caller — one request in flight at a time — always sees an
// immediate single-sub flush and pays no added latency. That also keeps
// the determinism contract intact: a sequential replay produces one-sub
// batch frames, and the replica runs each sub exactly as a lone
// cell-addressed request.
//
// Gate interaction: callers hold their cells' read-gates across
// submit-and-wait, and the writer never takes gates, so a migration's
// write-lock still means "no forward touching this cell is anywhere in
// flight — queued, framed, or awaiting its reply". The writer always
// drains its queue, so a gated submitter can never deadlock against it.

const (
	// maxUpBatch caps subs per flush; upQueueDepth bounds the submission
	// queue (backpressure, not loss — the writer always drains).
	maxUpBatch   = 128
	upQueueDepth = 256

	// maxBatchBytes caps one flush's frame size (the replica caps bodies
	// at serve.MaxBody); an oversized sub carries to the next flush.
	maxBatchBytes = 4 << 20
)

// errSubMissing marks a sub the reply frame failed to answer; it only
// escapes when a replica violates the one-reply-per-tag contract.
var errSubMissing = fmt.Errorf("cluster: batch reply missing this sub-request")

// errRouterClosed fails submissions that race a Close.
var errRouterClosed = fmt.Errorf("cluster: router closed")

// batchSub is one forward's share of a group-committed upstream round:
// the payload (allocate pairs or release IDs), the reply target, and a
// one-slot done channel the writer signals after demux. Subs are pooled
// inside fwdScratch, one per upstream, so the steady-state submit path
// allocates nothing.
type batchSub struct {
	alloc    bool
	terse    bool
	pairs    []wire.CellCount
	ids      []int64
	rep      *serve.Report
	released int
	err      error
	done     chan struct{}
}

// subBytes estimates a sub's frame contribution for the byte cap.
func subBytes(s *batchSub) int {
	if s.alloc {
		return 32 + len(s.pairs)*8
	}
	return 32 + len(s.ids)*8
}

// upBatcher is one upstream's group-commit writer. All mutable state
// past the queue is writer-goroutine-local.
type upBatcher struct {
	up   *upstream
	q    chan *batchSub
	stop chan struct{}
	done chan struct{}

	// Reply demux scratch, reused across flushes.
	reps []wire.BatchSubReply

	frames     *obs.Counter
	batchSize  *obs.Histogram
	flushFull  *obs.Counter
	flushDrain *obs.Counter
}

func newUpBatcher(up *upstream, met *metrics) *upBatcher {
	host := obs.L("upstream", up.host)
	flush := func(reason string) *obs.Counter {
		return met.reg.Counter("pba_upstream_flush_total",
			"Group-commit flushes by reason: full (sub or byte cap), drain (queue empty).",
			host, obs.L("reason", reason))
	}
	return &upBatcher{
		up:   up,
		q:    make(chan *batchSub, upQueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		frames: met.reg.Counter("pba_upstream_frames_total",
			"Batch frames flushed to the upstream (one round trip each).", host),
		batchSize: met.reg.ValueHistogram("pba_upstream_batch_size",
			"Sub-requests per flushed batch frame (small values land in the first bucket; read mean and max).", host),
		flushFull:  flush("full"),
		flushDrain: flush("drain"),
	}
}

// run is the writer loop: block for the first sub, drain whatever else
// is queued (up to the sub and byte caps), flush it as one frame, repeat.
// It owns the upstream connection and closes it on exit.
func (bt *upBatcher) run() {
	defer close(bt.done)
	pending := make([]*batchSub, 0, maxUpBatch)
	var carry *batchSub
	var c *conn
	defer func() {
		if c != nil {
			_ = c.nc.Close()
		}
	}()
	for {
		var first *batchSub
		if carry != nil {
			first, carry = carry, nil
		} else {
			select {
			case first = <-bt.q:
			case <-bt.stop:
				return
			}
		}
		pending = append(pending[:0], first)
		size := subBytes(first)
	drain:
		for len(pending) < maxUpBatch {
			select {
			case s := <-bt.q:
				if size+subBytes(s) > maxBatchBytes {
					carry = s
					break drain
				}
				pending = append(pending, s)
				size += subBytes(s)
			default:
				break drain
			}
		}
		if carry != nil || len(pending) == maxUpBatch {
			bt.flushFull.Inc()
		} else {
			bt.flushDrain.Inc()
		}
		c = bt.flush(c, pending)
	}
}

// flush frames pending as one batch request (tag = index), sends it over
// the upgraded connection, reads the one reply, and demuxes sub-replies
// back to their waiting callers. Transport failures and unparseable
// replies fail every sub and retire the connection; per-sub errors
// decode to *httpError so the merge path's partial-failure handling sees
// the replica's status, message and granted spans. Returns the
// connection to own next round, nil when the next flush must redial.
func (bt *upBatcher) flush(c *conn, pending []*batchSub) *conn {
	bt.frames.Inc()
	bt.batchSize.Observe(int64(len(pending)))
	if c == nil {
		var err error
		if c, err = bt.up.dial(); err != nil {
			return bt.broken(nil, pending, err)
		}
	}
	f := wire.BeginBatchRequest(c.frame[:0])
	for i, s := range pending {
		f = wire.AppendBatchTag(f, uint32(i))
		if s.alloc {
			f = wire.AppendCellAllocateRequest(f, s.pairs, s.terse)
		} else {
			f = wire.AppendReleaseRequest(f, s.ids)
		}
	}
	c.frame = wire.FinishBatch(f, 0, len(pending))
	bt.up.forwards.Add(uint64(len(pending)))
	start := time.Now()
	reply, err := c.roundTrip(c.frame)
	bt.up.latency.ObserveDuration(time.Since(start))
	if err != nil {
		return bt.broken(c, pending, err)
	}
	bt.reps, err = wire.ParseBatchReply(reply, bt.reps[:0])
	if err != nil {
		// An unparseable reply means the stream can no longer be trusted;
		// retire the connection like a transport failure.
		return bt.broken(c, pending, fmt.Errorf("bad batch reply: %w", err))
	}
	for _, s := range pending {
		s.err = errSubMissing
	}
	for i := range bt.reps {
		sr := &bt.reps[i]
		if int(sr.Tag) >= len(pending) {
			continue
		}
		s := pending[sr.Tag]
		if s.err != errSubMissing { //nolint:errorlint // sentinel identity, not wrapping
			continue // duplicate tag: first reply wins
		}
		if sr.Status == 0 {
			if s.alloc {
				s.err = wire.ParseReport(sr.Frame, s.rep)
			} else {
				s.released, s.err = wire.ParseReleaseReply(sr.Frame)
			}
		} else {
			s.err = decodeSubError(sr.Status, sr.Frame)
		}
	}
	for _, s := range pending {
		if s.err != nil {
			bt.up.errors.Inc()
		}
		s.done <- struct{}{}
	}
	return c
}

// broken handles a failure that leaves the stream untrusted (transport
// error or unparseable reply): close c (if any), mark the upstream
// unhealthy, and fail every pending sub with err. It returns nil so the
// next flush redials.
func (bt *upBatcher) broken(c *conn, pending []*batchSub, err error) *conn {
	if c != nil {
		_ = c.nc.Close()
	}
	bt.up.errors.Inc()
	bt.up.healthy.Store(false)
	for _, s := range pending {
		s.err = err
		s.done <- struct{}{}
	}
	return nil
}

// httpError is a failed sub-request as the replica reported it: the
// HTTP status and message of the serve error shape, plus the spans a
// partial allocate failure still granted, so the router can propagate
// the replica's partial-failure contract cluster-wide.
type httpError struct {
	Status int
	Msg    string
	Spans  []serve.Span
}

func (e *httpError) Error() string {
	return fmt.Sprintf("upstream HTTP %d: %s", e.Status, e.Msg)
}

// decodeSubError turns a framed sub-error (HTTP status + JSON document)
// into an *httpError, spans and all. Error paths may allocate.
func decodeSubError(status int, doc []byte) error {
	he := &httpError{Status: status}
	var d struct {
		Error string       `json:"error"`
		Spans []serve.Span `json:"spans"`
	}
	if json.Unmarshal(doc, &d) == nil && d.Error != "" {
		he.Msg, he.Spans = d.Error, d.Spans
	} else {
		he.Msg = string(doc)
	}
	return he
}

// sub returns the pooled batchSub for upstream u, creating it on first
// use (the scratch then keeps it warm).
func (sc *fwdScratch) sub(nup, u int) *batchSub {
	if sc.bsubs == nil {
		sc.bsubs = make([]*batchSub, nup)
	}
	if sc.bsubs[u] == nil {
		sc.bsubs[u] = &batchSub{done: make(chan struct{}, 1)}
	}
	return sc.bsubs[u]
}

// batchAllocate submits each involved upstream's allocate share to its
// writer, then waits in upstream order. Failures land per upstream in
// sc.failed (the other replicas' replies are still valid — the
// partial-failure contract) for the merge to fold.
func (r *Router) batchAllocate(sc *fwdScratch) {
	if r.closed.Load() {
		for u := range sc.perUp {
			if len(sc.perUp[u]) > 0 {
				sc.failed[u] = errRouterClosed
			}
		}
		return
	}
	for u := range sc.perUp {
		if len(sc.perUp[u]) == 0 {
			continue
		}
		s := sc.sub(len(r.ups), u)
		s.alloc, s.terse = true, r.cfg.Terse
		s.pairs, s.ids = sc.perUp[u], nil
		s.rep, s.released, s.err = &sc.reps[u], 0, nil
		r.batchers[u].q <- s
	}
	for u := range sc.perUp {
		if len(sc.perUp[u]) == 0 {
			continue
		}
		s := sc.bsubs[u]
		<-s.done
		sc.failed[u] = s.err
	}
}

// batchRelease submits each involved upstream's release partition to
// its writer and returns the total released.
func (r *Router) batchRelease(sc *fwdScratch) int {
	if r.closed.Load() {
		return 0
	}
	for u := range sc.relIDs {
		if len(sc.relIDs[u]) == 0 {
			continue
		}
		s := sc.sub(len(r.ups), u)
		s.alloc, s.terse = false, false
		s.pairs, s.ids = nil, sc.relIDs[u]
		s.rep, s.released, s.err = nil, 0, nil
		r.batchers[u].q <- s
	}
	total := 0
	for u := range sc.relIDs {
		if len(sc.relIDs[u]) == 0 {
			continue
		}
		s := sc.bsubs[u]
		<-s.done
		if s.err == nil {
			total += s.released
		}
	}
	return total
}
