package online

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/model"
)

// The delta log is the two-phase migration seam: SnapshotAndLog captures a
// full snapshot and starts recording every subsequent state-changing event
// (committed Allocate epochs and Releases) as compact varint records;
// CutDeltaLog stops recording and hands the accumulated records plus the
// source's epoch-chain digest to the caller; ApplyDeltaLog replays the
// records on an allocator restored from the snapshot. Replay does not
// re-run the inner protocol: an 'A' record carries the epoch's placements,
// metrics and trace, and replay commits them through the very transitions
// Allocate and Release use (beginEpoch, commitEpoch, release), so the
// destination folds the same chain and lands on the identical digest —
// the O(1) proof that snapshot + delta reproduced the source's event
// history exactly. The pause window of a migration is then the cut and
// the delta transfer, O(events since snapshot), never O(live balls).
//
// Record encodings (all integers are unsigned varints unless noted):
//
//	'A' epoch idBase admitted rounds
//	    total_messages ball_requests bin_replies max_ball_sent
//	    max_bin_received commit_messages
//	    nplaced nplaced×(idDelta bin)   // IDs ascending, delta-coded
//	    pending                          // surviving pending count
//	    ntrace ntrace×value              // signed varints
//	'R' n n×id                           // release order, live IDs only
//
// An 'R' record is only written when the release actually departed balls
// (mirroring the chain, which skips empty releases). A failed epoch — a
// runner error after admissions mutated state without a chain fold —
// poisons the log: Cut then fails and the migration aborts with the cell
// intact at the source.

// maxDeltaLogBytes bounds the log a source cell will accumulate; a
// migration stalled long enough to exceed it aborts instead of growing
// without bound.
const maxDeltaLogBytes = 64 << 20

type deltaLog struct {
	buf    []byte
	err    error
	relIDs []int64 // scratch: the current Release call's departed IDs
}

func (d *deltaLog) fail(err error) {
	if d.err == nil {
		d.err = err
		d.buf = nil
	}
}

func (d *deltaLog) logAllocate(rep *Report, met model.Metrics, trace []int64) {
	if d.err != nil {
		return
	}
	b := append(d.buf, 'A')
	b = binary.AppendUvarint(b, uint64(rep.Epoch))
	b = binary.AppendUvarint(b, uint64(rep.IDBase))
	b = binary.AppendUvarint(b, uint64(rep.Admitted))
	b = binary.AppendUvarint(b, uint64(rep.Rounds))
	b = binary.AppendUvarint(b, uint64(met.TotalMessages))
	b = binary.AppendUvarint(b, uint64(met.BallRequests))
	b = binary.AppendUvarint(b, uint64(met.BinReplies))
	b = binary.AppendUvarint(b, uint64(met.MaxBallSent))
	b = binary.AppendUvarint(b, uint64(met.MaxBinReceived))
	b = binary.AppendUvarint(b, uint64(met.CommitMessages))
	b = binary.AppendUvarint(b, uint64(len(rep.Placements)))
	prev := int64(0)
	for _, p := range rep.Placements {
		b = binary.AppendUvarint(b, uint64(p.ID-prev))
		b = binary.AppendUvarint(b, uint64(p.Bin))
		prev = p.ID
	}
	b = binary.AppendUvarint(b, uint64(rep.Pending))
	b = binary.AppendUvarint(b, uint64(len(trace)))
	for _, v := range trace {
		b = binary.AppendVarint(b, v)
	}
	d.buf = b
	if len(b) > maxDeltaLogBytes {
		d.fail(fmt.Errorf("online: delta log exceeded %d bytes; cut or abort the migration sooner", maxDeltaLogBytes))
	}
}

func (d *deltaLog) logRelease(ids []int64) {
	if d.err != nil {
		return
	}
	b := append(d.buf, 'R')
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	d.buf = b
	if len(b) > maxDeltaLogBytes {
		d.fail(fmt.Errorf("online: delta log exceeded %d bytes; cut or abort the migration sooner", maxDeltaLogBytes))
	}
}

// epochFailed poisons an active delta log when an epoch errors out after
// mutating state (admissions happen before the runner; a failed run leaves
// those balls pending with no chain fold, so a log that skipped the epoch
// would silently diverge from the allocator it claims to mirror).
func (a *Allocator) epochFailed(err error) error {
	if a.dlog != nil {
		a.dlog.fail(fmt.Errorf("online: delta log interrupted by failed epoch: %w", err))
	}
	return err
}

// SnapshotAndLog atomically captures a snapshot and starts the delta log:
// every event after the returned snapshot is recorded until CutDeltaLog or
// AbortDeltaLog. One log can be active at a time.
func (a *Allocator) SnapshotAndLog() (*Snapshot, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dlog != nil {
		return nil, fmt.Errorf("online: a delta log is already active (concurrent migration?)")
	}
	a.dlog = &deltaLog{}
	return a.snapshotLocked(), nil
}

// CutDeltaLog stops the delta log and returns the accumulated records plus
// the chain digest after the last recorded event. The caller owns the
// returned log. A poisoned log (failed epoch, overflow) returns its error;
// either way the allocator stops logging and keeps serving.
func (a *Allocator) CutDeltaLog() (log []byte, chainHex string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dlog == nil {
		return nil, "", fmt.Errorf("online: no delta log active")
	}
	d := a.dlog
	a.dlog = nil
	if d.err != nil {
		return nil, "", d.err
	}
	return d.buf, hex.EncodeToString(a.chain[:]), nil
}

// AbortDeltaLog discards an active delta log, if any.
func (a *Allocator) AbortDeltaLog() {
	a.mu.Lock()
	a.dlog = nil
	a.mu.Unlock()
}

func readLogUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("online: delta log varint truncated")
	}
	return v, b[n:], nil
}

func readLogVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("online: delta log varint truncated")
	}
	return v, b[n:], nil
}

// ApplyDeltaLog replays a cut delta log through the transitions the source
// ran after its snapshot: each 'A' record opens an epoch with beginEpoch
// and commits its recorded placements with commitEpoch, and each 'R'
// record departs its balls with release — the same code, and so the same
// chain folds, as Allocate and Release. It is strict: record epochs and
// ID watermarks must continue the allocator's state, placements must name
// working-set balls in working-set order, and releases must name live
// balls. On error the allocator is partially mutated and must be
// discarded — callers stage the restore and only swap it in after the
// chain digest verifies.
func (a *Allocator) ApplyDeltaLog(log []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dlog != nil {
		return fmt.Errorf("online: cannot apply a delta log while one is being recorded")
	}
	rest := log
	for len(rest) > 0 {
		tag := rest[0]
		var err error
		switch tag {
		case 'A':
			rest, err = a.replayAllocate(rest[1:])
		case 'R':
			rest, err = a.replayRelease(rest[1:])
		default:
			return fmt.Errorf("online: delta log: unknown record tag 0x%02x", tag)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayAllocate replays one 'A' record: it checks that the record
// continues the allocator's epoch and ID watermark, opens the epoch,
// decodes the placements into a bin vector aligned with the working set,
// and commits it.
func (a *Allocator) replayAllocate(rest []byte) ([]byte, error) {
	var hdr [10]uint64 // epoch idBase admitted rounds, six metrics
	var err error
	for i := range hdr {
		if hdr[i], rest, err = readLogUvarint(rest); err != nil {
			return nil, err
		}
	}
	epoch, idBase, admitted := hdr[0], hdr[1], hdr[2]
	if epoch != uint64(a.epoch) {
		return nil, fmt.Errorf("online: delta log epoch %d does not continue state at epoch %d", epoch, a.epoch)
	}
	if idBase != uint64(a.nextID) {
		return nil, fmt.Errorf("online: delta log ID base %d does not continue watermark %d", idBase, a.nextID)
	}
	if admitted > maxDeltaLogBytes {
		return nil, fmt.Errorf("online: delta log admits %d balls in one epoch", admitted)
	}
	res := &model.Result{
		Rounds: int(hdr[3]),
		Metrics: model.Metrics{
			TotalMessages: int64(hdr[4]), BallRequests: int64(hdr[5]), BinReplies: int64(hdr[6]),
			MaxBallSent: int64(hdr[7]), MaxBinReceived: int64(hdr[8]), CommitMessages: int64(hdr[9]),
		},
	}
	ids, rep := a.beginEpoch(int(admitted))

	var nplaced uint64
	if nplaced, rest, err = readLogUvarint(rest); err != nil {
		return nil, err
	}
	if nplaced > uint64(len(ids)) {
		return nil, fmt.Errorf("online: delta log places %d balls in an epoch of %d", nplaced, len(ids))
	}
	bins := make([]int32, len(ids))
	for i := range bins {
		bins[i] = -1
	}
	// The record lists its placements in working-set order, so one cursor
	// aligns them.
	at, id := 0, int64(0)
	for i := uint64(0); i < nplaced; i++ {
		var d, bin uint64
		if d, rest, err = readLogUvarint(rest); err != nil {
			return nil, err
		}
		if bin, rest, err = readLogUvarint(rest); err != nil {
			return nil, err
		}
		id += int64(d)
		for at < len(ids) && ids[at] != id {
			at++
		}
		if at == len(ids) {
			return nil, fmt.Errorf("online: delta log placement %d is not in the epoch working set", id)
		}
		// Clamp rather than let the cast wrap an oversized bin negative
		// (unplaced); commitEpoch rejects the clamped value.
		bins[at] = int32(min(bin, uint64(a.cfg.N)))
		at++
	}
	res.Placements = bins

	var pending, ntrace uint64
	if pending, rest, err = readLogUvarint(rest); err != nil {
		return nil, err
	}
	res.Unallocated = int64(pending)
	if ntrace, rest, err = readLogUvarint(rest); err != nil {
		return nil, err
	}
	if ntrace > uint64(len(rest)) {
		return nil, fmt.Errorf("online: delta log declares %d trace entries but carries %d bytes", ntrace, len(rest))
	}
	for i := uint64(0); i < ntrace; i++ {
		var v int64
		if v, rest, err = readLogVarint(rest); err != nil {
			return nil, err
		}
		res.TraceRemaining = append(res.TraceRemaining, v)
	}
	return rest, a.commitEpoch(ids, rep, res)
}

// replayRelease replays one 'R' record through release. A valid record
// names only balls that were live when the source released them, so every
// one must depart.
func (a *Allocator) replayRelease(rest []byte) ([]byte, error) {
	var n uint64
	var err error
	if n, rest, err = readLogUvarint(rest); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("online: delta log carries an empty release record")
	}
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("online: delta log declares %d released balls but carries %d bytes", n, len(rest))
	}
	ids := make([]int64, n)
	for i := range ids {
		var v uint64
		if v, rest, err = readLogUvarint(rest); err != nil {
			return nil, err
		}
		ids[i] = int64(v)
	}
	if got := a.release(ids); uint64(got) != n {
		return nil, fmt.Errorf("online: delta log releases %d balls that are not live", n-uint64(got))
	}
	return rest, nil
}
