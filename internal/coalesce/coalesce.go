// Package coalesce is the adaptive group-commit window shared by the
// replica's cell batcher (internal/serve) and the router's upstream
// writer (internal/cluster). A batcher feeds it arrival timestamps and
// the number of submissions each flush carried; it answers how long the
// next flush should wait for more submissions to join.
//
// The policy: an EWMA of the arrival gap (each gap clamped to 10 ms, so
// one idle stretch does not poison the estimate for the next burst) and
// an EWMA of subs per flush (×256 fixed point, an empty estimate read as
// one). The window engages only once recent flushes actually merged
// concurrent submissions (subs EWMA ≥ 1.25); it is then 4× the gap EWMA,
// clamped to [2 µs, 100 µs]. A sequential caller drives the subs EWMA to
// one and never waits, so no window setting can change what a flush
// contains under sequential replay.
package coalesce

import (
	"sync/atomic"
	"time"
)

const (
	// engageSubs is the subs-per-flush EWMA (in 1/256ths) at which waiting
	// pays: 320/256 = 1.25 — flushes have recently merged submissions.
	engageSubs = 320
	// Window clamp: at least one scheduler pass, at most a fraction of a
	// typical epoch, so the window can only trade latency it wins back by
	// coalescing.
	minWindow = 2 * time.Microsecond
	maxWindow = 100 * time.Microsecond
	// maxGapNs clamps each folded arrival gap.
	maxGapNs = int64(10 * time.Millisecond)
)

// Window is one batcher's EWMA state; the zero value is ready to use.
// It is safe for concurrent use: lost updates under racing arrivals only
// soften the estimate, which is a hint, never a correctness input.
type Window struct {
	lastNs atomic.Int64 // latest arrival, 0 before the first
	gapNs  atomic.Int64 // smoothed arrival gap, nanoseconds
	subs   atomic.Int64 // smoothed subs per flush, ×256
}

// NoteArrival folds one arrival at nowNs, a nanosecond timestamp that is
// never zero (zero marks "no arrival yet"), into the gap EWMA.
func (w *Window) NoteArrival(nowNs int64) {
	prev := w.lastNs.Swap(nowNs)
	if prev == 0 {
		return
	}
	gap := nowNs - prev
	if gap < 0 {
		gap = 0
	}
	if gap > maxGapNs {
		gap = maxGapNs
	}
	old := w.gapNs.Load()
	if old == 0 {
		old = gap
	}
	w.gapNs.Store((3*old + gap) / 4)
}

// NoteSubs folds one flush's submission count into the subs EWMA.
func (w *Window) NoteSubs(n int) {
	old := w.subs.Load()
	if old == 0 {
		old = 256
	}
	w.subs.Store((3*old + int64(n)*256) / 4)
}

// Engaged reports whether recent flushes coalesced concurrent
// submissions, i.e. whether waiting for more is expected to pay.
func (w *Window) Engaged() bool {
	return w.subs.Load() >= engageSubs
}

// Duration is how long the next flush should hold open for more
// submissions: zero unless Engaged, else 4× the gap EWMA, clamped.
func (w *Window) Duration() time.Duration {
	if !w.Engaged() {
		return 0
	}
	gap := w.gapNs.Load()
	if gap <= 0 {
		return 0
	}
	d := time.Duration(4 * gap)
	if d < minWindow {
		return minWindow
	}
	if d > maxWindow {
		return maxWindow
	}
	return d
}
