package coalesce

import (
	"testing"
	"time"
)

// TestSequentialNeverWaits: one submission per flush keeps the window
// shut however tightly arrivals are spaced — the zero-added-latency
// property both batchers' determinism contracts lean on.
func TestSequentialNeverWaits(t *testing.T) {
	var w Window
	for i := int64(1); i <= 100; i++ {
		w.NoteArrival(i * 1000)
		w.NoteSubs(1)
		if w.Engaged() || w.Duration() != 0 {
			t.Fatalf("flush %d: single-sub flushes engaged a %v window", i, w.Duration())
		}
	}
}

// TestWindowEngagesAndClamps: merged flushes open a 4×gap window, held
// inside [minWindow, maxWindow]; one-sub flushes close it again.
func TestWindowEngagesAndClamps(t *testing.T) {
	for _, tc := range []struct {
		gapNs int64
		want  time.Duration
	}{
		{100, minWindow},                          // 4×100ns under the floor
		{5000, 20 * time.Microsecond},             // 4×5µs inside the clamp
		{int64(time.Second), maxWindow},           // idle gaps fold as 10ms
		{int64(10 * time.Millisecond), maxWindow}, // at the gap clamp
	} {
		var w Window
		for i := int64(1); i <= 20; i++ {
			w.NoteArrival(i * tc.gapNs)
			w.NoteSubs(4)
		}
		if got := w.Duration(); got != tc.want {
			t.Errorf("gap %dns: window %v, want %v", tc.gapNs, got, tc.want)
		}
		for i := 0; i < 20; i++ {
			w.NoteSubs(1)
		}
		if w.Engaged() {
			t.Errorf("gap %dns: window still engaged after sequential flushes", tc.gapNs)
		}
	}
}

// TestFoldArithmetic pins the EWMA spelling: an empty subs estimate
// reads as one, and the first gap seeds the gap estimate.
func TestFoldArithmetic(t *testing.T) {
	var w Window
	w.NoteSubs(2)
	if got := w.subs.Load(); got != (3*256+2*256)/4 {
		t.Fatalf("first fold of 2 from empty: %d", got)
	}
	if !w.Engaged() {
		t.Fatal("subs EWMA 1.25 did not engage")
	}
	if w.Duration() != 0 {
		t.Fatal("window engaged with no arrival gap observed")
	}
	w.NoteArrival(1000)
	w.NoteArrival(5000)
	if got := w.gapNs.Load(); got != 4000 {
		t.Fatalf("first gap seeds the estimate: got %d, want 4000", got)
	}
	w.NoteArrival(3000) // clock went backwards: folds as a zero gap
	if got := w.gapNs.Load(); got != 3000 {
		t.Fatalf("negative gap fold: got %d, want 3000", got)
	}
}
