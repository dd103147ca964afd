package online

import (
	"strings"
	"testing"
)

// churnStep drives one release+allocate step, maintaining the live set.
func churnStep(t *testing.T, a *Allocator, live *[]int64, release, arrive int) {
	t.Helper()
	if release > 0 {
		if got := a.Release((*live)[:release]); got != release {
			t.Fatalf("released %d of %d", got, release)
		}
		*live = (*live)[release:]
	}
	rep, err := a.Allocate(arrive)
	if err != nil {
		t.Fatal(err)
	}
	*live = append(*live, rep.IDs()...)
}

// TestDeltaLogMigration is the two-phase migration contract in one
// process: snapshot + delta log replayed on a restored allocator lands on
// the identical chain digest and full-state fingerprint, and the restored
// stream continues identically afterwards.
func TestDeltaLogMigration(t *testing.T) {
	for _, alg := range []string{"aheavy", "greedy:2", "aheavy!mass"} {
		t.Run(alg, func(t *testing.T) {
			src, err := New(Config{N: 16, Alg: alg, Seed: 5, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			var live []int64
			churnStep(t, src, &live, 0, 300)
			churnStep(t, src, &live, 120, 200)

			// Phase 1: snapshot while the cell keeps serving.
			snap, err := src.SnapshotAndLog()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.SnapshotAndLog(); err == nil {
				t.Fatal("second concurrent delta log accepted")
			}
			// Traffic between snapshot and cut becomes the delta,
			// including an epoch with no arrivals and a no-op release.
			churnStep(t, src, &live, 80, 150)
			churnStep(t, src, &live, 0, 0)
			src.Release([]int64{1 << 40}) // unknown ID: no chain fold, no record
			churnStep(t, src, &live, 40, 60)

			log, chainHex, err := src.CutDeltaLog()
			if err != nil {
				t.Fatal(err)
			}
			if len(log) == 0 {
				t.Fatal("delta log empty after churn")
			}
			if chainHex != src.ChainFingerprint() {
				t.Fatalf("cut chain %s != live chain %s", chainHex, src.ChainFingerprint())
			}

			// Phase 2: restore the snapshot, replay the delta.
			dst, err := snap.Restore(Config{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ApplyDeltaLog(log); err != nil {
				t.Fatal(err)
			}
			if got := dst.ChainFingerprint(); got != chainHex {
				t.Fatalf("replayed chain %s != cut chain %s", got, chainHex)
			}
			if got, want := dst.Fingerprint(), src.Fingerprint(); got != want {
				t.Fatalf("replayed fingerprint %s != source %s", got, want)
			}
			srcStats, dstStats := src.Stats(), dst.Stats()
			if srcStats != dstStats {
				t.Fatalf("stats diverge:\n src %+v\n dst %+v", srcStats, dstStats)
			}
			if _, err := dst.VerifyFingerprint(); err != nil {
				t.Fatal(err)
			}

			// The streams continue identically: same epochs, same chains.
			liveDst := append([]int64(nil), live...)
			churnStep(t, src, &live, 100, 70)
			churnStep(t, dst, &liveDst, 100, 70)
			if src.Fingerprint() != dst.Fingerprint() {
				t.Fatal("streams diverged after migration")
			}
		})
	}
}

// TestDeltaLogEmptyCut: a migration that catches no traffic ships an
// empty log, and applying it is a no-op that still verifies.
func TestDeltaLogEmptyCut(t *testing.T) {
	src, err := New(Config{N: 8, Alg: "aheavy", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	churnStep(t, src, &live, 0, 100)
	snap, err := src.SnapshotAndLog()
	if err != nil {
		t.Fatal(err)
	}
	log, chainHex, err := src.CutDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("idle delta log carries %d bytes", len(log))
	}
	dst, err := snap.Restore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDeltaLog(log); err != nil {
		t.Fatal(err)
	}
	if dst.ChainFingerprint() != chainHex || dst.Fingerprint() != src.Fingerprint() {
		t.Fatal("empty delta did not preserve state")
	}
	if _, _, err := src.CutDeltaLog(); err == nil {
		t.Fatal("double cut accepted")
	}
}

// TestDeltaLogAbort: an aborted log leaves the allocator serving and a
// fresh log can start.
func TestDeltaLogAbort(t *testing.T) {
	a, err := New(Config{N: 8, Alg: "aheavy", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	churnStep(t, a, &live, 0, 50)
	if _, err := a.SnapshotAndLog(); err != nil {
		t.Fatal(err)
	}
	a.AbortDeltaLog()
	if _, _, err := a.CutDeltaLog(); err == nil {
		t.Fatal("cut after abort accepted")
	}
	churnStep(t, a, &live, 10, 20)
	if _, err := a.SnapshotAndLog(); err != nil {
		t.Fatalf("new log after abort: %v", err)
	}
	a.AbortDeltaLog()
}

// TestDeltaLogApplyRejects: corrupted or discontinuous logs fail loudly
// instead of silently diverging, and an allocator that is itself logging
// refuses to apply.
func TestDeltaLogApplyRejects(t *testing.T) {
	mk := func() (*Allocator, *Snapshot, []byte) {
		src, err := New(Config{N: 8, Alg: "aheavy", Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		var live []int64
		churnStep(t, src, &live, 0, 100)
		snap, err := src.SnapshotAndLog()
		if err != nil {
			t.Fatal(err)
		}
		churnStep(t, src, &live, 30, 50)
		log, _, err := src.CutDeltaLog()
		if err != nil {
			t.Fatal(err)
		}
		dst, err := snap.Restore(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return dst, snap, log
	}

	dst, _, log := mk()
	if err := dst.ApplyDeltaLog(log[:len(log)-1]); err == nil {
		t.Error("truncated log accepted")
	}
	dst, _, log = mk()
	bad := append([]byte{'X'}, log...)
	if err := dst.ApplyDeltaLog(bad); err == nil || !strings.Contains(err.Error(), "unknown record") {
		t.Errorf("unknown tag: %v", err)
	}
	// Applying the same log twice breaks epoch continuity.
	dst, _, log = mk()
	if err := dst.ApplyDeltaLog(log); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDeltaLog(log); err == nil {
		t.Error("replayed log accepted")
	}
	// A release of a ball the snapshot never saw.
	dst, _, _ = mk()
	var fake deltaLog
	fake.logRelease([]int64{1 << 30})
	if err := dst.ApplyDeltaLog(fake.buf); err == nil || !strings.Contains(err.Error(), "not live") {
		t.Errorf("ghost release accepted: %v", err)
	}
	// An allocator mid-log refuses to apply.
	dst, _, log = mk()
	if _, err := dst.SnapshotAndLog(); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDeltaLog(log); err == nil {
		t.Error("apply during recording accepted")
	}
}

// FuzzApplyDeltaLog feeds arbitrary bytes to ApplyDeltaLog on an allocator
// restored from a real snapshot. Every input must either apply or return
// an error, never panic, and a log that applies must leave a state that
// passes the slow-path audit. The seeds are a real cut log and the
// corruptions TestDeltaLogApplyRejects checks.
func FuzzApplyDeltaLog(f *testing.F) {
	src, err := New(Config{N: 8, Alg: "aheavy", Seed: 4, Trace: true})
	if err != nil {
		f.Fatal(err)
	}
	rep, err := src.Allocate(100)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := src.SnapshotAndLog()
	if err != nil {
		f.Fatal(err)
	}
	src.Release(rep.IDs()[:30])
	if _, err := src.Allocate(50); err != nil {
		f.Fatal(err)
	}
	log, _, err := src.CutDeltaLog()
	if err != nil {
		f.Fatal(err)
	}
	var ghost deltaLog
	ghost.logRelease([]int64{1 << 30})
	f.Add(log)
	f.Add(log[:len(log)-1])
	f.Add(append([]byte{'X'}, log...))
	f.Add(append(append([]byte(nil), log...), log...))
	f.Add(ghost.buf)
	f.Fuzz(func(t *testing.T, log []byte) {
		dst, err := snap.Restore(Config{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if dst.ApplyDeltaLog(log) != nil {
			return
		}
		if _, err := dst.VerifyFingerprint(); err != nil {
			t.Fatalf("applied log left an inconsistent state: %v", err)
		}
	})
}
