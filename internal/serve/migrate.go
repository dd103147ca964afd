package serve

import (
	"fmt"
	"time"

	"repro/internal/online"
)

// Two-phase cell migration: the bounded-pause seam the cluster tier
// drives (internal/cluster). The pause covers only the traffic that
// arrived *during* the transfer, not the cell's live-ball count:
//
//	phase 1 — cell keeps serving:
//	  src: BeginCellMigration(g)   snapshot + start the delta log
//	  dst: StageCell(g, snap)      O(live) restore, outside every lock
//	phase 2 — per-cell pause:
//	  src: CutCellMigration(g)     cut the delta log (O(delta) bytes)
//	  dst: CommitStagedCell(g, log, chain)
//	                               replay the delta, verify the chain
//	                               fingerprint, insert into the topology
//	  src: DetachCellLite(g)       drop the stale copy; O(1) chain check
//
// The chain fingerprint makes the handoff self-verifying without O(live)
// hashing in the pause window: the cut returns the source's epoch-chained
// digest, and the destination's replayed chain must land on the same
// 32 bytes — any lost or reordered event between snapshot and cut
// diverges the digest. Abort at any point before the table flip leaves
// the source cell serving, untouched.

// BeginCellMigration starts phase 1 for hosted cell g: it captures the
// cell's snapshot and arms the delta log, so every subsequent allocate
// and release on the cell is recorded until CutCellMigration or
// AbortCellMigration. The cell keeps serving throughout.
func (s *Service) BeginCellMigration(g int) (*online.Snapshot, error) {
	s.topo.RLock()
	defer s.topo.RUnlock()
	c, err := s.hostedCell(g)
	if err != nil {
		return nil, err
	}
	return c.alloc.SnapshotAndLog()
}

// CutCellMigration ends phase 1 for hosted cell g: it cuts the delta log
// and returns the recorded bytes plus the cell's chain fingerprint at the
// cut. The caller must have paused traffic to the cell first (the cluster
// router's per-cell gate); events after the cut would be lost.
func (s *Service) CutCellMigration(g int) (log []byte, chainHex string, err error) {
	s.topo.RLock()
	c, err := s.hostedCell(g)
	if err != nil {
		s.topo.RUnlock()
		return nil, "", err
	}
	log, chainHex, err = c.alloc.CutDeltaLog()
	s.topo.RUnlock()
	if err == nil {
		s.stagedMu.Lock()
		s.cutAt[g] = time.Now()
		s.stagedMu.Unlock()
	}
	return log, chainHex, err
}

// AbortCellMigration discards hosted cell g's delta log; the cell keeps
// serving as if the migration never started.
func (s *Service) AbortCellMigration(g int) error {
	s.topo.RLock()
	defer s.topo.RUnlock()
	c, err := s.hostedCell(g)
	if err != nil {
		return err
	}
	c.alloc.AbortDeltaLog()
	return nil
}

// StageCell restores cell g from a phase-1 snapshot and parks it staged:
// verified and ready, but invisible to the topology until
// CommitStagedCell. The O(live) restore runs outside every service lock,
// so the replica serves its hosted cells at full speed while the migrated
// state rebuilds.
func (s *Service) StageCell(g int, snap *online.Snapshot) error {
	s.topo.RLock()
	err := s.hostable(g)
	s.topo.RUnlock()
	if err != nil {
		return err
	}
	s.stagedMu.Lock()
	busy := s.staged[g] != nil
	s.stagedMu.Unlock()
	if busy {
		return fmt.Errorf("serve: cell %d already staged", g)
	}
	alloc, err := s.restoreCell(g, snap)
	if err != nil {
		return err
	}
	s.stagedMu.Lock()
	defer s.stagedMu.Unlock()
	if s.staged[g] != nil {
		return fmt.Errorf("serve: cell %d already staged", g)
	}
	s.staged[g] = alloc
	return nil
}

// CommitStagedCell finishes phase 2 on the destination: it replays the
// delta log onto the staged cell, verifies the replayed chain fingerprint
// against wantChainHex (the source's digest at the cut; empty skips the
// check), and inserts the cell into the topology. The replay runs outside
// the topology lock — only the O(1) insertion blocks other cells — and a
// replay or verification failure discards the staged copy, leaving the
// source authoritative.
func (s *Service) CommitStagedCell(g int, log []byte, wantChainHex string) error {
	s.stagedMu.Lock()
	alloc := s.staged[g]
	delete(s.staged, g)
	s.stagedMu.Unlock()
	if alloc == nil {
		return fmt.Errorf("serve: cell %d is not staged", g)
	}
	err := alloc.ApplyDeltaLog(log)
	if err != nil {
		err = fmt.Errorf("serve: cell %d delta replay: %w", g, err)
	} else if got := alloc.ChainFingerprint(); wantChainHex != "" && got != wantChainHex {
		err = fmt.Errorf("serve: cell %d chain fingerprint diverged after delta replay: replayed %s, source cut at %s", g, got, wantChainHex)
	} else {
		s.topo.Lock()
		if err = s.hostable(g); err == nil {
			s.hostCell(g, alloc)
		}
		s.topo.Unlock()
	}
	if err != nil {
		s.zeroCellGauges(g)
		return err
	}
	s.metrics.attaches.Inc()
	s.metrics.migrations.Inc()
	return nil
}

// DiscardStagedCell drops cell g's staged copy (a migration abandoned
// between stage and commit). The source copy is untouched.
func (s *Service) DiscardStagedCell(g int) error {
	s.stagedMu.Lock()
	alloc := s.staged[g]
	delete(s.staged, g)
	s.stagedMu.Unlock()
	if alloc == nil {
		return fmt.Errorf("serve: cell %d is not staged", g)
	}
	s.zeroCellGauges(g)
	return nil
}

// DetachCellLite removes hosted cell g after a committed two-phase
// migration and returns its chain fingerprint — an O(1) read, so the
// detach never rehashes the cell. It also closes the cell's migration-pause measurement: the
// time from CutCellMigration to here is what the data plane actually
// observed as the cell's write pause on this replica.
func (s *Service) DetachCellLite(g int) (chainHex string, err error) {
	s.topo.Lock()
	c, err := s.hostedCell(g)
	if err != nil {
		s.topo.Unlock()
		return "", err
	}
	close(c.queue)
	<-c.done
	chainHex = c.alloc.ChainFingerprint()
	s.byGlobal[g] = nil
	s.rebuildHosted()
	s.topo.Unlock()
	s.zeroCellGauges(g)
	s.metrics.detaches.Inc()
	s.metrics.migrations.Inc()
	s.stagedMu.Lock()
	cut, ok := s.cutAt[g]
	delete(s.cutAt, g)
	s.stagedMu.Unlock()
	if ok {
		s.metrics.migrationPause.ObserveDuration(time.Since(cut))
	}
	return chainHex, nil
}

// zeroCellGauges re-anchors cell g's instantaneous gauges after the cell
// leaves this replica (detach, or a staged copy discarded); they would
// otherwise freeze at their last values while the cell lives elsewhere.
func (s *Service) zeroCellGauges(g int) {
	ins := s.metrics.cellInstrumentation(g)
	ins.Live.Set(0)
	ins.Pending.Set(0)
	ins.MaxLoad.Set(0)
	ins.MinLoad.Set(0)
}
