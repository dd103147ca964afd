package online

import (
	"encoding/hex"
	"fmt"

	"repro/internal/model"
)

// SnapshotVersion is the current snapshot format version. Restore rejects
// snapshots written by a different (future) format.
const SnapshotVersion = 1

// Snapshot is a versioned, self-verifying serialization of an Allocator's
// live state: everything the determinism contract covers — the placement
// map, pending IDs, the epoch counter and ID watermark — plus the config
// triple (n, alg, seed) the stream was produced under. The per-bin loads
// are not stored: they are exactly the placement histogram and are rebuilt
// on restore. Fingerprint is the allocator's SHA-256 state fingerprint at
// snapshot time; Restore recomputes it from the decoded state and refuses
// a snapshot that does not verify, so a corrupted or hand-edited file can
// never silently resurrect a different allocation. Chain carries the
// epoch-chained incremental fingerprint so a restored stream's chain
// continues exactly where the interrupted one left off (the chain folds
// event history, so it cannot be recomputed from state; absent — e.g. in
// a pre-chain snapshot — it restarts from zero).
type Snapshot struct {
	Version  int           `json:"version"`
	N        int           `json:"n"`
	Alg      string        `json:"alg"`
	Seed     uint64        `json:"seed"`
	Epoch    int           `json:"epoch"`
	NextID   int64         `json:"next_id"`
	Arrived  int64         `json:"arrived"`
	Departed int64         `json:"departed"`
	Rounds   int           `json:"rounds"`
	Metrics  model.Metrics `json:"metrics"`
	// Placed lists every live placed ball, ascending by ID.
	Placed []Placement `json:"placed"`
	// Pending lists live but unplaced ball IDs in admission order.
	Pending []int64 `json:"pending,omitempty"`
	// Trace carries the accumulated remaining-ball trajectory when the
	// allocator was configured with Trace.
	Trace       []int64 `json:"trace,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	Chain       string  `json:"chain,omitempty"`
}

// Snapshot captures the allocator's live state. The result is safe to
// marshal to JSON and feed back to Restore — possibly in a different
// process — after which the stream continues exactly as if uninterrupted:
// epoch seeds depend only on (Seed, epoch index), so the restored
// allocator's future placements and fingerprints match an allocator that
// never stopped.
func (a *Allocator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotLocked()
}

func (a *Allocator) snapshotLocked() *Snapshot {
	// The paged table iterates in ascending ID order, which is exactly the
	// canonical, diff-friendly serialization order.
	placed := make([]Placement, 0, a.table.placed)
	a.table.forEachPlaced(func(id int64, bin int32) {
		placed = append(placed, Placement{ID: id, Bin: bin})
	})
	s := &Snapshot{
		Version:     SnapshotVersion,
		N:           a.cfg.N,
		Alg:         a.alg,
		Seed:        a.cfg.Seed,
		Epoch:       a.epoch,
		NextID:      a.table.nextID,
		Arrived:     a.arrived,
		Departed:    a.departed,
		Rounds:      a.rounds,
		Metrics:     a.metrics,
		Placed:      placed,
		Pending:     append([]int64(nil), a.pending...),
		Fingerprint: a.fingerprint(),
		Chain:       hex.EncodeToString(a.chain[:]),
	}
	if a.cfg.Trace {
		s.Trace = append([]int64(nil), a.trace...)
	}
	return s
}

// Restore reconstructs an allocator from a snapshot. The snapshot fixes
// the state triple (n, alg, seed); cfg supplies only the runtime knobs
// (Workers, Trace, Ins), and its N/Alg/Seed fields, when non-zero,
// must agree with the snapshot — a service restarted with conflicting
// flags fails loudly instead of continuing a different stream. The decoded
// state's recomputed fingerprint must match Snapshot.Fingerprint. The ID
// table's pages take the forms the live path gives the same state, so a
// migrated cell keeps its sparse pages.
func (s *Snapshot) Restore(cfg Config) (*Allocator, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("online: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	if cfg.N != 0 && cfg.N != s.N {
		return nil, fmt.Errorf("online: snapshot has n=%d but config asks n=%d", s.N, cfg.N)
	}
	if cfg.Alg != "" {
		canon, err := ResolveAlg(cfg.Alg)
		if err != nil {
			return nil, err
		}
		if canon != s.Alg {
			return nil, fmt.Errorf("online: snapshot ran %s but config asks %s", s.Alg, canon)
		}
	}
	if cfg.Seed != 0 && cfg.Seed != s.Seed {
		return nil, fmt.Errorf("online: snapshot has seed=%d but config asks seed=%d", s.Seed, cfg.Seed)
	}
	a, err := New(Config{
		N: s.N, Alg: s.Alg, Seed: s.Seed,
		Workers: cfg.Workers, Trace: cfg.Trace, Ins: cfg.Ins,
	})
	if err != nil {
		return nil, err
	}
	a.epoch = s.Epoch
	a.table.nextID = s.NextID
	a.arrived = s.Arrived
	a.departed = s.Departed
	a.rounds = s.Rounds
	a.metrics = s.Metrics
	// Pending balls go in first, so every page is complete once the
	// ascending placements move past it and settles then: a restore never
	// holds a cell's drained ID range dense.
	for _, id := range s.Pending {
		if id < 0 || id >= s.NextID {
			return nil, fmt.Errorf("online: snapshot pends ball %d outside the issued ID range [0, %d)", id, s.NextID)
		}
		if !a.table.admit(id) {
			return nil, fmt.Errorf("online: snapshot pends ball %d twice", id)
		}
	}
	for i, p := range s.Placed {
		if p.ID < 0 || p.ID >= s.NextID {
			return nil, fmt.Errorf("online: snapshot places ball %d outside the issued ID range [0, %d)", p.ID, s.NextID)
		}
		if int(p.Bin) < 0 || int(p.Bin) >= s.N {
			return nil, fmt.Errorf("online: snapshot places ball %d in nonexistent bin %d", p.ID, p.Bin)
		}
		if i > 0 {
			prev := s.Placed[i-1].ID
			if p.ID <= prev {
				return nil, fmt.Errorf("online: snapshot places ball %d after ball %d, not in ascending order", p.ID, prev)
			}
			if p.ID>>pageBits != prev>>pageBits {
				a.table.settle(prev)
			}
		}
		if !a.table.admit(p.ID) {
			return nil, fmt.Errorf("online: snapshot has ball %d both placed and pending", p.ID)
		}
		a.place(p.ID, p.Bin)
	}
	a.table.settleAll()
	a.pending = append([]int64(nil), s.Pending...)
	a.trace = append([]int64(nil), s.Trace...)
	if s.Chain != "" {
		chain, err := hex.DecodeString(s.Chain)
		if err != nil || len(chain) != len(a.chain) {
			return nil, fmt.Errorf("online: snapshot chain %q is not a %d-byte hex digest", s.Chain, len(a.chain))
		}
		copy(a.chain[:], chain)
	}
	if got := a.fingerprint(); got != s.Fingerprint {
		return nil, fmt.Errorf("online: snapshot fingerprint mismatch: stored %s, state hashes to %s", s.Fingerprint, got)
	}
	// Counters resume at zero after a restart (they are process-lifetime
	// rates); the instantaneous gauges re-anchor to the restored state.
	if a.cfg.Ins != nil {
		a.syncGauges()
	}
	return a, nil
}
