package serve

import "fmt"

// Cell-level topology operations: the seam the cluster tier
// (internal/cluster) drives. A cell is self-contained — its seed, bin
// range, and global ID arithmetic derive from the (n, shards, seed)
// topology, not from where it runs — so a router can attach fresh cells
// anywhere (AttachCell, at bootstrap) and move live ones between
// replicas with the two-phase migration of migrate.go.

// CellInfo is one hosted cell's line in the GET /cells document.
type CellInfo struct {
	Cell    int   `json:"cell"`
	Bins    int   `json:"bins"`
	BinBase int   `json:"bin_base"`
	Epochs  int   `json:"epochs"`
	Live    int64 `json:"live"`
	Pending int64 `json:"pending"`
	MaxLoad int64 `json:"max_load"`
	// Fingerprint is the cell's full-state fingerprint, filled only when
	// asked (O(live) hashing); the chain fingerprint in /stats covers the
	// cheap steady-state case.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Cells lists the hosted cells in global order. With fingerprints, each
// entry carries its full-state fingerprint — the inputs a router needs
// for ClusterFingerprint.
func (s *Service) Cells(fingerprints bool) []CellInfo {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make([]CellInfo, 0, len(s.cells))
	for _, c := range s.cells {
		cs := c.alloc.StatsLite()
		ci := CellInfo{
			Cell: c.index, Bins: c.n, BinBase: c.binBase, Epochs: cs.Epoch,
			Live: cs.Live, Pending: cs.Pending, MaxLoad: cs.MaxLoad,
		}
		if fingerprints {
			ci.Fingerprint = c.alloc.Fingerprint()
		}
		out = append(out, ci)
	}
	return out
}

// AttachCell adds global cell g to this replica, fresh and empty (cluster
// bootstrap). Migrated cells arrive through StageCell/CommitStagedCell
// instead.
func (s *Service) AttachCell(g int) error {
	s.topo.Lock()
	defer s.topo.Unlock()
	if err := s.hostable(g); err != nil {
		return err
	}
	alloc, err := s.freshCell(g)
	if err != nil {
		return fmt.Errorf("serve: attaching cell %d: %w", g, err)
	}
	s.hostCell(g, alloc)
	s.metrics.attaches.Inc()
	return nil
}

// hostable reports why global cell g cannot join this replica's topology,
// or nil if it can. Callers hold either side of the topology lock.
func (s *Service) hostable(g int) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	switch {
	case closed:
		return fmt.Errorf("serve: service closed")
	case !s.clustered:
		return fmt.Errorf("serve: not a cluster replica; cells are fixed")
	case g < 0 || g >= s.total:
		return fmt.Errorf("serve: cell %d out of range [0, %d)", g, s.total)
	case s.byGlobal[g] != nil:
		return fmt.Errorf("serve: cell %d already hosted here", g)
	}
	return nil
}

// hostedCell resolves a global index to the hosted cell. Callers hold
// either side of the topology lock.
func (s *Service) hostedCell(g int) (*cell, error) {
	if g < 0 || g >= s.total {
		return nil, fmt.Errorf("serve: cell %d out of range [0, %d)", g, s.total)
	}
	if s.byGlobal[g] == nil {
		return nil, fmt.Errorf("serve: cell %d not hosted here", g)
	}
	return s.byGlobal[g], nil
}

// SetEvacuation records the evacuation coordinates the router sends on
// cell attach (X-PBA-Router / X-PBA-Self): the router's base URL and this
// replica's upstream URL as the router addresses it. Empty strings are
// ignored, so a direct attach without headers never erases a previous
// router's coordinates.
func (s *Service) SetEvacuation(routerURL, selfURL string) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	if routerURL != "" {
		s.routerURL = routerURL
	}
	if selfURL != "" {
		s.selfURL = selfURL
	}
}

// Evacuation returns the recorded router and self URLs (empty when no
// router has attached a cell with coordinates yet).
func (s *Service) Evacuation() (routerURL, selfURL string) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	return s.routerURL, s.selfURL
}
