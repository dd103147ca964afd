package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/model"
)

// goldenGamma spreads consecutive seed indexes across the 64-bit space.
// RunSeed is the one place it is applied: pba-sweep and the bench harness
// both take their per-run seeds from it, so a seed index names the same
// run in either tool.
const goldenGamma = 0x9E3779B97F4A7C15

// Spec declares a sweep grid: every algorithm crossed with every bin
// count, every m/n ratio, and Seeds independent runs. A Spec is pure data
// — it marshals to JSON inside the manifest and fingerprints
// deterministically.
type Spec struct {
	// Algorithms are registry names (see Resolve); parameters ride inside
	// the name, e.g. "greedy:2" or "batched:2:1024".
	Algorithms []string `json:"algorithms"`
	// Ns are the bin counts.
	Ns []int `json:"ns"`
	// Ratios are the m/n load factors; each cell solves m = n·ratio.
	Ratios []int64 `json:"ratios"`
	// Seeds is the number of independent runs per cell.
	Seeds int `json:"seeds"`
	// BaseSeed offsets every run seed, for independent replications.
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// AlgWorkers is the worker count handed to each algorithm run. It is
	// part of the spec — not of the engine — so that results cannot depend
	// on how many cells run concurrently. 0 means 1 (fully deterministic).
	AlgWorkers int `json:"alg_workers,omitempty"`
	// Label is a free-form description stored in the manifest.
	Label string `json:"label,omitempty"`
}

// Normalize validates the spec and rewrites every algorithm name to its
// canonical registry spelling (aliases resolved, defaults materialized).
func (s Spec) Normalize() (Spec, error) {
	if len(s.Algorithms) == 0 {
		return s, fmt.Errorf("sweep: spec needs at least one algorithm")
	}
	if len(s.Ns) == 0 {
		return s, fmt.Errorf("sweep: spec needs at least one bin count")
	}
	if len(s.Ratios) == 0 {
		return s, fmt.Errorf("sweep: spec needs at least one m/n ratio")
	}
	if s.Seeds <= 0 {
		return s, fmt.Errorf("sweep: spec needs Seeds >= 1, got %d", s.Seeds)
	}
	for _, n := range s.Ns {
		if n <= 0 {
			return s, fmt.Errorf("sweep: bad bin count %d", n)
		}
	}
	for _, r := range s.Ratios {
		if r <= 0 {
			return s, fmt.Errorf("sweep: bad ratio %d", r)
		}
	}
	canon := make([]string, len(s.Algorithms))
	for i, name := range s.Algorithms {
		a, err := Resolve(name)
		if err != nil {
			return s, err
		}
		canon[i] = a.Name
	}
	s.Algorithms = canon
	return s, nil
}

// RunSeed maps seed index i to the uint64 seed handed to the algorithm.
// The mapping depends only on (BaseSeed, i) — never on the cell or on the
// engine's worker count — so a grid is bit-identical however it is
// scheduled, and single-algorithm sweeps reproduce the historical
// pba-sweep seed sequence exactly.
func (s Spec) RunSeed(i int) uint64 {
	return s.BaseSeed + uint64(i)*goldenGamma + 1
}

// Fingerprint returns the hex SHA-256 of the spec's canonical JSON: the
// identity a manifest records so a resume can refuse a mismatched spec.
func (s Spec) Fingerprint() string {
	return fingerprintJSON(s)
}

// Cells expands the grid in deterministic order: algorithms outermost,
// then bin counts, then ratios (the historical pba-sweep row order for a
// single algorithm and bin count).
func (s Spec) Cells() []Cell {
	cells := make([]Cell, 0, len(s.Algorithms)*len(s.Ns)*len(s.Ratios))
	for _, alg := range s.Algorithms {
		for _, n := range s.Ns {
			for _, r := range s.Ratios {
				cells = append(cells, Cell{Index: len(cells), Alg: alg, N: n, Ratio: r})
			}
		}
	}
	return cells
}

// Cell is one grid point: an algorithm on one instance shape, run Seeds
// times.
type Cell struct {
	Index int    `json:"index"`
	Alg   string `json:"alg"`
	N     int    `json:"n"`
	Ratio int64  `json:"ratio"`
}

// Problem returns the instance the cell solves: m = n·ratio balls into n
// bins.
func (c Cell) Problem() model.Problem {
	return model.Problem{M: int64(c.N) * c.Ratio, N: c.N}
}

// Key renders the cell's stable human-readable identity.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/n=%d/r=%d", c.Alg, c.N, c.Ratio)
}

// fingerprintJSON hashes a value's JSON encoding. Struct fields marshal in
// declaration order and the encoder is deterministic, so equal values
// always hash equally.
func fingerprintJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("sweep: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
