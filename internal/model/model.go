// Package model defines the shared vocabulary of the balls-into-bins
// reproduction: problem specifications, allocation results, message-count
// metrics, and invariant checks used by every algorithm package.
//
// The paper's setting: m balls are placed into n bins by a synchronous
// message-passing protocol. An algorithm's quality is measured by
//
//   - the maximal load over all bins, reported as excess over the perfect
//     average ceil(m/n);
//   - the number of synchronous rounds; and
//   - the number of messages sent/received per ball and per bin.
package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Problem specifies a balls-into-bins instance.
type Problem struct {
	M int64 // number of balls (m in the paper)
	N int   // number of bins (n in the paper)
}

// Validate reports whether the instance is well-formed.
func (p Problem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("model: need at least one bin, got %d", p.N)
	}
	if p.M < 0 {
		return fmt.Errorf("model: negative ball count %d", p.M)
	}
	return nil
}

// AvgLoad returns m/n as a float.
func (p Problem) AvgLoad() float64 { return float64(p.M) / float64(p.N) }

// CeilAvg returns ceil(m/n), the best possible maximal load.
func (p Problem) CeilAvg() int64 {
	return (p.M + int64(p.N) - 1) / int64(p.N)
}

// Ratio returns m/n, the load factor written m/n throughout the paper.
func (p Problem) Ratio() float64 { return p.AvgLoad() }

// Result captures the outcome of one run of an allocation algorithm.
type Result struct {
	Problem Problem
	Loads   []int64 // final load per bin; len == Problem.N
	Rounds  int     // synchronous rounds used
	Metrics Metrics // message accounting

	// Unallocated counts balls left unplaced when an algorithm (or one
	// phase of a multi-phase algorithm) stops early by design. A complete
	// allocation has Unallocated == 0.
	Unallocated int64

	// TraceRemaining, if non-nil, holds the number of unallocated balls at
	// the *start* of each round (TraceRemaining[0] == M). Used by the
	// trajectory experiments (Claim 2).
	TraceRemaining []int64

	// Placements, if non-nil, maps every ball index to its final bin (-1
	// for balls left unallocated). Recorded only when a run is configured
	// to track per-ball identities (agent-based engine with
	// RecordPlacements); the count-based fast paths treat balls as
	// exchangeable and cannot provide it. The online/churn layer relies on
	// it to credit departures back to the right bin.
	Placements []int32
}

// MaxLoad returns the maximal bin load.
func (r *Result) MaxLoad() int64 {
	var m int64
	for _, v := range r.Loads {
		if v > m {
			m = v
		}
	}
	return m
}

// MinLoad returns the minimal bin load.
func (r *Result) MinLoad() int64 {
	if len(r.Loads) == 0 {
		return 0
	}
	m := r.Loads[0]
	for _, v := range r.Loads[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Excess returns MaxLoad − ceil(m/n): the additive gap to a perfectly
// balanced allocation. The paper's headline bound is Excess = O(1).
func (r *Result) Excess() int64 { return r.MaxLoad() - r.Problem.CeilAvg() }

// TotalAllocated returns the sum of bin loads.
func (r *Result) TotalAllocated() int64 {
	var s int64
	for _, v := range r.Loads {
		s += v
	}
	return s
}

// Gini returns the Gini coefficient of the load vector, a scale-free
// imbalance measure used by the examples (0 = perfectly balanced).
func (r *Result) Gini() float64 {
	n := len(r.Loads)
	total := r.TotalAllocated()
	if n == 0 || total == 0 {
		return 0
	}
	// O(n log n) formulation over the sorted load vector.
	sorted := slices.Clone(r.Loads)
	slices.Sort(sorted)
	var cum float64
	for i, v := range sorted {
		cum += float64(v) * float64(2*(i+1)-n-1)
	}
	return cum / (float64(n) * float64(total))
}

// ErrUnallocated is returned by Check when not all balls were placed.
var ErrUnallocated = errors.New("model: not all balls allocated")

// Check verifies the fundamental allocation invariants:
//
//   - the load vector has exactly N entries, all non-negative;
//   - the loads plus any deliberately unallocated balls account for exactly
//     M (no ball lost, no ball double-placed).
//
// A complete allocation additionally requires Unallocated == 0.
// Algorithms call Check in tests after every run.
func (r *Result) Check() error { return r.check(false) }

// CheckPartial verifies conservation only (loads + Unallocated == M),
// accepting deliberately unplaced balls. Used for single phases of
// multi-phase algorithms.
func (r *Result) CheckPartial() error { return r.check(true) }

func (r *Result) check(allowPartial bool) error {
	if err := r.Problem.Validate(); err != nil {
		return err
	}
	if len(r.Loads) != r.Problem.N {
		return fmt.Errorf("model: load vector has %d entries, want %d", len(r.Loads), r.Problem.N)
	}
	if r.Unallocated < 0 {
		return fmt.Errorf("model: negative unallocated count %d", r.Unallocated)
	}
	var sum int64
	for i, v := range r.Loads {
		if v < 0 {
			return fmt.Errorf("model: bin %d has negative load %d", i, v)
		}
		sum += v
	}
	if sum+r.Unallocated != r.Problem.M {
		return fmt.Errorf("%w: placed %d + unallocated %d of %d",
			ErrUnallocated, sum, r.Unallocated, r.Problem.M)
	}
	if !allowPartial && r.Unallocated != 0 {
		return fmt.Errorf("%w: %d balls deliberately unplaced", ErrUnallocated, r.Unallocated)
	}
	if r.Placements != nil {
		if int64(len(r.Placements)) != r.Problem.M {
			return fmt.Errorf("model: placement vector has %d entries, want %d", len(r.Placements), r.Problem.M)
		}
		hist := make([]int64, r.Problem.N)
		var unplaced int64
		for i, b := range r.Placements {
			switch {
			case b < 0:
				unplaced++
			case int(b) >= r.Problem.N:
				return fmt.Errorf("model: ball %d placed in nonexistent bin %d", i, b)
			default:
				hist[b]++
			}
		}
		if unplaced != r.Unallocated {
			return fmt.Errorf("model: %d balls without a placement, but Unallocated = %d", unplaced, r.Unallocated)
		}
		for b, h := range hist {
			if h != r.Loads[b] {
				return fmt.Errorf("model: bin %d holds %d placements but load %d", b, h, r.Loads[b])
			}
		}
	}
	return nil
}

// Metrics tracks message counts. Totals are exact; per-agent maxima are
// exact when the algorithm runs agent-based, and derived analytically for
// the count-based fast paths (balls are exchangeable, so a ball allocated
// in round i sent exactly i+1 requests and received one reply per request).
type Metrics struct {
	TotalMessages  int64 // all ball→bin requests plus bin→ball replies
	BallRequests   int64 // ball→bin request messages
	BinReplies     int64 // bin→ball reply messages
	MaxBallSent    int64 // max requests sent by any single ball
	MaxBinReceived int64 // max requests received by any single bin
	CommitMessages int64 // ball→bin commit/inform messages (asymmetric alg)
}

// Add accumulates o into m (for multi-phase algorithms).
func (m *Metrics) Add(o Metrics) {
	m.TotalMessages += o.TotalMessages
	m.BallRequests += o.BallRequests
	m.BinReplies += o.BinReplies
	m.CommitMessages += o.CommitMessages
	if o.MaxBallSent > m.MaxBallSent {
		m.MaxBallSent = o.MaxBallSent
	}
	if o.MaxBinReceived > m.MaxBinReceived {
		m.MaxBinReceived = o.MaxBinReceived
	}
}

// PerBallAvg returns the average number of requests per ball.
func (m *Metrics) PerBallAvg(balls int64) float64 {
	if balls == 0 {
		return 0
	}
	return float64(m.BallRequests) / float64(balls)
}

// PerBinAvg returns the average number of requests received per bin.
func (m *Metrics) PerBinAvg(bins int) float64 {
	if bins == 0 {
		return 0
	}
	return float64(m.BallRequests) / float64(bins)
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("msgs{total=%d req=%d reply=%d commit=%d maxBall=%d maxBin=%d}",
		m.TotalMessages, m.BallRequests, m.BinReplies, m.CommitMessages,
		m.MaxBallSent, m.MaxBinReceived)
}

// TheoreticalOneShotExcess returns the leading-order prediction for the
// excess load of one-shot random allocation, sqrt(2 (m/n) ln n), valid for
// m >= n log n (Chernoff upper tail; the paper states Θ(sqrt(m/n · log n))).
func TheoreticalOneShotExcess(p Problem) float64 {
	mu := p.AvgLoad()
	return math.Sqrt(2 * mu * math.Log(float64(p.N)))
}
