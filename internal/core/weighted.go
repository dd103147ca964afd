package core

// Weighted balls — an extension beyond the paper.
//
// The paper allocates unit balls. A natural follow-up (standard in the
// sequential balanced-allocations literature) is balls with integer
// weights: minimize the maximum total *weight* per bin. The threshold
// mechanism carries over directly when thresholds are measured in weight
// units: in round i bins accept arriving balls greedily while their load
// stays below T_i = W/n − (W̃_i/n)^(2/3), with the same recursion
// W̃_{i+1} = W̃_i^(2/3)·n^(1/3) on total remaining *weight*. Phase 1 keeps
// every bin within w_max of its threshold (a bin stops only when the next
// ball would overflow), so the leftover weight is again deterministic up
// to O(n·w_max). The O(n)-ball remainder is then placed by a sequential
// least-loaded pass over a heap of the bins, on one goroutine and with a
// global view of the loads — no parallel protocol. That finisher sets the
// final max load (each placement adds at most w_max above the running
// minimum), so the excess RunWeighted reports measures the finisher, not
// the threshold rounds.
//
// Guarantee: max weighted load ≤ W/n + O(w_max) (recovering the paper's
// m/n + O(1) when all weights are 1). Implemented count-based (balls
// exchangeable within a weight class).

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/rng"
)

// WeightClass is a group of identical balls: Count balls of weight Weight.
type WeightClass struct {
	Weight int64
	Count  int64
}

// WeightedProblem specifies a weighted instance.
type WeightedProblem struct {
	N       int
	Classes []WeightClass
}

// Validate checks the instance.
func (p WeightedProblem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("core: weighted problem needs at least one bin, got %d", p.N)
	}
	for _, c := range p.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("core: non-positive ball weight %d", c.Weight)
		}
		if c.Count < 0 {
			return fmt.Errorf("core: negative class count %d", c.Count)
		}
	}
	return nil
}

// TotalWeight returns W = Σ weight·count.
func (p WeightedProblem) TotalWeight() int64 {
	var w int64
	for _, c := range p.Classes {
		w += c.Weight * c.Count
	}
	return w
}

// TotalBalls returns the number of balls.
func (p WeightedProblem) TotalBalls() int64 {
	var m int64
	for _, c := range p.Classes {
		m += c.Count
	}
	return m
}

// MaxWeight returns w_max (0 for an empty instance).
func (p WeightedProblem) MaxWeight() int64 {
	var w int64
	for _, c := range p.Classes {
		if c.Count > 0 && c.Weight > w {
			w = c.Weight
		}
	}
	return w
}

// WeightedResult reports a weighted allocation.
type WeightedResult struct {
	Problem WeightedProblem
	Loads   []int64 // total weight per bin
	Balls   []int64 // ball count per bin
	Rounds  int
}

// MaxLoad returns the maximum weighted load.
func (r *WeightedResult) MaxLoad() int64 {
	var m int64
	for _, v := range r.Loads {
		if v > m {
			m = v
		}
	}
	return m
}

// Excess returns MaxLoad − ceil(W/n).
func (r *WeightedResult) Excess() int64 {
	n := int64(r.Problem.N)
	return r.MaxLoad() - (r.Problem.TotalWeight()+n-1)/n
}

// Check verifies weight and ball conservation.
func (r *WeightedResult) Check() error {
	if len(r.Loads) != r.Problem.N || len(r.Balls) != r.Problem.N {
		return fmt.Errorf("core: weighted result has wrong vector lengths")
	}
	var w, m int64
	for i := range r.Loads {
		if r.Loads[i] < 0 || r.Balls[i] < 0 {
			return fmt.Errorf("core: negative load at bin %d", i)
		}
		w += r.Loads[i]
		m += r.Balls[i]
	}
	if w != r.Problem.TotalWeight() {
		return fmt.Errorf("core: weight %d != total %d", w, r.Problem.TotalWeight())
	}
	if m != r.Problem.TotalBalls() {
		return fmt.Errorf("core: balls %d != total %d", m, r.Problem.TotalBalls())
	}
	return nil
}

// RunWeighted allocates a weighted instance with the threshold mechanism.
func RunWeighted(p WeightedProblem, cfg Config) (*WeightedResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}

	n := p.N
	w := p.TotalWeight()
	wmax := p.MaxWeight()
	loads := make([]int64, n)
	ballCounts := make([]int64, n)
	res := &WeightedResult{Problem: p, Loads: loads, Balls: ballCounts}
	if w == 0 {
		return res, nil
	}

	// Remaining balls per class, heaviest first (bins pack greedily
	// heavy-to-light among each round's arrivals — arrival order is the
	// algorithm's to choose, and heavy-first wastes the least space).
	classes := append([]WeightClass(nil), p.Classes...)
	sort.Slice(classes, func(i, j int) bool { return classes[i].Weight > classes[j].Weight })
	remaining := make([]int64, len(classes))
	for i, c := range classes {
		remaining[i] = c.Count
	}

	// Aheavy's schedule in weight units: W balls of weight one, ending
	// once the remaining-weight estimate is at most 2·n·w_max.
	thresholds, _ := scheduleOffsetInto(model.Problem{M: w, N: n}, 0, params, stopFactor*float64(n)*float64(wmax), nil, nil)

	r := rng.New(rng.Mix64(cfg.Seed ^ 0xBEEF5EED0DDBA115))
	counts := make([][]int64, len(classes))
	for i := range counts {
		counts[i] = make([]int64, n)
	}

	rounds := 0
	for _, ti := range thresholds {
		totalLeft := int64(0)
		for _, rem := range remaining {
			totalLeft += rem
		}
		if totalLeft == 0 {
			break
		}
		// Every remaining ball contacts one uniform bin (per class counts
		// are exact multinomials).
		for ci := range classes {
			r.Multinomial(remaining[ci], counts[ci])
		}
		// Bins accept greedily, heaviest arrivals first, while the next
		// ball still fits under the threshold.
		for b := 0; b < n; b++ {
			for ci := range classes {
				wgt := classes[ci].Weight
				avail := counts[ci][b]
				for avail > 0 && loads[b]+wgt <= ti {
					take := (ti - loads[b]) / wgt
					if take > avail {
						take = avail
					}
					if take == 0 {
						break
					}
					loads[b] += take * wgt
					ballCounts[b] += take
					remaining[ci] -= take
					avail -= take
				}
			}
		}
		rounds++
	}

	// Finisher: place the O(n·w_max)-weight remainder least-loaded-first
	// (heavy balls first), sequentially. It sets the final excess: each
	// placement adds at most w_max above the running minimum.
	h := &binHeap{}
	h.items = make([]binItem, n)
	for b := 0; b < n; b++ {
		h.items[b] = binItem{load: loads[b], bin: b}
	}
	heap.Init(h)
	for ci := range classes {
		for remaining[ci] > 0 {
			it := h.items[0]
			loads[it.bin] += classes[ci].Weight
			ballCounts[it.bin]++
			remaining[ci]--
			h.items[0].load += classes[ci].Weight
			heap.Fix(h, 0)
		}
	}
	rounds++ // the finisher counts as one round

	res.Rounds = rounds
	return res, nil
}

type binItem struct {
	load int64
	bin  int
}

type binHeap struct{ items []binItem }

func (h *binHeap) Len() int           { return len(h.items) }
func (h *binHeap) Less(i, j int) bool { return h.items[i].load < h.items[j].load }
func (h *binHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *binHeap) Push(x any)         { h.items = append(h.items, x.(binItem)) }
func (h *binHeap) Pop() any           { panic("core: binHeap.Pop unused") }
