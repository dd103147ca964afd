package asym

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// TestPlanInvariantsProperty checks schedule invariants over randomized
// instances: terminal last, positive budgets, blocks within range, and the
// deterministic remainder staying positive until the terminal round.
func TestPlanInvariantsProperty(t *testing.T) {
	err := quick.Check(func(mRaw uint32, nRaw uint16) bool {
		m := int64(mRaw%10_000_000) + 1
		n := int(nRaw%10_000) + 2
		plans := Plan(m, n)
		if len(plans) == 0 || !plans[len(plans)-1].Terminal {
			return false
		}
		mr := float64(m)
		for i, rp := range plans {
			if rp.Blocks < 1 || rp.Blocks > n || rp.L < 1 {
				return false
			}
			if rp.Terminal {
				return i == len(plans)-1
			}
			mr -= float64(rp.L) * float64(rp.Blocks)
			if mr <= 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockGeometryProperty verifies the exact partition on randomized
// (n, blocks) pairs: every bin in exactly one block, leader is the block
// maximum, block sizes differ by at most one.
func TestBlockGeometryProperty(t *testing.T) {
	err := quick.Check(func(nRaw uint16, bRaw uint16) bool {
		n := int(nRaw%2000) + 1
		blocks := int(bRaw)%n + 1
		p := &protocol{n: n}
		rp := RoundPlan{Blocks: blocks}
		leaders := 0
		minSize, maxSize := n+1, 0
		for k := 0; k < blocks; k++ {
			size := p.blockEnd(rp, k) - p.blockStart(rp, k)
			if size < 1 {
				return false
			}
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		if maxSize-minSize > 1 {
			return false
		}
		for b := 0; b < n; b++ {
			k := p.blockOf(rp, b)
			if b < p.blockStart(rp, k) || b >= p.blockEnd(rp, k) {
				return false
			}
			if p.isLeader(rp, b) {
				leaders++
			}
		}
		return leaders == blocks
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunConservationProperty runs the full algorithm on small randomized
// instances and checks completeness.
func TestRunConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, mRaw uint16, nRaw uint8) bool {
		m := int64(mRaw%20000) + 1
		n := int(nRaw%200) + 1
		res, err := Run(model.Problem{M: m, N: n}, Config{Seed: seed})
		if err != nil {
			return false
		}
		return res.Check() == nil
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
