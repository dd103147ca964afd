package online

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestIDTableBasicOps covers the entry lifecycle: empty → pending →
// placed → empty, with counts tracked at each step.
func TestIDTableBasicOps(t *testing.T) {
	var tb idTable
	if got := tb.get(0); got != slotEmpty {
		t.Fatalf("fresh table entry = %d, want empty", got)
	}
	if !tb.admit(0) {
		t.Fatal("admit(0) on empty slot refused")
	}
	if tb.admit(0) {
		t.Fatal("double admit accepted")
	}
	if got := tb.get(0); got != slotPending {
		t.Fatalf("admitted entry = %d, want pending", got)
	}
	tb.place(0, 7)
	if got := tb.get(0); got != 7 {
		t.Fatalf("placed entry = %d, want 7", got)
	}
	if tb.placed != 1 || tb.live != 1 {
		t.Fatalf("counts placed=%d live=%d, want 1/1", tb.placed, tb.live)
	}
	prev, ok := tb.release(0)
	if !ok || prev != 7 {
		t.Fatalf("release = (%d, %v), want (7, true)", prev, ok)
	}
	if _, ok := tb.release(0); ok {
		t.Fatal("double release reported a live ball")
	}
	if tb.placed != 0 || tb.live != 0 {
		t.Fatalf("counts after release placed=%d live=%d, want 0/0", tb.placed, tb.live)
	}
	// Junk IDs are no-ops.
	if _, ok := tb.release(-1); ok {
		t.Fatal("negative id released")
	}
	if _, ok := tb.release(1 << 40); ok {
		t.Fatal("far-future id released")
	}
}

// TestIDTablePageReclamation drives the churn pattern the table exists
// for: consecutive ID ranges admitted, placed, and fully retired. Retired
// pages must leave the directory (memory proportional to the live span,
// not the ID watermark), and the freed pages must be reused for new
// ranges.
func TestIDTablePageReclamation(t *testing.T) {
	var tb idTable
	const pages = 6
	id := int64(0)
	for g := 0; g < pages; g++ {
		start := id
		for i := 0; i < pageSize; i++ {
			tb.admit(id)
			tb.place(id, int32(id%17))
			id++
		}
		// Retire the whole range.
		for r := start; r < id; r++ {
			if _, ok := tb.release(r); !ok {
				t.Fatalf("generation %d: id %d not live", g, r)
			}
		}
		if tb.live != 0 || tb.placed != 0 {
			t.Fatalf("generation %d: live=%d placed=%d after full retire", g, tb.live, tb.placed)
		}
		live := 0
		for _, pg := range tb.pages {
			if pg != nil {
				live++
			}
		}
		if live != 0 {
			t.Fatalf("generation %d: %d pages still resident after full retire", g, live)
		}
	}
	// Steady churn must not leak directory or page memory: the footprint
	// after many retired generations stays bounded by the spare cache.
	if fp := tb.footprint(); fp > (maxSparePages+2)*(pageSize*4+8)+1024 {
		t.Fatalf("footprint %d bytes after full retire — pages not reclaimed", fp)
	}
	// The freed ranges stay dead: their entries read empty.
	if got := tb.get(3); got != slotEmpty {
		t.Fatalf("retired id reads %d, want empty", got)
	}
}

// TestIDTableWatermarkPageDrain reproduces the mid-page drain: every live
// ball departs while the ID watermark is still inside the page, then new
// ids land in the same (reclaimed) page. The directory must re-extend.
func TestIDTableWatermarkPageDrain(t *testing.T) {
	var tb idTable
	for id := int64(0); id < 40; id++ {
		tb.admit(id)
		tb.place(id, 3)
	}
	for id := int64(0); id < 40; id++ {
		tb.release(id)
	}
	if len(tb.pages) != 0 {
		t.Fatalf("%d pages resident after full drain", len(tb.pages))
	}
	// The watermark continues inside the drained page.
	for id := int64(40); id < 80; id++ {
		if !tb.admit(id) {
			t.Fatalf("re-admission of id %d into drained page refused", id)
		}
		tb.place(id, 5)
	}
	if tb.live != 40 || tb.placed != 40 {
		t.Fatalf("counts after re-extension live=%d placed=%d, want 40/40", tb.live, tb.placed)
	}
	for id := int64(0); id < 40; id++ {
		if tb.get(id) != slotEmpty {
			t.Fatalf("retired id %d resurrected", id)
		}
	}
}

// TestIDTableIterationIsSorted: forEachPlaced must yield ascending IDs —
// the property that lets the fingerprint drop its sort.
func TestIDTableIterationIsSorted(t *testing.T) {
	var tb idTable
	r := rng.New(99)
	placed := make(map[int64]int32)
	for id := int64(0); id < 3*pageSize; id++ {
		tb.admit(id)
		bin := int32(r.Intn(64))
		tb.place(id, bin)
		placed[id] = bin
	}
	// Punch random holes.
	for id := int64(0); id < 3*pageSize; id++ {
		if r.Bernoulli(0.6) {
			tb.release(id)
			delete(placed, id)
		}
	}
	prev := int64(-1)
	seen := 0
	tb.forEachPlaced(func(id int64, bin int32) {
		if id <= prev {
			t.Fatalf("iteration not ascending: %d after %d", id, prev)
		}
		if want, ok := placed[id]; !ok || want != bin {
			t.Fatalf("iteration yields (%d, %d), want (%d, %d)", id, bin, id, placed[id])
		}
		prev = id
		seen++
	})
	if seen != len(placed) {
		t.Fatalf("iterated %d placed balls, want %d", seen, len(placed))
	}
}

// TestLoadHistExtremes drives random ±1 load walks and cross-checks the
// histogram's min/max against full scans.
func TestLoadHistExtremes(t *testing.T) {
	const n = 37
	loads := make([]int64, n)
	var h loadHist
	h.init(n)
	r := rng.New(5)
	check := func(step int) {
		var min, max int64
		for i, l := range loads {
			if l > max {
				max = l
			}
			if i == 0 || l < min {
				min = l
			}
		}
		if h.min != min || h.max != max {
			t.Fatalf("step %d: hist extremes (%d, %d), scan says (%d, %d)", step, h.min, h.max, min, max)
		}
	}
	for step := 0; step < 20000; step++ {
		b := r.Intn(n)
		if loads[b] == 0 || r.Bernoulli(0.55) {
			h.inc(loads[b])
			loads[b]++
		} else {
			h.dec(loads[b])
			loads[b]--
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(20000)
}

// pageForms renders the resident pages of a's table by page number and
// form, "12:d 13:s ...", for comparing the forms of two allocators.
func pageForms(a *Allocator) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sb strings.Builder
	for pi, pg := range a.table.pages {
		if pg == nil {
			continue
		}
		form := 'd'
		if pg.bins == nil {
			form = 's'
		}
		fmt.Fprintf(&sb, "%d:%c ", a.table.base+int64(pi), form)
	}
	return sb.String()
}

// TestSparsePagesSnapshotAndReplay: a cell whose drained ID ranges went
// sparse survives Snapshot → Restore and the delta log's replay with the
// source's fingerprint, chain and page forms, and both copies pass the
// slow-path audit.
func TestSparsePagesSnapshotAndReplay(t *testing.T) {
	src, err := New(Config{N: 64, Alg: "greedy:2", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	var live []int64
	step := func(release, arrive int) {
		for i := 0; i < release; i++ { // uniform picks, like serve-heavy's clients
			x := r.Intn(len(live))
			live[i], live[x] = live[x], live[i]
		}
		if got := src.Release(live[:release]); got != release {
			t.Fatalf("released %d of %d", got, release)
		}
		live = live[release:]
		rep, err := src.Allocate(arrive)
		if err != nil {
			t.Fatal(err)
		}
		live = rep.AppendIDs(live)
	}
	check := func(stage string, got *Allocator) {
		t.Helper()
		if g, w := got.Fingerprint(), src.Fingerprint(); g != w {
			t.Fatalf("%s: fingerprint %s, source %s", stage, g, w)
		}
		if g, w := got.ChainFingerprint(), src.ChainFingerprint(); g != w {
			t.Fatalf("%s: chain %s, source %s", stage, g, w)
		}
		if _, err := got.VerifyFingerprint(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if g, w := pageForms(got), pageForms(src); g != w {
			t.Fatalf("%s: page forms\n %s\nsource\n %s", stage, g, w)
		}
	}

	step(0, 3*pageSize)
	for i := 0; i < 40; i++ {
		step(4000, 4000)
	}
	if !strings.Contains(pageForms(src), "s") {
		t.Fatalf("no page went sparse: %s", pageForms(src))
	}
	snap, err := src.SnapshotAndLog()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := snap.Restore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	check("restore", dst)

	// The logged churn drains further pages, recompacts sparse ones and
	// frees the oldest.
	before := pageForms(src)
	for i := 0; i < 30; i++ {
		step(4000, 4000)
	}
	if pageForms(src) == before {
		t.Fatal("logged churn changed no page form")
	}
	log, _, err := src.CutDeltaLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDeltaLog(log); err != nil {
		t.Fatal(err)
	}
	check("replay", dst)
	again, err := src.Snapshot().Restore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	check("second restore", again)
}

// FuzzIDTable checks the paged ID table against a map reference, comparing
// every get and release result, the live and placed counts, and the
// ascending order of forEachPlaced, with the table's audit after every
// operation. The operations take pages through every stage — issued
// dense, drained sparse, recompacted, freed — and release never-issued,
// duplicate and already-departed IDs, including inside sparse pages.
func FuzzIDTable(f *testing.F) {
	f.Add(uint64(1), []byte{0xf8, 0xf8, 0x19, 0x02, 0x03, 0x0c, 0x1a, 0x04, 0x05, 0x06})
	f.Add(uint64(7), []byte{0xf8, 0x79, 0x03, 0x0b, 0x02, 0x02, 0x02, 0x04, 0x0d, 0x03, 0x06})
	f.Add(uint64(3), []byte{0xf8, 0xf8, 0xf8, 0x03, 0x0b, 0x13, 0x01, 0x02, 0x12, 0x05, 0x1d, 0x04})
	f.Add(uint64(9), []byte{0x40, 0x03, 0xf8, 0x02, 0x0b, 0x3b, 0x05, 0x04})
	// A full page of pending balls drained to 31, so the page goes sparse
	// holding pending entries; then placed, read and released.
	f.Add(uint64(5), []byte{0xf8, 0xfb, 0x81, 0x06, 0x0c, 0x02})
	// The watermark crosses the end of a page already drained to 522
	// live, so the page goes sparse as it is issued.
	f.Add(uint64(2), []byte{0xf0, 0x53, 0x08, 0x06, 0x81, 0x02, 0x04, 0x0b})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		var tb idTable
		ref := make(map[int64]int32) // live ids: bin, or slotPending
		placed := int64(0)
		r := rng.New(seed)
		release := func(id int64) {
			prev, ok := tb.release(id)
			want, live := ref[id]
			if !live {
				want = slotEmpty
			}
			if prev != want || ok != live {
				t.Fatalf("release(%d) = (%d, %v), reference (%d, %v)", id, prev, ok, want, live)
			}
			if live {
				delete(ref, id)
				if want >= 0 {
					placed--
				}
			}
		}
		// page picks an issued page: its first ID, or -1 before any issue.
		page := func() int64 {
			if tb.nextID == 0 {
				return -1
			}
			return int64(r.Intn(int((tb.nextID-1)>>pageBits)+1)) << pageBits
		}
		for i, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0: // issue up to a page of fresh IDs
				from := tb.nextID
				ids := tb.issue(nil, (arg+1)*512)
				for k, id := range ids {
					if id != from+int64(k) {
						t.Fatalf("issue granted %d at position %d, want %d", id, k, from+int64(k))
					}
					ref[id] = slotPending
				}
			case 1: // place a share of the pending balls, in ID order
				for id := int64(0); id < tb.nextID; id++ {
					if ref[id] == slotPending && r.Intn(32) <= arg {
						bin := int32(r.Intn(64))
						tb.place(id, bin)
						ref[id] = bin
						placed++
					}
				}
			case 2, 7: // depart a share of one page's live balls
				if start := page(); start >= 0 {
					for id := start; id < start+pageSize; id++ {
						if _, ok := ref[id]; ok && r.Intn(32) <= arg {
							release(id)
						}
					}
				}
			case 3: // depart all but arg of one page's live balls
				if start := page(); start >= 0 {
					keep := arg
					for id := start; id < start+pageSize; id++ {
						if _, ok := ref[id]; ok {
							if keep > 0 {
								keep--
							} else {
								release(id)
							}
						}
					}
				}
			case 4: // junk: never issued, negative, departed, and duplicates
				release(-1 - int64(arg))
				release(tb.nextID + int64(arg))
				release(tb.nextID | pageMask)
				if start := page(); start >= 0 {
					for k := 0; k <= arg; k++ {
						id := start + int64(r.Intn(pageSize))
						release(id)
						release(id)
					}
				}
			case 5: // a scattered batch over the issued range, duplicates allowed
				if tb.nextID > 0 {
					for k := 0; k <= arg*8; k++ {
						release(int64(r.Intn(int(tb.nextID))))
					}
				}
			case 6: // read one page and its neighbors back
				if start := page(); start >= 0 {
					for id := start - pageSize; id < start+2*pageSize; id++ {
						want, ok := ref[id]
						if !ok {
							want = slotEmpty
						}
						if got := tb.get(id); got != want {
							t.Fatalf("op %d: get(%d) = %d, reference %d", i, id, got, want)
						}
					}
				}
			}
			if tb.live != int64(len(ref)) || tb.placed != placed {
				t.Fatalf("op %d: table counts live=%d placed=%d, reference %d and %d", i, tb.live, tb.placed, len(ref), placed)
			}
			if err := tb.audit(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		want := make([]Placement, 0, placed)
		for id, bin := range ref {
			if bin >= 0 {
				want = append(want, Placement{ID: id, Bin: bin})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		var got []Placement
		tb.forEachPlaced(func(id int64, bin int32) {
			got = append(got, Placement{ID: id, Bin: bin})
		})
		if len(got) != len(want) {
			t.Fatalf("forEachPlaced yields %d placements, reference %d", len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("forEachPlaced entry %d is %+v, reference %+v", k, got[k], want[k])
			}
		}
		if fp := tb.footprint(); fp < 0 {
			t.Fatalf("negative footprint %d", fp)
		}
	})
}
