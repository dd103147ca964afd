package online

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// This file holds the allocator's two O(1) hot-path structures:
//
//   - idTable, a paged id→bin table replacing the placed hash map. Ball
//     IDs are consecutive grants from one watermark (nextID), so the id
//     space is a dense prefix of the integers and churn retires it from
//     the left. The table splits it into pages of 2^14 IDs, each in one of
//     two forms:
//       - dense: a flat entry array indexed by offset. Lookup is plain
//         indexing, one dependent load.
//       - sparse: a 2 KiB presence bitmap, a 512 B array counting the bits
//         set before each 64-bit word, and a compact entry array in offset
//         order. Lookup reads one bitmap word and one count, adds a
//         popcount and makes one indexed load, with no search. A departed
//         ball's slot reads slotEmpty until the page recompacts, once half
//         its slots are dead.
//     A page is sparse exactly when all its IDs have been issued and at
//     most an eighth of them are live (settle). Random release drains a
//     page slowly; kept dense, it would hold all 64 KiB while any one ball
//     lived, and memory would track the balls churned rather than the
//     balls live. There is no way back to dense: admissions land at or
//     past the watermark, never in a fully issued page. The rule reads
//     the state alone, so a restored table takes the live table's forms.
//     A page whose last ball departs is freed. Freed pages and the dense
//     arrays of pages gone sparse are reused whole, so steady churn
//     allocates no dense page memory; only a sparse page's entry array is
//     sized, and resized, to its live balls. Lookup, admit, place and
//     release are O(1) with no hashing, and iteration is in ascending ID
//     order in both forms, which is what lets the full-state fingerprint
//     drop its O(live·log live) sort.
//
//   - loadHist, a bin-count-per-load histogram that maintains the load
//     extremes incrementally: every placement/release moves one bin by ±1,
//     so min/max maintenance is amortized O(1) and Stats no longer scans
//     all n bins per epoch.

const (
	// pageBits sizes one table page at 2^14 ids (64 KiB of dense entries):
	// small enough that a mostly-retired range frees promptly, large
	// enough that the page directory stays tiny (8 bytes per 16384 ids).
	pageBits  = 14
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	pageWords = pageSize / 64 // presence-bitmap words of a sparse page

	// sparseLimit is the live count at or below which a fully issued page
	// takes the sparse form: an eighth of the page. A sparse page then
	// holds at most ~2.6 KiB of index and 8 KiB of entries, against 64 KiB
	// dense.
	sparseLimit = pageSize / 8
)

// Entry sentinels. Non-negative entries are the ball's bin.
const (
	slotEmpty   int32 = -1 // never issued, or departed
	slotPending int32 = -2 // live but unplaced (parked in Allocator.pending)
)

// idPage is one 2^14-id range of the table, in one of two forms.
type idPage struct {
	// bins is the dense form: the entry of every offset. Nil while the
	// page is sparse.
	bins *[pageSize]int32
	// The sparse form: offset off owns a slot iff bit off of has is set,
	// and its entry is slots[before[off/64] + the bits of has[off/64]
	// below off]. A departed ball keeps its slot, reading slotEmpty, until
	// the page recompacts.
	has    [pageWords]uint64
	before [pageWords]uint16
	slots  []int32
	live   int32 // entries that are placed or pending
	dead   int32 // sparse: slots whose ball departed
}

// Byte costs behind idTable.bytes.
const (
	pageHeaderBytes = int64(unsafe.Sizeof(idPage{}))
	pageBinsBytes   = pageSize * 4
)

// size returns the bytes pg holds.
func (pg *idPage) size() int64 {
	n := pageHeaderBytes + int64(cap(pg.slots))*4
	if pg.bins != nil {
		n += pageBinsBytes
	}
	return n
}

// entry returns the cell holding id's entry (id must fall in pg), or nil
// when the sparse page has no slot for it: the ball departed before the
// page went sparse or was compacted away.
func (pg *idPage) entry(id int64) *int32 {
	off := id & pageMask
	if pg.bins != nil {
		return &pg.bins[off]
	}
	w, bit := off>>6, uint64(1)<<(off&63)
	word := pg.has[w]
	if word&bit == 0 {
		return nil
	}
	return &pg.slots[int(pg.before[w])+bits.OnesCount64(word&(bit-1))]
}

// idTable maps ball IDs to bins without hashing. pages[i] covers ids
// [(base+i)<<pageBits, (base+i+1)<<pageBits); a nil entry is a fully
// retired (or never-touched) range. Pages whose last live ball departs are
// returned to a small spare list and reused for new ID ranges, as are the
// dense arrays of pages that went sparse; fully retired leading ranges
// also advance base, keeping the directory proportional to the live ID
// span.
type idTable struct {
	base   int64 // page index of pages[0]
	pages  []*idPage
	nextID int64 // the ID watermark: every id below it has been issued
	placed int64 // entries >= 0
	live   int64 // entries != slotEmpty (placed + pending)
	// bytes is the page memory the table holds, resident and spare,
	// updated wherever a page is allocated, changes form or is dropped;
	// footprint adds the directory.
	bytes     int64
	spare     []*idPage          // freed pages kept for reuse (bounded)
	spareBins []*[pageSize]int32 // dense arrays of pages gone sparse (bounded)
}

// maxSparePages bounds each of the two reuse caches; beyond it memory goes
// to the GC.
const maxSparePages = 4

// lookup returns the resident page covering id and its directory index,
// or nil.
func (t *idTable) lookup(id int64) (*idPage, int64) {
	if id < 0 {
		return nil, 0
	}
	pi := (id >> pageBits) - t.base
	if pi < 0 || pi >= int64(len(t.pages)) {
		return nil, 0
	}
	return t.pages[pi], pi
}

// get returns the entry for id (slotEmpty for ids outside the table).
func (t *idTable) get(id int64) int32 {
	if pg, _ := t.lookup(id); pg != nil {
		if e := pg.entry(id); e != nil {
			return *e
		}
	}
	return slotEmpty
}

// gather reads the entry of every id and reports whether any is pending.
// The reads do not depend on one another, so their cache misses overlap;
// Allocator.release runs this pass before its mutating loop, which then
// finds each entry cached. Its answer is used, which keeps the loads from
// being optimized away, and it spells out get's lookup so that the loop
// body inlines with no call.
func (t *idTable) gather(ids []int64) (anyPending bool) {
	for _, id := range ids {
		if pg, _ := t.lookup(id); pg != nil {
			if e := pg.entry(id); e != nil && *e == slotPending {
				anyPending = true
			}
		}
	}
	return anyPending
}

// page returns the page covering id, materializing it (dense) if needed.
func (t *idTable) page(id int64) *idPage {
	pi := (id >> pageBits) - t.base
	if pi < 0 {
		// The watermark page was fully drained and trimmed, and a fresh id
		// lands in it again: re-extend the directory downward. Only the
		// newest retired range can overlap the monotone ID watermark, so
		// the shift is small; a churn that releases every ball does it
		// every epoch, so it reuses the directory's capacity (free keeps
		// it).
		shift, n := int(-pi), len(t.pages)
		t.pages = slices.Grow(t.pages, shift)[:n+shift]
		copy(t.pages[shift:], t.pages[:n])
		clear(t.pages[:shift])
		t.base -= int64(shift)
		pi = 0
	}
	for pi >= int64(len(t.pages)) {
		t.pages = append(t.pages, nil)
	}
	pg := t.pages[pi]
	if pg == nil {
		pg = t.newPage()
		t.pages[pi] = pg
	}
	return pg
}

// newPage returns an empty dense page, reusing a spare page and a spare
// dense array when there are any. Spare memory was released with every
// entry back at slotEmpty, so it needs no reinitialization.
func (t *idTable) newPage() *idPage {
	var pg *idPage
	if n := len(t.spare); n > 0 {
		pg = t.spare[n-1]
		t.spare[n-1] = nil
		t.spare = t.spare[:n-1]
	} else {
		pg = new(idPage)
		t.bytes += pageHeaderBytes
	}
	if pg.bins != nil {
		return pg
	}
	if n := len(t.spareBins); n > 0 {
		pg.bins = t.spareBins[n-1]
		t.spareBins[n-1] = nil
		t.spareBins = t.spareBins[:n-1]
		return pg
	}
	pg.bins = new([pageSize]int32)
	for i := range pg.bins {
		pg.bins[i] = slotEmpty
	}
	t.bytes += pageBinsBytes
	return pg
}

// admit marks id as live-but-unplaced. It reports false when the entry is
// already live (used by snapshot restore to reject duplicates; the
// allocator itself only admits fresh monotone ids).
func (t *idTable) admit(id int64) bool {
	pg := t.page(id)
	if pg.bins == nil {
		// Only fully issued pages go sparse, and fresh IDs come from at or
		// past the watermark.
		panic(fmt.Sprintf("online: admitting id %d into a sparse page", id))
	}
	if pg.bins[id&pageMask] != slotEmpty {
		return false
	}
	pg.bins[id&pageMask] = slotPending
	pg.live++
	t.live++
	return true
}

// issue admits the k IDs from the watermark on, appends them to ids and
// advances the watermark. A page the watermark moves past is fully issued
// from then on, so it settles.
func (t *idTable) issue(ids []int64, k int) []int64 {
	from := t.nextID
	for i := 0; i < k; i++ {
		t.admit(t.nextID)
		ids = append(ids, t.nextID)
		t.nextID++
	}
	for start := from &^ pageMask; start+pageSize <= t.nextID; start += pageSize {
		t.settle(start)
	}
	return ids
}

// place moves a pending id into bin. The id must be pending.
func (t *idTable) place(id int64, bin int32) {
	*t.pages[(id>>pageBits)-t.base].entry(id) = bin
	t.placed++
}

// release departs id. It returns the entry's previous value and whether
// the id was live (placed or pending); releasing an empty/unknown id is a
// no-op. A page left at most sparseLimit live changes form or frees.
func (t *idTable) release(id int64) (prev int32, wasLive bool) {
	pg, pi := t.lookup(id)
	if pg == nil {
		return slotEmpty, false
	}
	e := pg.entry(id)
	if e == nil || *e == slotEmpty {
		return slotEmpty, false
	}
	prev = *e
	*e = slotEmpty
	pg.live--
	t.live--
	if prev >= 0 {
		t.placed--
	}
	if pg.live <= sparseLimit {
		t.drained(pi, id)
	}
	return prev, true
}

// drained follows a departure from page pi (covering id) that left at
// most sparseLimit live: an empty page is freed, a sparse page recompacts
// once half its slots are dead, and a dense page settles.
func (t *idTable) drained(pi, id int64) {
	pg := t.pages[pi]
	switch {
	case pg.live == 0:
		t.free(pi)
	case pg.bins == nil:
		pg.dead++
		if pg.dead >= pg.live {
			t.recompact(pg)
		}
	default:
		t.settle(id)
	}
}

// settle gives the page covering id the form the table's rule asks for:
// sparse exactly when every ID in it has been issued and at most
// sparseLimit are live. It converts a dense page that qualifies, moving
// the live entries to slots in offset order and its dense array to the
// spare cache; any other page is left as it is.
func (t *idTable) settle(id int64) {
	pg, _ := t.lookup(id)
	issued := id|pageMask < t.nextID // the page's last ID is below the watermark
	if pg == nil || pg.bins == nil || pg.live > sparseLimit || !issued {
		return
	}
	slots := pg.slots[:0]
	if cap(slots) < int(pg.live) {
		t.bytes += int64(int(pg.live)-cap(slots)) * 4
		slots = make([]int32, 0, pg.live)
	}
	for w := range pg.has {
		pg.before[w] = uint16(len(slots))
		var word uint64
		for b, v := range pg.bins[w<<6 : w<<6+64] {
			if v != slotEmpty {
				word |= 1 << b
				slots = append(slots, v)
				pg.bins[w<<6+b] = slotEmpty
			}
		}
		pg.has[w] = word
	}
	pg.slots = slots
	pg.dead = 0
	if len(t.spareBins) < maxSparePages {
		t.spareBins = append(t.spareBins, pg.bins)
	} else {
		t.bytes -= pageBinsBytes
	}
	pg.bins = nil
}

// settleAll settles every resident page.
func (t *idTable) settleAll() {
	for pi := range t.pages {
		t.settle((t.base + int64(pi)) << pageBits)
	}
}

// recompact drops a sparse page's dead slots. Once the page holds under a
// quarter of its slot array's capacity, the entries move to an array of
// their own size, so the page's memory keeps following its live balls.
func (t *idTable) recompact(pg *idPage) {
	n := 0
	for w, word := range pg.has {
		s := int(pg.before[w])
		pg.before[w] = uint16(n)
		var keep uint64
		for ; word != 0; word &= word - 1 {
			if v := pg.slots[s]; v != slotEmpty {
				keep |= word & -word
				pg.slots[n] = v
				n++
			}
			s++
		}
		pg.has[w] = keep
	}
	pg.slots = pg.slots[:n]
	pg.dead = 0
	if c := cap(pg.slots); c >= 4*n {
		t.bytes -= int64(c-n) * 4
		pg.slots = append(make([]int32, 0, n), pg.slots...)
	}
}

// free reclaims the (fully retired) page at directory index pi and trims
// the directory: leading nil pages advance base, trailing nils shrink it.
// The survivors are copied down rather than sliced off the front, so the
// directory keeps its capacity for page to re-extend it in place.
func (t *idTable) free(pi int64) {
	pg := t.pages[pi]
	t.pages[pi] = nil
	pg.slots = pg.slots[:0]
	pg.dead = 0
	if len(t.spare) < maxSparePages {
		t.spare = append(t.spare, pg)
	} else {
		t.bytes -= pg.size()
	}
	lead := 0
	for lead < len(t.pages) && t.pages[lead] == nil {
		lead++
	}
	if lead > 0 {
		n := copy(t.pages, t.pages[lead:])
		clear(t.pages[n:])
		t.pages = t.pages[:n]
		t.base += int64(lead)
	}
	for len(t.pages) > 0 && t.pages[len(t.pages)-1] == nil {
		t.pages = t.pages[:len(t.pages)-1]
	}
}

// forEachPlaced calls fn for every placed (id, bin) entry in ascending ID
// order — the iteration order the full-state fingerprint hashes, with no
// sort needed.
func (t *idTable) forEachPlaced(fn func(id int64, bin int32)) {
	for pi, pg := range t.pages {
		if pg == nil {
			continue
		}
		idBase := (t.base + int64(pi)) << pageBits
		if pg.bins != nil {
			for k, v := range pg.bins {
				if v >= 0 {
					fn(idBase+int64(k), v)
				}
			}
			continue
		}
		for w, word := range pg.has {
			s := int(pg.before[w])
			for ; word != 0; word &= word - 1 {
				if v := pg.slots[s]; v >= 0 {
					fn(idBase+int64(w<<6+bits.TrailingZeros64(word)), v)
				}
				s++
			}
		}
	}
}

// footprint returns the table's resident bytes: the running page count
// plus the directory. It is O(1), so the per-cell gauge reads it on every
// event.
func (t *idTable) footprint() int64 {
	return t.bytes + int64(cap(t.pages))*8
}

// audit recounts every resident page from its entries and checks the
// structure the fast paths rely on: the page and table counts, each
// sparse page's index, the form rule (sparse exactly when fully issued
// and at most sparseLimit live) and the running byte count.
// VerifyFingerprint runs it.
func (t *idTable) audit() error {
	var live, placed int64
	bytes := int64(len(t.spareBins)) * pageBinsBytes
	for _, pg := range t.spare {
		bytes += pg.size()
	}
	for pi, pg := range t.pages {
		if pg == nil {
			continue
		}
		bytes += pg.size()
		start := (t.base + int64(pi)) << pageBits
		var n, dead int32
		count := func(v int32) {
			switch {
			case v == slotEmpty:
				dead++
			case v >= 0:
				placed++
				fallthrough
			default:
				n++
			}
		}
		if pg.bins != nil {
			for _, v := range pg.bins {
				count(v)
			}
			dead = 0
		} else {
			slots := 0
			for w, word := range pg.has {
				if int(pg.before[w]) != slots {
					return fmt.Errorf("online: sparse page at id %d counts %d slots before word %d, bitmap has %d",
						start, pg.before[w], w, slots)
				}
				slots += bits.OnesCount64(word)
			}
			if slots != len(pg.slots) {
				return fmt.Errorf("online: sparse page at id %d has %d bitmap bits but %d slots", start, slots, len(pg.slots))
			}
			for _, v := range pg.slots {
				count(v)
			}
		}
		live += int64(n)
		if n == 0 || n != pg.live || dead != pg.dead {
			return fmt.Errorf("online: page at id %d holds %d live and %d dead entries, counts say %d and %d",
				start, n, dead, pg.live, pg.dead)
		}
		if sparse, want := pg.bins == nil, start+pageSize <= t.nextID && n <= sparseLimit; sparse != want {
			return fmt.Errorf("online: page at id %d is sparse=%v with %d live and watermark %d", start, sparse, n, t.nextID)
		}
	}
	if live != t.live || placed != t.placed {
		return fmt.Errorf("online: table counts %d live and %d placed, pages hold %d and %d", t.live, t.placed, live, placed)
	}
	if bytes != t.bytes {
		return fmt.Errorf("online: table counts %d page bytes, its pages hold %d", t.bytes, bytes)
	}
	return nil
}

// loadHist tracks how many bins sit at each load value, plus the running
// extremes. Placements and releases move one bin by exactly ±1, so the
// incremental updates are amortized O(1): every retreat of max (or advance
// of min) over an empty count is paid for by the ±1 step that created the
// gap.
type loadHist struct {
	counts []int64 // counts[l] = number of bins with load l
	min    int64
	max    int64
}

// init resets the histogram to n bins at load 0.
func (h *loadHist) init(n int) {
	if cap(h.counts) < 1 {
		h.counts = make([]int64, 1, 16)
	}
	h.counts = h.counts[:1]
	h.counts[0] = int64(n)
	h.min, h.max = 0, 0
}

// inc records one bin moving from load `from` to from+1.
func (h *loadHist) inc(from int64) {
	to := from + 1
	if int64(len(h.counts)) <= to {
		h.counts = append(h.counts, 0)
	}
	h.counts[from]--
	h.counts[to]++
	if to > h.max {
		h.max = to
	}
	if from == h.min && h.counts[from] == 0 {
		for h.counts[h.min] == 0 {
			h.min++
		}
	}
}

// dec records one bin moving from load `from` (>= 1) to from-1.
func (h *loadHist) dec(from int64) {
	to := from - 1
	h.counts[from]--
	h.counts[to]++
	if to < h.min {
		h.min = to
	}
	if from == h.max && h.counts[from] == 0 {
		for h.max > 0 && h.counts[h.max] == 0 {
			h.max--
		}
	}
}
