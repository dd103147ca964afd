package sim

// scratch is the per-run arena of the agent engine: every slice a round
// needs is allocated once, grown to the high-water mark, and reused, so
// the steady state allocates (almost) nothing per round. One arena serves
// one run; workers index into disjoint per-worker sub-buffers. Buffers
// are sized before a step writes them — a gather shard for one request
// per ball, an accept shard for every request in its bin range, a
// concatenation for the sum of its shards — so a degree-1 round grows no
// buffer by doubling.
type scratch struct {
	workers   int
	targetBuf [][]int       // per-worker Protocol.Targets buffer
	reqShards [][]request   // per-worker step-1 output
	reqs      []request     // this round's fresh requests, concatenated
	flush     []request     // held+fresh working set on flush rounds
	counts    []int32       // n+1 counting-sort offsets
	cursor    []int32       // n scatter cursors
	byBin     []int32       // request ball indices scattered by bin
	accShards [][]acceptRec // per-worker step-2 output
	accepts   []acceptRec   // concatenated accepts
	accBuf    []Accept      // step-3 Choose buffer
	runBuf    []int32       // small-round per-bin ball-index buffer
	gatherMax []int         // per-worker max requests one ball sent this round
}

func newScratch(workers, n int) *scratch {
	s := &scratch{
		workers:   workers,
		targetBuf: make([][]int, workers),
		reqShards: make([][]request, workers),
		counts:    make([]int32, n+1),
		cursor:    make([]int32, n),
		accShards: make([][]acceptRec, workers),
		accBuf:    make([]Accept, 0, 8),
		gatherMax: make([]int, workers),
	}
	for wi := 0; wi < workers; wi++ {
		s.targetBuf[wi] = make([]int, 0, 8)
	}
	return s
}

// ensureBins grows the bin-indexed buffers to cover n bins, so one scratch
// (reused across arena runs) can serve engines of varying bin counts.
func (s *scratch) ensureBins(n int) {
	if len(s.counts) < n+1 {
		s.counts = make([]int32, n+1)
		s.cursor = make([]int32, n)
	}
}

// groupByBin counting-sorts requests by destination bin into the arena's
// reusable buffers. It returns the scattered ball indices and per-bin
// offsets such that bin b's requests are byBin[offsets[b]:offsets[b+1]];
// both slices are valid until the next call.
func (s *scratch) groupByBin(reqs []request, n int) (byBin []int32, offsets []int32) {
	counts := s.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, r := range reqs {
		counts[r.bin+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	offsets = counts
	s.byBin = grow(s.byBin, len(reqs))
	byBin = s.byBin
	cursor := s.cursor[:n]
	copy(cursor, offsets[:n])
	for _, r := range reqs {
		byBin[cursor[r.bin]] = r.ball
		cursor[r.bin]++
	}
	return byBin, offsets
}
