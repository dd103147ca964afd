package sim

// scratch is the per-run arena of the agent engine: every slice a round
// needs is allocated once, grown to the high-water mark, and reused, so
// the steady state allocates (almost) nothing per round. One arena serves
// one run; workers index into disjoint per-worker sub-buffers. Rounds read
// the worker shards in place, and a single-request round writes no accept
// at all, because its step-2 workers commit what the bins accept. Only
// flush rounds (held plus fresh requests) and small rounds that span
// several gather shards join their request shards, into buffers sized to
// exactly their sum. A round in which a ball may hold several accepts
// answers into ascending windows of one buffer, so commit joins them in
// place and such a round holds the same bytes at any worker count. Buffers
// are sized before a step writes them — a gather shard for one request per
// ball, a window for every request in its bin range — so a degree-1 round
// grows no buffer by doubling.
//
// A large single-request round that answers only its fresh requests copies
// none of them: each gather worker counts its own requests into its own
// histogram (hists), the bin pass turns the histograms into each shard's
// first rank in every bin, and each request commits or stays at its gather
// position by its rank. Every other round counting-sorts its requests into
// byBin, with the one n+2 entry counts array (groupByBin).
type scratch struct {
	workers   int
	targetBuf [][]int       // per-worker Protocol.Targets buffer
	reqShards [][]request   // per-worker step-1 output
	hists     [][]int32     // per-gather-shard request counts by bin, then rank cursors
	flush     []request     // held+fresh working set on flush rounds; joined small rounds
	flushPart [1][]request  // flush as the round's only part
	counts    []int32       // n+2 counting-sort offsets and scatter cursors; in-place accepted counts
	byBin     []int32       // request ball indices grouped by bin
	acc       []acceptRec   // multi-request round's accepts, one slot per request
	accWin    [][]acceptRec // multi-request round's step-2 output: windows of acc
	accBuf    []Accept      // commitByBall's buffer of one ball's accepts
	tallies   []binTally    // per-worker step-2 commit totals
	runBuf    []int32       // small-round per-bin ball-index buffer
	gatherMax []int         // per-worker max requests one ball sent this round
	sentMax   []int32       // per-worker max requests one ball has sent in the run
	balls     []workerBall  // per-worker ball of a fresh round 0
	survivors []int         // per-chunk survivors of a fresh round 0, then first slots
}

// workerBall is a gather worker's own Ball, padded so that no two
// workers' balls share a cache line.
type workerBall struct {
	Ball
	_ [128 - 48]byte
}

func newScratch(workers, n int) *scratch {
	s := &scratch{
		workers:   workers,
		targetBuf: make([][]int, workers),
		reqShards: make([][]request, workers),
		hists:     make([][]int32, workers),
		counts:    make([]int32, n+2),
		accWin:    make([][]acceptRec, workers),
		accBuf:    make([]Accept, 0, 8),
		tallies:   make([]binTally, workers),
		gatherMax: make([]int, workers),
		sentMax:   make([]int32, workers),
		balls:     make([]workerBall, workers),
		survivors: make([]int, workers),
	}
	for wi := 0; wi < workers; wi++ {
		s.targetBuf[wi] = make([]int, 0, 8)
	}
	return s
}

// ensureBins grows the bin-indexed buffers to cover n bins, so one scratch
// (reused across arena runs) can serve engines of varying bin counts.
func (s *scratch) ensureBins(n int) {
	if len(s.counts) < n+2 {
		s.counts = make([]int32, n+2)
	}
}

// joinFlush joins held and the fresh request shards into s.flush and
// returns it as the round's only part, valid until the next call.
func (s *scratch) joinFlush(held []request, fresh [][]request) [][]request {
	s.flush = join(s.flush, held, fresh)
	s.flushPart[0] = s.flush
	return s.flushPart[:]
}

// groupByBin counting-sorts requests, given as parts in arrival order, by
// destination bin into the arena's reusable buffers. It returns the
// scattered ball indices and per-bin offsets such that bin b's requests
// are byBin[offsets[b]:offsets[b+1]], in arrival order; both slices are
// valid until the next call. The offsets array doubles as the scatter
// cursors: counts[b+1] starts at bin b's first slot and ends at bin b+1's.
func (s *scratch) groupByBin(parts [][]request, n int) (byBin []int32, offsets []int32) {
	counts := s.counts[:n+2]
	clear(counts)
	total := 0
	for _, reqs := range parts {
		total += len(reqs)
		for _, r := range reqs {
			counts[r.bin+2]++
		}
	}
	for i := 2; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	s.byBin = grow(s.byBin, total)
	byBin = s.byBin
	for _, reqs := range parts {
		for _, r := range reqs {
			byBin[counts[r.bin+1]] = r.ball
			counts[r.bin+1]++
		}
	}
	return byBin, counts[:n+1]
}
