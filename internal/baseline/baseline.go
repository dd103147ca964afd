// Package baseline implements the comparison algorithms the paper measures
// Aheavy against:
//
//   - OneShot: the naive single-choice random allocation, excess load
//     Θ(sqrt((m/n)·log n)) for m ≥ n·log n (E5);
//   - Greedy: the sequential d-choice process of Azar et al.; for d = 2 in
//     the heavily loaded case the excess is O(log log n), independent of m
//     (Berenbrink et al., E6);
//   - Batched: the semi-parallel d-choice process ([BCE+12]-style), in
//     which balls arrive in batches and each batch runs one parallel
//     2-choice round against a stale load snapshot;
//   - FixedThreshold: the naive parallel threshold algorithm of Section 1.1
//     (constant per-bin cap), which needs Ω(log n) rounds (E11);
//   - Deterministic: the trivial n-round algorithm (balls probe all bins in
//     arbitrary per-ball orders, bins cap at ceil(m/n)), which guarantees a
//     perfectly balanced allocation deterministically (E15, and the paper's
//     "note on success probability").
package baseline

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// Config carries run-level knobs shared by the baselines.
type Config struct {
	Seed    uint64
	Workers int
	Trace   bool
}

// OneShot allocates every ball to one uniform bin in a single round, with
// no communication back. The per-bin counts are an exact multinomial
// sample, generated with the O(n) conditional-binomial chain, so arbitrary
// m is cheap.
func OneShot(p model.Problem, cfg Config) (*model.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res := new(model.Result)
	OneShotInto(p, rng.New(cfg.Seed), make([]int64, p.N), res)
	return res, nil
}

// OneShotInto is OneShot for a valid p, drawing from r into caller-owned
// storage: loads (length p.N, overwritten) becomes res.Loads, and every
// field of res is overwritten. The online allocator's mass epochs reuse
// one set of these buffers across epochs.
func OneShotInto(p model.Problem, r *rng.Rand, loads []int64, res *model.Result) {
	r.Multinomial(p.M, loads)
	rounds := 0
	if p.M > 0 {
		rounds = 1
	}
	var maxRecv int64
	for _, l := range loads {
		if l > maxRecv {
			maxRecv = l
		}
	}
	*res = model.Result{
		Problem: p,
		Loads:   loads,
		Rounds:  rounds,
		Metrics: model.Metrics{
			TotalMessages:  p.M,
			BallRequests:   p.M,
			MaxBallSent:    min(1, p.M),
			MaxBinReceived: maxRecv,
		},
	}
}

// Greedy runs the sequential d-choice process: balls arrive one by one,
// each samples d bins uniformly at random and joins the least loaded
// (ties broken by first sample order). d = 1 reproduces OneShot's
// distribution; d = 2 is the classic two-choice process whose heavily
// loaded excess is O(log log n) (Berenbrink et al. 2006).
func Greedy(p model.Problem, d int, cfg Config) (*model.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d < 1 {
		return nil, fmt.Errorf("baseline: Greedy requires d >= 1, got %d", d)
	}
	r := rng.New(cfg.Seed)
	loads := make([]int64, p.N)
	for i := int64(0); i < p.M; i++ {
		best := r.Intn(p.N)
		for j := 1; j < d; j++ {
			c := r.Intn(p.N)
			if loads[c] < loads[best] {
				best = c
			}
		}
		loads[best]++
	}
	return &model.Result{
		Problem: p,
		Loads:   loads,
		Rounds:  int(p.M), // sequential: one "round" per ball
		Metrics: model.Metrics{
			TotalMessages: p.M * int64(d),
			BallRequests:  p.M * int64(d),
			MaxBallSent:   int64(d),
		},
	}, nil
}

// batchScratch is Batched's reusable workspace: the per-batch load
// snapshot, one accumulation slab per worker, and the worker RNG
// streams (re-derived in place per call, bit-identical to SplitN).
// Pooled because a sweep calls Batched once per seed and each call runs
// m/batch rounds — without reuse that is O(n·workers) garbage per round
// (the bulk of E6's allocation churn next to aheavy's pooled epochs).
type batchScratch struct {
	snapshot []int64
	locals   [][]int32
	streams  []rng.Rand
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// size (re)fits the arena to n bins and workers slabs. Only loads stays
// off the arena: it escapes through Result.Loads.
func (sc *batchScratch) size(n, workers int) {
	if cap(sc.snapshot) < n {
		sc.snapshot = make([]int64, n)
	}
	sc.snapshot = sc.snapshot[:n]
	if len(sc.streams) < workers {
		sc.streams = make([]rng.Rand, workers)
	}
	for len(sc.locals) < workers {
		sc.locals = append(sc.locals, nil)
	}
	for w := 0; w < workers; w++ {
		if cap(sc.locals[w]) < n {
			sc.locals[w] = make([]int32, n)
		}
		sc.locals[w] = sc.locals[w][:n]
	}
}

// Batched runs the semi-parallel d-choice process: balls arrive in batches
// of size batch; all balls of a batch sample d bins and join the least
// loaded according to the load snapshot taken at the start of the batch
// (so placements within a batch do not see each other). batch = 1
// reproduces Greedy; batch = m is one fully parallel round.
func Batched(p model.Problem, d int, batch int64, cfg Config) (*model.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d < 1 || batch < 1 {
		return nil, fmt.Errorf("baseline: Batched requires d >= 1 and batch >= 1")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.size(p.N, workers)
	root := rng.New(rng.Mix64(cfg.Seed ^ 0x1234_5678_9ABC_DEF0))
	for w := 0; w < workers; w++ {
		root.SplitInto(&sc.streams[w])
	}

	loads := make([]int64, p.N)
	snapshot := sc.snapshot
	rounds := 0
	for placed := int64(0); placed < p.M; {
		b := batch
		if p.M-placed < b {
			b = p.M - placed
		}
		copy(snapshot, loads)
		// Parallel within the batch: each worker places its share against
		// the immutable snapshot, accumulating into its pooled slab.
		var wg sync.WaitGroup
		per := b / int64(workers)
		quotaOf := func(w int) int64 {
			if w == workers-1 {
				return b - per*int64(workers-1)
			}
			return per
		}
		for w := 0; w < workers; w++ {
			quota := quotaOf(w)
			if quota == 0 {
				continue
			}
			wg.Add(1)
			go func(w int, quota int64) {
				defer wg.Done()
				local := sc.locals[w]
				for i := range local {
					local[i] = 0
				}
				r := &sc.streams[w]
				for i := int64(0); i < quota; i++ {
					best := r.Intn(p.N)
					for j := 1; j < d; j++ {
						c := r.Intn(p.N)
						if snapshot[c] < snapshot[best] {
							best = c
						}
					}
					local[best]++
				}
			}(w, quota)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if quotaOf(w) == 0 {
				continue
			}
			for i, v := range sc.locals[w] {
				loads[i] += int64(v)
			}
		}
		placed += b
		rounds++
	}
	return &model.Result{
		Problem: p,
		Loads:   loads,
		Rounds:  rounds,
		Metrics: model.Metrics{
			TotalMessages: p.M * int64(d),
			BallRequests:  p.M * int64(d),
			MaxBallSent:   int64(d),
		},
	}, nil
}

// FixedThreshold runs the naive parallel threshold algorithm of Section
// 1.1: every bin accepts up to T = ceil(m/n) + slack balls in total; every
// unallocated ball contacts one uniform bin per round. The total capacity
// exceeds m, so the algorithm completes — but only after Ω(log n) rounds,
// because a constant fraction of bins fills up immediately and rejected
// balls search blindly.
func FixedThreshold(p model.Problem, slack int64, cfg Config) (*model.Result, error) {
	if slack < 0 {
		return nil, fmt.Errorf("baseline: negative slack %d", slack)
	}
	alg := threshold.Algorithm{
		Degree:   1,
		PhaseLen: 1,
		Policy:   threshold.Fixed(p.CeilAvg() + slack),
	}
	return alg.Run(p, threshold.Config{Seed: cfg.Seed, Workers: cfg.Workers, Trace: cfg.Trace})
}

// FixedThresholdMass is FixedThreshold on the count-based mass engine:
// identical thresholds and round structure over per-bin ball counts, with
// the ball limit lifted to sim.MassMaxBalls. Distributionally equivalent
// to FixedThreshold (balls are exchangeable); not bit-identical, since the
// agent path draws per-ball choices and the mass path draws their exact
// multinomial counts.
func FixedThresholdMass(p model.Problem, slack int64, cfg Config) (*model.Result, error) {
	if slack < 0 {
		return nil, fmt.Errorf("baseline: negative slack %d", slack)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	alg := threshold.Algorithm{
		Degree:   1,
		PhaseLen: 1,
		Policy:   threshold.Fixed(p.CeilAvg() + slack),
	}
	return alg.RunMass(p, threshold.Config{Seed: cfg.Seed, Workers: cfg.Workers, Trace: cfg.Trace})
}

// deterministicProto implements the trivial n-round algorithm: ball i
// probes bins (offset_i, offset_i+1, ...) mod n, one per round, and bins
// accept up to ceil(m/n) balls in total. After n rounds every ball has
// visited every bin; since total capacity n·ceil(m/n) >= m and rejections
// only happen at full bins, all balls are placed.
type deterministicProto struct {
	cap int64
	n   int
}

func (d *deterministicProto) Targets(round int, b *sim.Ball, n int, buf []int) []int {
	return append(buf, int((b.State+int64(round))%int64(n)))
}

func (d *deterministicProto) Hold(int) bool { return false }

func (d *deterministicProto) Capacity(_ int, _ int, load int64) int64 { return d.cap - load }

func (d *deterministicProto) Payload(int, int, int64) int64 { return 0 }

func (d *deterministicProto) Choose(_ int, _ *sim.Ball, _ []sim.Accept) int { return 0 }

func (d *deterministicProto) Place(a sim.Accept) int { return a.From }

func (d *deterministicProto) Done(int, int64) bool { return false }

// Deterministic runs the trivial n-round algorithm. Ball probe orders are
// rotations with per-ball random offsets (any per-ball order works; offsets
// spread the probe load). The allocation is guaranteed complete within n
// rounds with max load exactly ceil(m/n) — no randomness in the guarantee.
func Deterministic(p model.Problem, cfg Config) (*model.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	proto := &deterministicProto{cap: p.CeilAvg(), n: p.N}
	eng := sim.New(p, proto, sim.Config{
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		Trace:     cfg.Trace,
		MaxRounds: p.N + 1,
		InitState: func(b *sim.Ball) { b.State = int64(b.Rand().Intn(p.N)) },
	})
	return eng.Run()
}
