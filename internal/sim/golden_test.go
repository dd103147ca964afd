package sim_test

// Golden fingerprints pin the agent engine's complete output — loads,
// rounds, message metrics, placements and the remaining-ball trace — for
// every commit and process path it has, and the mass engine's output for
// core's and the threshold family's count-based runs. The values were
// recorded before the engine's round loop was last reworked (the mass
// cases before their options became constants); a change to an engine
// that alters any result, at any worker count, fails here.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/asym"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/light"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/threshold"
)

// fingerprint hashes every field of r, in a fixed order.
func fingerprint(r *model.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(r.Problem.M)
	put(int64(r.Problem.N))
	put(int64(r.Rounds))
	put(r.Unallocated)
	m := r.Metrics
	for _, v := range []int64{m.TotalMessages, m.BallRequests, m.BinReplies, m.MaxBallSent, m.MaxBinReceived, m.CommitMessages} {
		put(v)
	}
	put(int64(len(r.Loads)))
	for _, v := range r.Loads {
		put(v)
	}
	put(int64(len(r.TraceRemaining)))
	for _, v := range r.TraceRemaining {
		put(v)
	}
	put(int64(len(r.Placements)))
	for _, v := range r.Placements {
		put(int64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// holdProto collects requests for two rounds and answers them in the
// third, so every third round flushes three rounds' worth of requests and
// a ball can hold several accepts at once.
type holdProto struct{ quota int64 }

func (p holdProto) Targets(_ int, b *sim.Ball, n int, buf []int) []int {
	return append(buf, b.Rand().Intn(n))
}
func (p holdProto) Hold(round int) bool { return round%3 != 2 }
func (p holdProto) Capacity(round, _ int, load int64) int64 {
	return p.quota*int64(round/3+1) - load
}
func (p holdProto) Payload(int, int, int64) int64           { return 0 }
func (p holdProto) Choose(int, *sim.Ball, []sim.Accept) int { return 0 }
func (p holdProto) Place(a sim.Accept) int                  { return a.From }
func (p holdProto) Done(int, int64) bool                    { return false }

type goldenCase struct {
	name string
	run  func(workers int) (*model.Result, error)
	want string
}

var goldenCases = []goldenCase{
	{
		// Rounds far above any fork threshold: 2^16 balls in round 0.
		name: "aheavy",
		run: func(w int) (*model.Result, error) {
			return core.Run(model.Problem{M: 1 << 16, N: 1 << 6}, core.Config{Seed: 3, Workers: w, Trace: true, RecordPlacements: true})
		},
		want: "d6b72a02d6893a26084ef5c0",
	},
	{
		// Two requests per ball: the commit step groups accepts by ball.
		name: "aheavy-degree2",
		run: func(w int) (*model.Result, error) {
			return core.Run(model.Problem{M: 1 << 14, N: 1 << 5}, core.Config{Seed: 5, Workers: w, Trace: true, RecordPlacements: true, Params: core.Params{Degree: 2}})
		},
		want: "d2d2e0479263ced30e4fe322",
	},
	{
		// Held requests flushed every third round.
		name: "hold",
		run: func(w int) (*model.Result, error) {
			return sim.New(model.Problem{M: 1 << 14, N: 1 << 6}, holdProto{quota: 64}, sim.Config{Seed: 7, Workers: w, Trace: true, RecordPlacements: true}).Run()
		},
		want: "af63f55ec3d099cf14c9777a",
	},
	{
		// Place redirects accepts from superbin leaders to member bins.
		name: "asym",
		run: func(w int) (*model.Result, error) {
			return asym.Run(model.Problem{M: 1 << 15, N: 1 << 6}, asym.Config{Seed: 9, Workers: w, Trace: true})
		},
		want: "128f219e67749d5f7483ecd8",
	},
	{
		// Alight: 1, 2, 4, ... targets per ball as rounds go on.
		name: "alight",
		run: func(w int) (*model.Result, error) {
			return light.Run(model.Problem{M: 1 << 13, N: 1 << 13}, light.Config{Seed: 11, Workers: w, Trace: true, RecordPlacements: true})
		},
		want: "794e0570c841a4ff52f96973",
	},
	{
		name: "aheavy-tie-random",
		run: func(w int) (*model.Result, error) {
			return core.Run(model.Problem{M: 1 << 15, N: 1 << 6}, core.Config{Seed: 13, Workers: w, TieBreak: sim.TieRandom, Trace: true, RecordPlacements: true})
		},
		want: "5e625283adbfda3e885b0da7",
	},
	{
		name: "aheavy-tie-high-id",
		run: func(w int) (*model.Result, error) {
			return core.Run(model.Problem{M: 1 << 15, N: 1 << 6}, core.Config{Seed: 15, Workers: w, TieBreak: sim.TieAdversarialHighID, Trace: true, RecordPlacements: true})
		},
		want: "9b8ca07504730bcd7b84f75a",
	},
	{
		// A serving epoch: residual loads, a reused scratch (its second
		// run is the one pinned), and rounds too small to fork.
		name: "aheavy-epoch",
		run: func(w int) (*model.Result, error) {
			const n = 1 << 8
			base := make([]int64, n)
			r := rng.New(17)
			for i := range base {
				base[i] = 900 + int64(r.Intn(200))
			}
			scr := &core.Scratch{}
			cfg := core.Config{Seed: 17, Workers: w, BaseLoads: base, RecordPlacements: true, Trace: true, Scratch: scr}
			if _, err := core.Run(model.Problem{M: 3000, N: n}, cfg); err != nil {
				return nil, err
			}
			cfg.Seed = 19
			return core.Run(model.Problem{M: 2000, N: n}, cfg)
		},
		want: "08b19e2aa70484a4be186e79",
	},
	{
		// Config.InitState: every ball draws its probe offset from its own
		// stream before round 0, and rounds fork (2^14 balls).
		name: "det",
		run: func(w int) (*model.Result, error) {
			return baseline.Deterministic(model.Problem{M: 1 << 14, N: 1 << 7}, baseline.Config{Seed: 21, Workers: w, Trace: true})
		},
		want: "21b9ed0a1bc008779dd3f4ff",
	},
	{
		// The mass engine: count-based phase 1 and light.RunMass.
		name: "aheavy-mass",
		run: func(w int) (*model.Result, error) {
			return core.RunFast(model.Problem{M: 10_000_000_000, N: 100_000}, core.Config{Seed: 23, Workers: w, Trace: true})
		},
		want: "b00430f0a37215f955b436ac",
	},
	{
		// A mass serving epoch: past the agent limit Run runs count-based
		// over residual loads, with the cleanup phase and a reused scratch
		// (its second run is the one pinned).
		name: "aheavy-mass-epoch",
		run: func(w int) (*model.Result, error) {
			const n = 1 << 10
			base := make([]int64, n)
			r := rng.New(25)
			for i := range base {
				base[i] = 1<<21 + int64(r.Intn(4096))
			}
			scr := &core.Scratch{}
			cfg := core.Config{Seed: 25, Workers: w, BaseLoads: base, Trace: true, Scratch: scr}
			if _, err := core.Run(model.Problem{M: 3 << 30, N: n}, cfg); err != nil {
				return nil, err
			}
			cfg.Seed = 27
			return core.Run(model.Problem{M: 1 << 31, N: n}, cfg)
		},
		want: "92dd2cd7df69b41be807fdc7",
	},
	{
		// The threshold family on the mass engine over residual loads.
		name: "adaptive-mass",
		run: func(w int) (*model.Result, error) {
			const n = 1 << 9
			base := make([]int64, n)
			r := rng.New(29)
			for i := range base {
				base[i] = 5000 + int64(r.Intn(1000))
			}
			alg := threshold.Algorithm{Degree: 1, PhaseLen: 1, Policy: threshold.Greedy(2)}
			return alg.RunMass(model.Problem{M: 1 << 24, N: n}, threshold.Config{Seed: 29, Workers: w, BaseLoads: base, Trace: true})
		},
		want: "01d4a1be19ba4aced72bfe7d",
	},
}

// TestGoldenFingerprints runs every case at 1, 2 and 4 workers and
// compares the whole Result against its recorded fingerprint.
func TestGoldenFingerprints(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4} {
				res, err := c.run(w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if err := res.Check(); err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := fingerprint(res); got != c.want {
					t.Errorf("workers=%d: fingerprint %s, want %s", w, got, c.want)
				}
			}
		})
	}
}

// TestHoldGoldenReference runs the hold case on the serial reference
// engine, which must reproduce the fingerprint recorded from the engine.
func TestHoldGoldenReference(t *testing.T) {
	res, err := sim.Reference(model.Problem{M: 1 << 14, N: 1 << 6}, holdProto{quota: 64}, sim.Config{Seed: 7, Trace: true, RecordPlacements: true})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, c := range goldenCases {
		if c.name == "hold" {
			want = c.want
		}
	}
	if got := fingerprint(res); got != want {
		t.Errorf("reference fingerprint %s, want %s", got, want)
	}
}
