package sim

// The serial reference engine: the agent engine's rules, each stated
// once, with no shards, no arena, no fresh round 0 and no split sort. It
// takes the same Protocol and Config as Engine.Run and must return the same
// Result; FuzzAgentEngine, the arena churn test and the hold golden compare
// the two field by field.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

// Reference runs proto on p under cfg by the agent engine's rules, serially.
// Config.Workers and Config.Arena do not change a result, so it ignores them.
func Reference(p model.Problem, proto Protocol, cfg Config) (*model.Result, error) {
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n, m := p.N, int(p.M)

	// Ball streams. Ball i has ID i and a stream seeded from the run seed
	// and i alone. InitState runs on the balls in ascending order.
	ballSeed := rng.Mix64(cfg.Seed ^ 0x5A5A5A5A5A5A5A5A)
	balls := make([]Ball, m)
	for i := range balls {
		balls[i].ID = int64(i)
		balls[i].rand.Seed(rng.Mix64(ballSeed + uint64(i)*0x9E3779B97F4A7C15))
	}
	if cfg.InitState != nil {
		for i := range balls {
			cfg.InitState(&balls[i])
		}
	}

	res := &model.Result{Problem: p, Loads: make([]int64, n)}
	loads := res.Loads
	if cfg.RecordPlacements {
		res.Placements = make([]int32, m)
		for i := range res.Placements {
			res.Placements[i] = -1
		}
	}
	received := make([]int64, n) // requests each bin answered
	sent := make([]int64, m)     // requests each ball sent over the run
	placed := make([]bool, m)
	active := make([]int, m) // unallocated balls, ascending ID
	for i := range active {
		active[i] = i
	}
	var held []request
	met := &res.Metrics

	round := 0
	hitLimit := true
	for ; round < maxRounds; round++ {
		// Run control. Done sees the unallocated balls before the round;
		// every executed round, hold rounds included, adds one trace entry,
		// and RoundStart runs before the round's first request.
		remaining := int64(len(active))
		if remaining == 0 || proto.Done(round, remaining) {
			hitLimit = false
			break
		}
		if cfg.Trace {
			res.TraceRemaining = append(res.TraceRemaining, remaining)
		}
		if obs, ok := proto.(RoundObserver); ok {
			obs.RoundStart(round, loads, remaining)
		}
		hold := proto.Hold(round)

		// Gather order. Active balls send in ascending ID order, and a
		// ball's requests keep Targets order. A silent ball stays active.
		// MaxBallSent is the most requests any ball sent over the whole
		// run, hold rounds included.
		var fresh []request
		for _, i := range active {
			targets := proto.Targets(round, &balls[i], n, nil)
			sent[i] += int64(len(targets))
			met.MaxBallSent = max(met.MaxBallSent, sent[i])
			for _, bin := range targets {
				fresh = append(fresh, request{ball: int32(i), bin: int32(bin)})
			}
		}
		met.BallRequests += int64(len(fresh))
		if hold {
			held = append(held, fresh...)
			continue
		}
		// A flush puts held requests before fresh ones, and each bin sees
		// its requests in that order.
		reqs := append(held, fresh...)
		held = nil
		byBin := make([][]int32, n)
		for _, q := range reqs {
			byBin[q.bin] = append(byBin[q.bin], q.ball)
		}

		// Answers. Capacity is read at the bin's round-start load. A bin
		// accepts min(len, max(cap, 0)) requests, and applies its tie-break
		// only when cap < len and at least one request is accepted. The
		// i-th accept carries Payload(round, bin, i). Accepts are listed bin
		// by bin.
		var accepts []acceptRec
		for bin, q := range byBin {
			if len(q) == 0 {
				continue
			}
			received[bin] += int64(len(q))
			k := min(int64(len(q)), max(proto.Capacity(round, bin, loads[bin]), 0))
			if k < int64(len(q)) && k > 0 {
				referenceTieBreak(cfg, round, bin, q)
			}
			for i := range k {
				accepts = append(accepts, acceptRec{ball: q[i], bin: int32(bin), payload: proto.Payload(round, bin, i)})
			}
		}
		// Bins reply only in rounds that answer, to held requests too.
		met.BinReplies += int64(len(reqs))

		// Commits. The reference orders the accepts by calling the
		// engine's own sortAcceptsByBall: its heapsort permutes a ball's
		// accepts into the order Choose sees them in, and no simpler rule
		// reproduces that order (ROADMAP.md plans to replace it with
		// request order). Choose runs only for a ball with two or more
		// accepts. A commit costs one message per accept, plus one if
		// Place redirects it. Loads rise, redirects included, only after
		// every bin of the round has answered.
		sortAcceptsByBall(accepts)
		var places []int
		for i := 0; i < len(accepts); {
			ball := int(accepts[i].ball)
			var mine []Accept
			for ; i < len(accepts) && int(accepts[i].ball) == ball; i++ {
				mine = append(mine, Accept{From: int(accepts[i].bin), Payload: accepts[i].payload})
			}
			choice := 0
			if len(mine) > 1 {
				choice = proto.Choose(round, &balls[ball], mine)
				if choice < 0 || choice >= len(mine) {
					panic(fmt.Sprintf("reference: Choose returned invalid index %d of %d", choice, len(mine)))
				}
			}
			place := proto.Place(mine[choice])
			met.CommitMessages += int64(len(mine))
			if place != mine[choice].From {
				met.CommitMessages++
			}
			if res.Placements != nil {
				res.Placements[ball] = int32(place)
			}
			placed[ball] = true
			places = append(places, place)
		}
		for _, place := range places {
			loads[place]++
		}
		active = slices.DeleteFunc(active, func(i int) bool { return placed[i] })
	}

	// Metrics. TotalMessages is the sum of the three kinds, and
	// MaxBinReceived the most requests any bin answered.
	met.TotalMessages = met.BallRequests + met.BinReplies + met.CommitMessages
	met.MaxBinReceived = slices.Max(received)
	res.Rounds = round
	res.Unallocated = int64(len(active))
	if hitLimit && res.Unallocated > 0 {
		return res, ErrRoundLimit
	}
	return res, nil
}

// referenceTieBreak orders a bin's requests q so that the accepted prefix
// follows the tie-break: TieFirst keeps arrival order, TieRandom shuffles
// by a stream of the seed, the bin and the round alone, and
// TieAdversarialHighID puts the highest ball IDs first.
func referenceTieBreak(cfg Config, round, bin int, q []int32) {
	switch cfg.TieBreak {
	case TieRandom:
		r := rng.New(rng.Mix64(cfg.Seed ^ uint64(bin)*0x9E3779B97F4A7C15 ^ uint64(round)*0xC2B2AE3D27D4EB4F))
		r.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	case TieAdversarialHighID:
		slices.SortFunc(q, func(a, b int32) int { return int(b) - int(a) })
	}
}

// sameResult fails t, naming the run by label, unless got equals want in
// every Result field. It compares slices by their elements, so a reused
// arena's empty TraceRemaining equals the reference's nil one.
func sameResult(t testing.TB, label string, got, want *model.Result) {
	t.Helper()
	switch {
	case got.Problem != want.Problem:
		t.Fatalf("%s: problem %+v, reference %+v", label, got.Problem, want.Problem)
	case got.Rounds != want.Rounds:
		t.Fatalf("%s: rounds %d, reference %d", label, got.Rounds, want.Rounds)
	case got.Unallocated != want.Unallocated:
		t.Fatalf("%s: unallocated %d, reference %d", label, got.Unallocated, want.Unallocated)
	case got.Metrics != want.Metrics:
		t.Fatalf("%s: metrics %+v, reference %+v", label, got.Metrics, want.Metrics)
	case !slices.Equal(got.Loads, want.Loads):
		t.Fatalf("%s: loads differ from the reference", label)
	case !slices.Equal(got.TraceRemaining, want.TraceRemaining):
		t.Fatalf("%s: trace %v, reference %v", label, got.TraceRemaining, want.TraceRemaining)
	case !slices.Equal(got.Placements, want.Placements):
		t.Fatalf("%s: placements differ from the reference", label)
	}
}
