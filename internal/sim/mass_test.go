package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
)

// massFixed is a minimal MassProtocol: every bin caps its total load at
// threshold(round); never stops on its own.
type massFixed struct {
	threshold func(round int) int64
}

func (p *massFixed) MassCapacities(round int, loads []int64, _ int64, caps []int64) {
	t := p.threshold(round)
	for i := range caps {
		caps[i] = t - loads[i]
	}
}

func (p *massFixed) MassDone(int, int64) bool { return false }

func TestMassRunAllocatesAll(t *testing.T) {
	p := model.Problem{M: 1 << 20, N: 64}
	res, err := RunMass(p, &massFixed{threshold: func(int) int64 { return 1 << 62 }}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if res.Metrics.BallRequests != p.M || res.Metrics.BinReplies != p.M {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	if res.Metrics.MaxBallSent != 1 {
		t.Fatalf("MaxBallSent = %d", res.Metrics.MaxBallSent)
	}
}

func TestMassRunThresholdRespectedAndConserves(t *testing.T) {
	p := model.Problem{M: 30000, N: 30}
	// Cumulative cap 600·(round+1): round 0 can place at most 18000 of the
	// 30000 balls, so the run must take several rounds; total capacity
	// catches up and the allocation completes.
	thr := func(round int) int64 { return int64(600 * (round + 1)) }
	res, err := RunMass(p, &massFixed{threshold: thr}, Config{Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	finalCap := thr(res.Rounds - 1)
	for i, l := range res.Loads {
		if l > finalCap {
			t.Fatalf("bin %d load %d exceeds final threshold %d", i, l, finalCap)
		}
	}
	if res.Rounds < 2 {
		t.Fatalf("expected multiple rounds with tight threshold, got %d", res.Rounds)
	}
	if len(res.TraceRemaining) != res.Rounds {
		t.Fatalf("trace length %d, rounds %d", len(res.TraceRemaining), res.Rounds)
	}
	if res.TraceRemaining[0] != p.M {
		t.Fatalf("trace[0] = %d", res.TraceRemaining[0])
	}
}

func TestMassRunWorkerCountInvariant(t *testing.T) {
	p := model.Problem{M: 1 << 22, N: 128}
	proto := &massFixed{threshold: func(round int) int64 { return int64(1<<14) * int64(round+1) }}
	a, err := RunMass(p, proto, Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMass(p, proto, Config{Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatalf("load[%d] differs: %d vs %d", i, a.Loads[i], b.Loads[i])
		}
	}
}

func TestMassRunRoundLimit(t *testing.T) {
	p := model.Problem{M: 100, N: 10}
	res, err := RunMass(p, &massFixed{threshold: func(int) int64 { return 0 }}, Config{Seed: 1, MaxRounds: 5})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res == nil || res.TotalAllocated() != 0 || res.Rounds != 5 {
		t.Fatalf("partial result wrong: %+v", res)
	}
}

func TestMassRunRejectsPerBallOptions(t *testing.T) {
	p := model.Problem{M: 10, N: 2}
	proto := &massFixed{threshold: func(int) int64 { return 100 }}
	if _, err := RunMass(p, proto, Config{RecordPlacements: true}); err == nil {
		t.Fatal("RecordPlacements accepted by mass engine")
	}
	if _, err := RunMass(p, proto, Config{InitState: func(*Ball) {}}); err == nil {
		t.Fatal("InitState accepted by mass engine")
	}
	if _, err := RunMass(model.Problem{M: MassMaxBalls + 1, N: 2}, proto, Config{}); err == nil {
		t.Fatal("ball count beyond MassMaxBalls accepted")
	}
}

func TestMassRunHugeInstance(t *testing.T) {
	// 10^10 balls, far past the agent engine's 2^31-2 ceiling: one round of
	// a permissive fixed threshold is O(n) work regardless of m.
	p := model.Problem{M: 10_000_000_000, N: 1000}
	res, err := RunMass(p, &massFixed{threshold: func(int) int64 { return 1 << 62 }}, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

// TestMassRunOnRoundObserver checks the mass engine's per-round record:
// one trace entry per round, starting at M and never rising, and rounds
// whose commits sum to the allocation.
func TestMassRunOnRoundObserver(t *testing.T) {
	p := model.Problem{M: 50000, N: 20}
	res, err := RunMass(p, &massFixed{threshold: func(round int) int64 { return int64(1000 * (round + 1)) }},
		Config{Seed: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceRemaining) != res.Rounds {
		t.Fatalf("%d trace entries, %d rounds", len(res.TraceRemaining), res.Rounds)
	}
	if res.TraceRemaining[0] != p.M {
		t.Fatalf("trace starts at %d", res.TraceRemaining[0])
	}
	var allocated int64
	for i, c := range traceCommits(res) {
		if c < 0 {
			t.Fatalf("remaining rose in round %d", i)
		}
		allocated += c
	}
	if allocated != res.TotalAllocated() {
		t.Fatalf("rounds committed %d balls, result allocated %d", allocated, res.TotalAllocated())
	}
}

// massUniform implements both Protocol and MassProtocol, the shape core's
// degree-1 phase 1 has.
type massUniform struct {
	uniformProto
	massFixed
}

// TestEngineOversizedWithoutMassSupportErrors: the agent engine refuses an
// instance beyond MaxAgentBalls, whether or not the protocol could run on
// the mass engine too — the caller picks the engine, and the error names
// the registry spelling that would work.
func TestEngineOversizedWithoutMassSupportErrors(t *testing.T) {
	p := model.Problem{M: MaxAgentBalls + 10, N: 100}
	thr := func(int) int64 { return 1 << 62 }
	for _, proto := range []Protocol{
		unlimited(),
		&massUniform{uniformProto: uniformProto{threshold: thr}, massFixed: massFixed{threshold: thr}},
	} {
		_, err := New(p, proto, Config{Seed: 2}).Run()
		if err == nil {
			t.Fatalf("%T: oversized agent run succeeded", proto)
		}
		if want := "!mass"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%T: error %q does not mention %q", proto, err, want)
		}
	}
}
