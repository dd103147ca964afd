package core

import (
	"testing"

	"repro/internal/model"
)

// heavyInstance is the E1 heavy-load regime instance (m/n = 4096) used by
// the mode benchmarks recorded in BENCH_pr3.json.
func heavyInstance() model.Problem {
	return model.Problem{M: 512 << 12, N: 512} // m/n = 4096
}

// BenchmarkAheavyAgentHeavy times the agent-based path at m/n = 4096 — the
// paper's headline regime, and the regime the mass engine exists for.
func BenchmarkAheavyAgentHeavy(b *testing.B) {
	p := heavyInstance()
	b.ReportAllocs()
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		res, err := Run(p, Config{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Excess() > 20 {
			b.Fatalf("excess %d", res.Excess())
		}
	}
}

// BenchmarkAheavyAgentDegree2 times the agent-based path on the same
// instance with two requests per ball and round: every phase-1 round
// counting-sorts its requests by bin and commits by ball, the path of the
// engine's multi-request rounds. Its excess, above degree 1's (experiment
// E14), is not checked.
func BenchmarkAheavyAgentDegree2(b *testing.B) {
	p := heavyInstance()
	b.ReportAllocs()
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		res, err := Run(p, Config{Seed: uint64(i) + 1, Params: Params{Degree: 2}})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAheavyMassHeavy times the count-based path on the same instance.
func BenchmarkAheavyMassHeavy(b *testing.B) {
	p := heavyInstance()
	b.ReportAllocs()
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		res, err := RunFast(p, Config{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Excess() > 20 {
			b.Fatalf("excess %d", res.Excess())
		}
	}
}
