package pba

// This file is the benchmark harness required by DESIGN.md: one testing.B
// target per experiment (E1–E17), regenerating the corresponding table on
// every iteration, plus micro-benchmarks of the core algorithms at several
// scales. Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benches use the Quick configuration so a full -bench
// pass stays laptop-friendly; cmd/pba-bench runs the full-scale sweeps.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Config{Seeds: 3, N: 512, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1AheavyLoad(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2AheavyRounds(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3Messages(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4Trajectory(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5OneShot(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6Greedy(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7Alight(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8Asymmetric(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Rejection(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10RoundsLB(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11FixedThreshold(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12Simulation(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13SlackAblation(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14Degree(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkE15Deterministic(b *testing.B)  { benchExperiment(b, "E15") }
func BenchmarkE16Weighted(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17Faults(b *testing.B)         { benchExperiment(b, "E17") }

// --- algorithm micro-benchmarks ---

func benchProblemSizes() []Problem {
	return []Problem{
		{M: 1 << 16, N: 1 << 8},
		{M: 1 << 20, N: 1 << 10},
		{M: 1 << 24, N: 1 << 12},
	}
}

func BenchmarkAheavyFast(b *testing.B) {
	for _, p := range benchProblemSizes() {
		b.Run(sizeName(p), func(b *testing.B) {
			b.SetBytes(p.M)
			for i := 0; i < b.N; i++ {
				res, err := Aheavy(p, Options{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.Excess() > 20 {
					b.Fatalf("excess %d", res.Excess())
				}
			}
		})
	}
}

func BenchmarkAheavyAgent(b *testing.B) {
	p := Problem{M: 1 << 18, N: 1 << 9}
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		if _, err := AheavyAgent(p, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsymmetric(b *testing.B) {
	p := Problem{M: 1 << 18, N: 1 << 9}
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		if _, err := Asymmetric(p, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneShot(b *testing.B) {
	p := Problem{M: 1 << 24, N: 1 << 12}
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		if _, err := OneShot(p, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedy2(b *testing.B) {
	p := Problem{M: 1 << 20, N: 1 << 10}
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(p, 2, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlight(b *testing.B) {
	p := Problem{M: 1 << 16, N: 1 << 16}
	b.SetBytes(p.M)
	for i := 0; i < b.N; i++ {
		if _, err := Alight(p, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(p Problem) string {
	suffix := func(v int64) string {
		switch {
		case v >= 1<<20:
			return itoa(v>>20) + "M"
		case v >= 1<<10:
			return itoa(v>>10) + "K"
		default:
			return itoa(v)
		}
	}
	return "m=" + suffix(p.M) + "/n=" + suffix(int64(p.N))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
