package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	pba "repro"
)

// config sizes one workload. Fields a workload does not use stay zero.
type config struct {
	Seconds float64 `json:"seconds"` // measured time per run
	// Setups is how many set-ups a run makes; setup_s is their median.
	Setups int `json:"setups"`
	// Reps is how many of them a serving workload measures a window of
	// Seconds/Reps after, the first ones; the rest are checked and torn
	// down. Its timing metrics come from the quiet slices of all windows
	// (quietMetrics), the others are medians over the windows.
	Reps int `json:"reps,omitempty"`
	// Warmup is the unmeasured traffic before each serving window, in
	// seconds.
	Warmup float64 `json:"warmup_s,omitempty"`

	// Serving workloads: a serve.Service, or a cluster.Router over
	// Replicas in-process replicas, holding a standing population of
	// balls. Each of Clients closed-loop clients owns an equal share and
	// every step releases Batch of its own balls and allocates Batch
	// fresh ones.
	Clients      int     `json:"clients,omitempty"`
	N            int     `json:"n,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	Replicas     int     `json:"replicas,omitempty"`
	Standing     int     `json:"standing,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	Binary       bool    `json:"binary,omitempty"`          // binary wire format, else JSON
	MigrateEvery float64 `json:"migrate_every_s,omitempty"` // seconds between cell moves (cluster)

	// sim-heavy: agent-engine solves of AgentM balls into AgentN bins, then
	// one mass-engine solve of MassM into MassN.
	AgentM int64 `json:"agent_m,omitempty"`
	AgentN int   `json:"agent_n,omitempty"`
	MassM  int64 `json:"mass_m,omitempty"`
	MassN  int   `json:"mass_n,omitempty"`
}

// workload is one named input set. full is what the command runs; small
// is the reduced size the package test runs through the same code.
type workload struct {
	name  string
	full  config
	small config
}

// defaultSeconds is the measured time per run when -seconds is not given.
const defaultSeconds = 20

// The workloads, and why each was chosen:
//
//   - sim-heavy is the paper's own computation with no serving stack: the
//     engine layers (sim, core, light, rng) do all the work, so a serve or
//     cluster change should leave it unchanged. m/n = 1024 is the heavily
//     loaded regime. The agent instance is 2^21 balls rather than 2^24
//     because the agent engine holds ~200 bytes per ball (2^24 peaks at
//     3.3 GB of RSS).
//   - serve-heavy keeps 2^20 balls standing in 1024 bins (m/n = 1024), so
//     online epochs run over large residual loads; with 512 balls per
//     request, per-request wire and HTTP costs are small against the
//     epoch, batch_wait and the paged ID table.
//   - serve-small is the per-request path: one client sending 8-ball JSON
//     steps back to back, so HTTP parsing, JSON coding and routing
//     dominate a ~5µs epoch. One sequential client keeps every epoch to
//     one request: with two, the cells' adaptive batch window switches on
//     and off every few seconds and the median step moves between ~105µs
//     and ~190µs.
//   - cluster-heavy is serve-heavy's twin behind a cluster.Router with
//     two replicas and live cell moves, so the difference between the
//     two isolates internal/cluster: split, upstream queue and window,
//     the wire round trip, replica stages and merge.
var workloads = []workload{
	{
		name:  "sim-heavy",
		full:  config{Seconds: defaultSeconds, Setups: 9, AgentM: 1 << 21, AgentN: 1 << 11, MassM: 1e12, MassN: 1e6},
		small: config{Seconds: 1, Setups: 3, AgentM: 1 << 16, AgentN: 1 << 6, MassM: 1e9, MassN: 1e4},
	},
	{
		name:  "serve-heavy",
		full:  config{Seconds: defaultSeconds, Setups: 11, Reps: 5, Warmup: 0.5, Clients: 2, N: 1024, Shards: 4, Standing: 1 << 20, Batch: 512, Binary: true},
		small: config{Seconds: 1, Setups: 4, Reps: 3, Warmup: 0.1, Clients: 2, N: 256, Shards: 4, Standing: 1 << 14, Batch: 64, Binary: true},
	},
	{
		name:  "serve-small",
		full:  config{Seconds: defaultSeconds, Setups: 25, Reps: 5, Warmup: 0.5, Clients: 1, N: 1024, Shards: 4, Standing: 1 << 14, Batch: 8},
		small: config{Seconds: 1, Setups: 4, Reps: 3, Warmup: 0.1, Clients: 1, N: 256, Shards: 4, Standing: 1 << 12, Batch: 8},
	},
	{
		name:  "cluster-heavy",
		full:  config{Seconds: defaultSeconds, Setups: 9, Reps: 5, Warmup: 0.5, Clients: 2, N: 1024, Shards: 4, Replicas: 2, Standing: 1 << 20, Batch: 512, Binary: true, MigrateEvery: 2},
		small: config{Seconds: 1, Setups: 4, Reps: 3, Warmup: 0.1, Clients: 2, N: 256, Shards: 4, Replicas: 2, Standing: 1 << 14, Batch: 64, Binary: true, MigrateEvery: 0.15},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spanCapacity bounds the spans one traced run keeps.
const spanCapacity = 1 << 19

// traceSlice is how long a traced run keeps tracing on, then off, in
// turn — at most, and at most an eighth of the window: the off slices
// give the untraced baseline for trace_overhead_pct.
const traceSlice = 500 * time.Millisecond

// outcome is what a workload measured: every metric it can compute, the
// ops it attempted, diagnostics printed beside the metrics, and the spans
// of a traced run.
type outcome struct {
	attempted int64
	metrics   map[string]float64
	diag      map[string]float64
	spans     *spanDump
}

// measure runs workload name at cfg with inputs from seed and returns its
// record. A failed correctness gate or any failed operation returns an
// error alongside a record that carries the manifest but no metrics.
func measure(name string, cfg config, seed uint64, trace bool) (*record, error) {
	start := time.Now()
	capacity := 0
	if trace {
		capacity = spanCapacity
	}
	tr := newTracer(start, capacity)
	ck := newChecks()
	var out *outcome
	var err error
	if cfg.AgentM > 0 {
		out, err = runSim(cfg, seed, trace, tr, ck)
	} else {
		out, err = runServing(cfg, seed, trace, tr, ck)
	}
	env := currentEnvironment()
	rec := &record{
		Workload: name, Seed: seed, Trace: trace, Env: env, Config: cfg,
		Manifest: ck.manifest(name, cfg, seed, env, time.Since(start).Milliseconds()),
	}
	if err != nil {
		rec.Error = err.Error()
		return rec, err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := out.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec.Correct = true
	rec.Attempted = out.attempted
	rec.Diagnostics = out.diag
	rec.Spans = out.spans
	return rec, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MB (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// memDelta is what the Go runtime did between MemStats readings.
type memDelta struct {
	mallocs, bytes, pauseNs uint64
	cycles                  uint32
}

func (d *memDelta) add(m0, m1 *runtime.MemStats) {
	d.mallocs += m1.Mallocs - m0.Mallocs
	d.bytes += m1.TotalAlloc - m0.TotalAlloc
	d.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	d.cycles += m1.NumGC - m0.NumGC
}

// runtimeLayer adds the runtime.* metrics of d, over the balls granted.
func runtimeLayer(m map[string]float64, d memDelta, balls float64) {
	m["runtime.allocs_per_ball"] = ratio(float64(d.mallocs), balls)
	m["runtime.alloc_bytes_per_ball"] = ratio(float64(d.bytes), balls)
	m["runtime.gc_pause_ms_total"] = float64(d.pauseNs) / 1e6
	m["runtime.gc_cycles"] = float64(d.cycles)
}

// overheadPct is how much slower the traced ops' median latency is than
// the untraced ops', in percent (0 without both).
func overheadPct(traced, untraced []int64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (float64(quantile(traced, 0.5))/float64(quantile(untraced, 0.5)) - 1)
}

// maxExcess is the band the sim-heavy gate holds Aheavy's excess to. The
// paper bounds it by a constant; measured excess at m/n = 1024 is 5-6.
const maxExcess = 10

// checkSolve gates one engine result: model invariants, every ball
// placed, and excess within the O(1) band.
func checkSolve(ck *checks, kind string, res *pba.Result, err error) error {
	if err := ck.check(kind+".solved", err == nil, "%v", err); err != nil {
		return err
	}
	if err := ck.check(kind+".model_check", res.Check() == nil, "%v", res.Check()); err != nil {
		return err
	}
	if err := ck.check(kind+".unallocated_zero", res.Unallocated == 0, "%d balls unallocated", res.Unallocated); err != nil {
		return err
	}
	return ck.check(kind+".excess_in_band", res.Excess() >= 0 && res.Excess() <= maxExcess,
		"excess %d outside [0, %d]", res.Excess(), maxExcess)
}

// warmSeedSalt separates the set-up solves' seeds from the measured ones.
const warmSeedSalt = 0x6A09E667F3BCC909

// runSim is sim-heavy: after its set-ups (each one solve at the workload
// size, paying the first-run heap growth outside the window), agent
// solves with seeds seed, seed+1, ... run back to back until the window
// ends — each one op — followed by one mass-engine solve.
func runSim(cfg config, seed uint64, trace bool, tr *tracer, ck *checks) (*outcome, error) {
	p := pba.Problem{M: cfg.AgentM, N: cfg.AgentN}
	setups := make([]float64, cfg.Setups)
	for k := range setups {
		runtime.GC()
		t := time.Now()
		res, err := pba.AheavyAgent(p, pba.Options{Seed: (seed ^ warmSeedSalt) + uint64(k)})
		if err := checkSolve(ck, "setup", res, err); err != nil {
			return nil, err
		}
		setups[k] = time.Since(t).Seconds()
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var lat, latTraced []int64
	var solves []solve
	var solveNs, excess, rounds, messages, maxBin int64
	var mem memDelta
	var m0, m1 runtime.MemStats
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		traced := trace && i%2 == 1
		// Every solve starts from a collected heap, outside its timing and
		// its runtime counts, so its peak memory does not depend on when
		// the previous solve's garbage happened to be collected.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := time.Now()
		res, err := pba.AheavyAgent(p, pba.Options{Seed: seed + uint64(i)})
		end := time.Now()
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		mem.add(&m0, &m1)
		d := int64(end.Sub(start))
		if traced {
			tr.record(spanAgent, 0, start, end)
			latTraced = append(latTraced, d)
		} else {
			lat = append(lat, d)
			solves = append(solves, solve{wall: d, cpuPerBall: float64(cpu) / float64(cfg.AgentM)})
		}
		if err := checkSolve(ck, "agent", res, err); err != nil {
			return nil, err
		}
		if traced {
			tr.record(spanCheck, 0, end, time.Now())
		}
		solveNs += d
		excess += res.Excess()
		rounds += int64(res.Rounds)
		messages += res.Metrics.TotalMessages
		maxBin = max(maxBin, res.Metrics.MaxBinReceived)
	}
	ops := int64(len(lat) + len(latTraced))
	balls := float64(ops * cfg.AgentM)

	start := time.Now()
	res, err := pba.Aheavy(pba.Problem{M: cfg.MassM, N: cfg.MassN}, pba.Options{Seed: seed})
	massNs := time.Since(start)
	if trace {
		tr.record(spanMass, 0, start, start.Add(massNs))
	}
	if err := checkSolve(ck, "mass", res, err); err != nil {
		return nil, err
	}

	all := append(append([]int64(nil), lat...), latTraced...)
	m := map[string]float64{
		"load.latency_p99_ms": float64(quantile(lat, 0.99)) / 1e6,
		"excess_mean":         float64(excess) / float64(ops),
		"rounds_mean":         float64(rounds) / float64(ops),
		"setup_s":             median(setups),
		"peak_rss_mb":         peakRSSMB(),

		"core.agent_run_s_mean": float64(solveNs) / float64(ops) / 1e9,
		"core.mass_run_ms":      float64(massNs.Nanoseconds()) / 1e6,
		"sim.messages_per_ball": float64(messages) / balls,
		"sim.max_bin_received":  float64(maxBin),
		"trace_overhead_pct":    overheadPct(latTraced, lat),
	}
	quietSolves(m, solves, cfg.AgentM)
	runtimeLayer(m, mem, balls)
	out := &outcome{
		attempted: ops + 1,
		metrics:   m,
		diag: map[string]float64{
			"agent_solves": float64(ops),
			"solve_max_ms": float64(quantile(all, 1)) / 1e6,
			"mass_excess":  float64(res.Excess()),
		},
	}
	if trace {
		out.spans = dumpSpans(tr, nil)
	}
	return out, nil
}
