package main

import (
	"math"
	"sort"
	"time"
)

// The timing metrics are taken over the quiet part of a run. On a shared
// host the machine changes speed under the benchmark: for one to a few
// seconds at a time the same requests take up to half as much CPU time
// again, user and system time alike, whichever CPU the process is pinned
// to. A median over all of a run lands wherever that mix of fast and slow
// stretches happens to fall, and the medians of ten runs of the same code
// spread up to 45%. The fast stretches repeat from run to run: a serving
// window is cut into slices of sliceLen, and throughput, median latency
// and CPU per ball come from the quietShare of the run's slices with the
// highest throughput (sim-heavy: the quietShare fastest solves). Every
// other metric covers whole windows.
const (
	sliceLen   = 250 * time.Millisecond
	quietShare = 0.25
)

// cpuSample is the process's CPU time at one instant of a window.
type cpuSample struct {
	at  int64 // ns since the tracer's base
	cpu time.Duration
}

// sampleCPU reads the process's CPU time every sliceLen after t0 until
// deadline.
func sampleCPU(base, t0, deadline time.Time) []cpuSample {
	var out []cpuSample
	for at := t0.Add(sliceLen); at.Before(deadline); at = at.Add(sliceLen) {
		time.Sleep(time.Until(at))
		out = append(out, cpuSample{int64(time.Since(base)), cpuTime()})
	}
	return out
}

// slice is what one stretch of a serving window saw.
type slice struct {
	dur   int64 // ns
	cpu   time.Duration
	balls int64
	lat   []int64 // the latencies of the steps that ended in it
}

func (s *slice) rate() float64 { return float64(s.balls) / float64(s.dur) }

// cutSlices cuts a window at its CPU samples, which start at the
// window's start and end at its end, and files each untraced step under
// the slice it ended in. Every step granted batch balls.
func cutSlices(w *window, batch int) []slice {
	if len(w.samples) < 2 {
		return nil
	}
	out := make([]slice, len(w.samples)-1)
	for i := range out {
		out[i].dur = w.samples[i+1].at - w.samples[i].at
		out[i].cpu = w.samples[i+1].cpu - w.samples[i].cpu
	}
	for k, end := range w.ends {
		i := sort.Search(len(w.samples), func(j int) bool { return w.samples[j].at > end }) - 1
		i = min(max(i, 0), len(out)-1)
		out[i].balls += int64(batch)
		out[i].lat = append(out[i].lat, w.lat[k])
	}
	return out
}

// quietMetrics sets throughput, median latency and CPU per ball over the
// quietShare of slices with the highest throughput. A slice shorter than
// half of sliceLen (a window's last) takes part only when no slice is
// longer.
func quietMetrics(m map[string]float64, all []slice) {
	var full []slice
	for _, s := range all {
		if s.dur >= int64(sliceLen)/2 {
			full = append(full, s)
		}
	}
	if len(full) == 0 {
		full = all
	}
	sort.SliceStable(full, func(i, j int) bool { return full[i].rate() > full[j].rate() })
	keep := full[:max(1, int(math.Ceil(quietShare*float64(len(full)))))]
	var dur, balls int64
	var cpu time.Duration
	var lat []int64
	for _, s := range keep {
		dur += s.dur
		balls += s.balls
		cpu += s.cpu
		lat = append(lat, s.lat...)
	}
	m["throughput_balls_per_s"] = ratio(float64(balls), float64(dur)/1e9)
	m["latency_p50_ms"] = float64(quantile(lat, 0.50)) / 1e6
	m["cpu_ns_per_ball"] = ratio(float64(cpu.Nanoseconds()), float64(balls))
}

// solve is one untraced agent-engine solve of sim-heavy.
type solve struct {
	wall       int64 // ns
	cpuPerBall float64
}

// quietSolves sets sim-heavy's throughput, median latency and CPU per
// ball over the quietShare fastest solves: latency is their median wall
// time, throughput the balls of one solve over it, CPU per ball their
// median.
func quietSolves(m map[string]float64, all []solve, balls int64) {
	s := append([]solve(nil), all...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	s = s[:max(1, int(math.Ceil(quietShare*float64(len(s)))))]
	walls := make([]float64, len(s))
	cpus := make([]float64, len(s))
	for i, x := range s {
		walls[i], cpus[i] = float64(x.wall), x.cpuPerBall
	}
	wall := median(walls)
	m["throughput_balls_per_s"] = ratio(float64(balls), wall/1e9)
	m["latency_p50_ms"] = wall / 1e6
	m["cpu_ns_per_ball"] = median(cpus)
}
