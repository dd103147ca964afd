package main

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

// spanName names the layer boundary a span was recorded at.
type spanName uint8

const (
	spanStep    spanName = iota // load: one client step (release + allocate)
	spanServe                   // serve: one request through a serving handler
	spanFront                   // cluster: one request through the router's front handler
	spanRouter                  // cluster: one Router.AllocateInto or Release call
	spanReplica                 // cluster: one request through a replica's handler
	spanAgent                   // core: one agent-engine solve
	spanMass                    // core: one mass-engine solve
	spanCheck                   // model: the invariant checks of one solve
)

var spanNames = [...]string{
	"load.step", "serve.handler", "cluster.front", "cluster.router",
	"cluster.replica", "core.agent", "core.mass", "model.check",
}

// span is one timed call at a layer boundary. Step is the client step
// that caused it when the request carried load.StepHeader, else 0; times
// are nanoseconds since the tracer's base.
type span struct {
	Name       spanName
	Step       uint64
	Start, End int64
}

// tracer records spans from outside the program: around the serving
// handlers, the router's Backend, and the engine calls. Spans go into
// memory allocated before the run, so recording never allocates; spans
// past its capacity are counted and dropped. Recording happens only while
// on is set — a traced run toggles it so the same run also measures the
// untraced path, and the difference is the tracing overhead.
type tracer struct {
	on   atomic.Bool
	base time.Time

	// mu orders recorders against the reader: each record holds the read
	// side while it claims and fills a slot, collect takes the write side,
	// so every slot below the count it reads is complete.
	mu      sync.RWMutex
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, capacity)}
}

func (t *tracer) record(name spanName, step uint64, start, end time.Time) {
	t.mu.RLock()
	if i := t.next.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{Name: name, Step: step, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	} else {
		t.dropped.Add(1)
	}
	t.mu.RUnlock()
}

// collect returns the spans recorded so far.
func (t *tracer) collect() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(t.next.Load(), int64(len(t.spans)))
	return append([]span(nil), t.spans[:n]...)
}

// wrap is the tracing middleware around one serving handler. It records
// data-plane requests only: control-plane calls such as a cell move's
// snapshot transfer would otherwise mix into the handler distribution.
func (t *tracer) wrap(name spanName, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || (r.URL.Path != "/allocate" && r.URL.Path != "/release") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		step, _ := strconv.ParseUint(r.Header.Get(load.StepHeader), 10, 64)
		t.record(name, step, start, end)
	})
}

// tracedBackend times the router's data-plane calls; everything else
// passes through to the embedded Backend.
type tracedBackend struct {
	serve.Backend
	t *tracer
}

func (b tracedBackend) AllocateInto(k int, rep *serve.Report) error {
	if !b.t.on.Load() {
		return b.Backend.AllocateInto(k, rep)
	}
	start := time.Now()
	err := b.Backend.AllocateInto(k, rep)
	b.t.record(spanRouter, 0, start, time.Now())
	return err
}

func (b tracedBackend) Release(ids []int64) int {
	if !b.t.on.Load() {
		return b.Backend.Release(ids)
	}
	start := time.Now()
	n := b.Backend.Release(ids)
	b.t.record(spanRouter, 0, start, time.Now())
	return n
}

// toggle alternates t.on every slice until deadline, starting untraced,
// and leaves it off. It returns when the deadline passes.
func (t *tracer) toggle(deadline time.Time, slice time.Duration) {
	for on := false; ; on = !on {
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		t.on.Store(on)
		time.Sleep(min(slice, left))
	}
	t.on.Store(false)
}

// dumpSpans lays out a traced run's spans for its record: first the
// traced client steps, then the recorded spans, each server span that
// carried a step ID pointing at that step's row. A step's span runs
// from when it was due to when its allocate reply was parsed.
func dumpSpans(t *tracer, steps []load.Step) *spanDump {
	d := &spanDump{Names: spanNames[:], Dropped: t.dropped.Load()}
	rows := map[uint64]int64{}
	for _, s := range steps {
		rows[s.ID] = int64(len(d.Rows))
		d.Rows = append(d.Rows, [5]int64{int64(spanStep), -1, int64(s.ID), s.Due, s.Done})
	}
	for _, sp := range t.collect() {
		parent, ok := rows[sp.Step]
		if !ok {
			parent = -1
		}
		d.Rows = append(d.Rows, [5]int64{int64(sp.Name), parent, int64(sp.Step), sp.Start, sp.End})
	}
	return d
}

// scrapes are the parsed expositions of several registries, read at one
// moment (the replicas of a cluster, or the single service).
type scrapes []*obs.Scrape

func scrapeAll(regs []*obs.Registry) (scrapes, error) {
	out := make(scrapes, len(regs))
	for i, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			return nil, err
		}
		s, err := obs.ParseText(&buf)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// seriesLabels lists the label blocks of family name's series in s whose
// labels contain match (all of them when match is empty). A histogram
// family is found through its _count samples.
func seriesLabels(s *obs.Scrape, name, match string) []string {
	var out []string
	for key := range s.Values {
		rest, ok := strings.CutPrefix(key, name)
		if !ok || (rest != "" && rest[0] != '{') || !strings.Contains(rest, match) {
			continue
		}
		out = append(out, rest)
	}
	return out
}

// histDelta sums, over every registry, the after-minus-before change of
// each duration-histogram series of family name whose labels contain
// match. A series absent before (a cell attached mid-window) counts from
// zero.
func histDelta(before, after scrapes, name, match string) obs.HistView {
	var sum obs.HistView
	for i, a := range after {
		for _, labels := range seriesLabels(a, name+"_count", match) {
			v, ok := a.HistogramView(name, labels)
			if !ok {
				continue
			}
			if b, ok := before[i].HistogramView(name, labels); ok {
				v = v.Sub(b)
			}
			for j := range v.Counts {
				sum.Counts[j] += v.Counts[j]
			}
			sum.Count += v.Count
			sum.Sum += v.Sum
			sum.Max = max(sum.Max, v.Max)
		}
	}
	return sum
}

// valueDelta sums, over every registry, the after-minus-before change of
// each sample of family name whose labels contain match.
func valueDelta(before, after scrapes, name, match string) float64 {
	var sum float64
	for i, a := range after {
		for _, labels := range seriesLabels(a, name, match) {
			sum += a.Values[name+labels] - before[i].Values[name+labels]
		}
	}
	return sum
}

// meanUs is a histogram view's mean in microseconds (0 when empty).
func meanUs(v obs.HistView) float64 {
	if v.Count == 0 {
		return 0
	}
	return float64(v.Sum) / float64(v.Count) / 1e3
}

// quantileUs is a histogram view's q-quantile in microseconds.
func quantileUs(v obs.HistView, q float64) float64 {
	return float64(v.Quantile(q)) / 1e3
}
