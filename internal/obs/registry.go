package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// Label is one constant key=value pair attached to a series at
// registration time. Labels are baked into the rendered series name once;
// the record path never touches them.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds named instruments and renders them in the Prometheus
// text exposition format (version 0.0.4). Registration methods allocate
// and panic on invalid or duplicate registration — they run at
// construction time, where a bad metric name is a programming error; the
// instruments they return are the allocation-free hot-path handles.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(EmitFunc)
}

// family is every series sharing one metric name (differing in labels).
type family struct {
	name, help, typ string
	series          []*series
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // pre-rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	scale  float64 // histogram value -> rendered float (1e-9 for ns -> s)
}

// EmitFunc is handed to collectors: each call renders one single-series
// family (used for the runtime gauges, where values only exist at
// scrape time).
type EmitFunc func(name, help, typ string, value float64)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers and returns a counter series. Counter names should
// end in _total per Prometheus convention.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", &series{labels: renderLabels(labels), c: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), g: g})
	return g
}

// DurationHistogram registers and returns a histogram that records
// durations in nanoseconds and renders in seconds (Prometheus base
// unit); name it *_seconds.
func (r *Registry) DurationHistogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), h: h, scale: 1e-9})
	return h
}

// ValueHistogram registers and returns a histogram of plain values
// (sizes, counts) rendered unscaled. The log-spaced buckets start at
// 2^10, so small-value distributions land entirely in the first bucket —
// read mean (sum/count) and max for those rather than quantiles.
func (r *Registry) ValueHistogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.register(name, help, "histogram", &series{labels: renderLabels(labels), h: h, scale: 1})
	return h
}

// AddCollector registers a scrape-time collector: fn is invoked once per
// WriteText and emits whole families (name, help, type, value). Used for
// the Go runtime gauges, where a single ReadMemStats feeds many series.
func (r *Registry) AddCollector(fn func(EmitFunc)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

func (r *Registry) register(name, help, typ string, s *series) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, l := range labels {
		if !labelRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out + "}"
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, `\\`...)
		case '"':
			out = append(out, `\"`...)
		case '\n':
			out = append(out, `\n`...)
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

func escapeHelp(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, `\\`...)
		case '\n':
			out = append(out, `\n`...)
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// WriteText renders every registered family, sorted by name, then every
// collector's families, in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	collectors := r.collectors
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Load())
			case s.g != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.g.Load())
			case s.h != nil:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	for _, collect := range collectors {
		collect(func(name, help, typ string, value float64) {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
			fmt.Fprintf(bw, "%s %s\n", name, formatFloat(value))
		})
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// for every finite bound plus +Inf, then _sum and _count.
func writeHistogram(w io.Writer, name string, s *series) {
	v := s.h.View()
	// Bucket lines carry the extra le label; splice it into the existing
	// label set.
	lopen := "{"
	if s.labels != "" {
		lopen = s.labels[:len(s.labels)-1] + ","
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += v.Counts[i]
		le := formatFloat(float64(BucketBound(i)) * s.scale)
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, lopen, le, cum)
	}
	cum += v.Counts[NumBuckets]
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, lopen, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(float64(v.Sum)*s.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, cum)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Handler serves the registry as a GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
