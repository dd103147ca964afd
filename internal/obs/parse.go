package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Scrape is a parsed Prometheus text exposition document: every sample
// keyed by its full series string (name plus rendered labels, exactly as
// exposed), plus the declared family types. It is what pba-bench's load
// driver holds after scraping GET /metrics, and what the exposition
// tests validate against.
type Scrape struct {
	// Values maps "name" or `name{k="v",...}` to the sample value.
	Values map[string]float64
	// Types maps a family name to its declared TYPE.
	Types map[string]string
	// Help maps a family name to its HELP line.
	Help map[string]string
}

// ParseText parses (and thereby validates) a Prometheus text exposition
// document: HELP/TYPE comment syntax, one sample per line, metric and
// label name grammar, float-parsable values, and TYPE declared before the
// first sample of its family. It returns an error naming the first
// offending line.
func ParseText(r io.Reader) (*Scrape, error) {
	s := &Scrape{
		Values: map[string]float64{},
		Types:  map[string]string{},
		Help:   map[string]string{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := s.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := s.parseSample(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Scrape) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !nameRE.MatchString(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := s.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		s.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		name := fields[2]
		if !nameRE.MatchString(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		if len(fields) == 4 {
			s.Help[name] = fields[3]
		}
	}
	return nil
}

func (s *Scrape) parseSample(line string) error {
	// name[{labels}] value [timestamp]
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[nameEnd:]
	key := name
	if rest[0] == '{' {
		end, err := scanLabels(rest)
		if err != nil {
			return fmt.Errorf("series %s: %w", name, err)
		}
		key = name + rest[:end]
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("series %s: want value [timestamp], got %q", key, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return fmt.Errorf("series %s: bad value %q", key, fields[0])
	}
	// The family name of _bucket/_sum/_count samples is the base name; a
	// declared family must have its TYPE before its first sample.
	fam := name
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suffix); base != name && s.Types[base] == "histogram" {
			fam = base
		}
	}
	if _, ok := s.Types[fam]; !ok {
		return fmt.Errorf("series %s: no TYPE declared for family %s", key, fam)
	}
	if _, dup := s.Values[key]; dup {
		return fmt.Errorf("duplicate sample %s", key)
	}
	s.Values[key] = v
	return nil
}

// scanLabels validates a {k="v",...} block starting at rest[0] == '{' and
// returns the index just past the closing brace.
func scanLabels(rest string) (int, error) {
	i := 1
	for {
		if i < len(rest) && rest[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(rest) && rest[i] != '=' {
			i++
		}
		if i >= len(rest) || !labelRE.MatchString(rest[start:i]) {
			return 0, fmt.Errorf("bad label name in %q", rest)
		}
		i++ // '='
		if i >= len(rest) || rest[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", rest)
		}
		i++
		for i < len(rest) && rest[i] != '"' {
			if rest[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(rest) {
			return 0, fmt.Errorf("unterminated label value in %q", rest)
		}
		i++ // closing quote
		if i < len(rest) && rest[i] == ',' {
			i++
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the sample for a full series key ("name" or
// `name{k="v"}`), or (0, false).
func (s *Scrape) Value(series string) (float64, bool) {
	v, ok := s.Values[series]
	return v, ok
}

// HistogramView reconstructs a duration histogram (rendered in seconds by
// Registry.DurationHistogram) back into bucket space. labels is the
// series' label block (`{stage="route"}`) or "" for an unlabeled series.
// Max is approximated by the upper bound of the highest non-empty bucket
// (the scrape does not carry the exact maximum).
func (s *Scrape) HistogramView(name, labels string) (HistView, bool) {
	lopen := "{"
	if labels != "" {
		lopen = labels[:len(labels)-1] + ","
	}
	prefix := name + "_bucket" + lopen + "le=\""
	type bound struct {
		le  float64
		cum float64
	}
	var bounds []bound
	for key, v := range s.Values {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(key[len(prefix):], "\"}")
		le, err := parseValue(leStr)
		if err != nil {
			return HistView{}, false
		}
		bounds = append(bounds, bound{le, v})
	}
	if len(bounds) == 0 {
		return HistView{}, false
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].le < bounds[j].le })
	var view HistView
	prev := 0.0
	for _, b := range bounds {
		n := uint64(b.cum - prev)
		prev = b.cum
		if n == 0 {
			continue
		}
		idx := NumBuckets
		if !math.IsInf(b.le, 1) {
			ns := math.Round(b.le * 1e9)
			idx = bucketIndex(int64(ns))
			view.Max = int64(ns)
		}
		view.Counts[idx] += n
		view.Count += n
	}
	if sum, ok := s.Values[name+"_sum"+labels]; ok {
		view.Sum = int64(math.Round(sum * 1e9))
	}
	return view, true
}

// StageStats summarizes one duration-histogram delta between two scrapes:
// how many times the stage ran and where its latency distribution sits,
// all in seconds.
type StageStats struct {
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	P50          float64 `json:"p50_seconds"`
	P95          float64 `json:"p95_seconds"`
	P99          float64 `json:"p99_seconds"`
}

// DeltaStage diffs the named duration histogram between two scrapes
// (before may be nil for an absolute reading) and summarizes the delta.
func DeltaStage(after, before *Scrape, name, labels string) (StageStats, bool) {
	av, ok := after.HistogramView(name, labels)
	if !ok {
		return StageStats{}, false
	}
	if before != nil {
		if bv, ok := before.HistogramView(name, labels); ok {
			av = av.Sub(bv)
		}
	}
	return StageStats{
		Count:        av.Count,
		TotalSeconds: float64(av.Sum) / 1e9,
		P50:          float64(av.Quantile(0.50)) / 1e9,
		P95:          float64(av.Quantile(0.95)) / 1e9,
		P99:          float64(av.Quantile(0.99)) / 1e9,
	}, true
}
