// Package bench is the experiment harness: a registry of the seventeen
// experiments (E1–E17) listed in DESIGN.md, each regenerating one
// table of the reproduction — the paper's theorem-level claims measured on
// the implemented algorithms. The cmd/pba-bench binary renders every table;
// bench_test.go at the repository root exposes each experiment as a
// testing.B benchmark.
package bench

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"repro/internal/model"
	"repro/internal/sweep"
)

// Table is one experiment's output: a titled grid of formatted cells,
// descriptive notes, and the checks that decide the experiment's verdict
// on its paper claim.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
	Checks  []Check
}

// Check is one statistic computed from the same runs that fill a table's
// rows, with the bound the paper claim puts on it.
type Check struct {
	Stat  string // what was measured, e.g. "worst excess"
	Value float64
	Op    string // "<=", ">=" or "="
	Bound float64
}

// Pass reports whether the value respects the bound.
func (c Check) Pass() bool {
	switch c.Op {
	case "<=":
		return c.Value <= c.Bound
	case ">=":
		return c.Value >= c.Bound
	case "=":
		return c.Value == c.Bound
	}
	return false
}

func (c Check) String() string {
	return fmt.Sprintf("%s %.4g %s %.4g", c.Stat, c.Value, c.Op, c.Bound)
}

// AddRow appends a formatted row; the cell count must match Columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a descriptive line rendered under the table; only
// checks decide whether the claim holds.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddCheck appends one verdict statistic.
func (t *Table) AddCheck(stat string, value float64, op string, bound float64) {
	t.Checks = append(t.Checks, Check{Stat: stat, Value: value, Op: op, Bound: bound})
}

// Passed reports whether every check holds.
func (t *Table) Passed() bool {
	for _, c := range t.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// Verdict renders the checks as one line, "PASS ..." or "FAIL ..." with
// each failing check marked; it is "" for a table without checks.
func (t *Table) Verdict() string {
	if len(t.Checks) == 0 {
		return ""
	}
	parts := make([]string, len(t.Checks))
	for i, c := range t.Checks {
		parts[i] = c.String()
		if !c.Pass() {
			parts[i] += " (fails)"
		}
	}
	word := "PASS"
	if !t.Passed() {
		word = "FAIL"
	}
	return word + " " + strings.Join(parts, "; ")
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if v := t.Verdict(); v != "" {
		fmt.Fprintf(&b, "verdict: %s\n", v)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (columns header + rows; the verdict
// and the notes become trailing comment lines).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(row)
	}
	if v := t.Verdict(); v != "" {
		fmt.Fprintf(&b, "# verdict: %s\n", v)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Config scales an experiment run.
type Config struct {
	// Seeds is the number of independent runs per configuration (w.h.p.
	// claims are checked over the worst seed). 0 means 10.
	Seeds int
	// N is the default bin count for single-n sweeps. 0 means 1024.
	N int
	// Quick shrinks the heaviest experiments for CI-speed runs.
	Quick bool
	// Workers for the parallel engines (0 = GOMAXPROCS).
	Workers int
	// BaseSeed offsets all run seeds, for independent replications.
	BaseSeed uint64
	// Mode selects the engine for the Aheavy sweeps through
	// sweep.ApplyMode: "" or "mass" runs the count-based mass engine (the
	// historical default for the E-tables), "agent" forces the per-ball
	// agent engine — slower, but it measures exact per-agent message maxima
	// and is the baseline the mass engine's speedups are quoted against.
	Mode string
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.N == 0 {
		c.N = 1024
	}
	return c
}

// seed is the seed of run index i: the sweep runner's sequence, so a
// table row can be replayed with pba-run or pba-sweep.
func (c Config) seed(i int) uint64 { return sweep.Spec{BaseSeed: c.BaseSeed}.RunSeed(i) }

// run executes the registry algorithm alg on p with the seed of run index
// i and checks the result's invariants, so no verdict reads a run that
// lost a ball. Aheavy names go onto the engine Mode selects.
func (c Config) run(alg string, p model.Problem, i int) (*model.Result, error) {
	if strings.HasPrefix(alg, "aheavy") {
		var err error
		if alg, err = sweep.ApplyMode(alg, cmp.Or(c.Mode, "mass")); err != nil {
			return nil, err
		}
	}
	res, err := sweep.Run(alg, p, sweep.Options{Seed: c.seed(i), Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	return res, res.Check()
}

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// Registry lists every experiment in DESIGN.md order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", "Aheavy maximal load (Theorem 1/6)", E1AheavyLoad},
		{"E2", "Aheavy round count (Theorem 1/6)", E2AheavyRounds},
		{"E3", "Aheavy message complexity (Theorem 6)", E3Messages},
		{"E4", "Phase-1 trajectory vs estimate (Claim 2)", E4Trajectory},
		{"E5", "One-shot random allocation excess (baseline)", E5OneShot},
		{"E6", "Sequential and batched d-choice (BCSV06 baseline)", E6Greedy},
		{"E7", "Alight substrate (Theorem 5 / LW16)", E7Alight},
		{"E8", "Asymmetric algorithm (Theorem 3)", E8Asymmetric},
		{"E9", "One-round rejection lower bound (Theorem 7)", E9Rejection},
		{"E10", "Round lower bound vs Aheavy (Theorem 2)", E10RoundsLB},
		{"E11", "Naive fixed threshold needs Ω(log n) rounds (§1.1)", E11FixedThreshold},
		{"E12", "Degree simulation (Lemmas 2–3)", E12Simulation},
		{"E13", "Ablation: threshold slack exponent β", E13SlackAblation},
		{"E14", "Ablation: phase-1 degree", E14Degree},
		{"E15", "Deterministic n-round algorithm (§3 note)", E15Deterministic},
		{"E16", "Extension: weighted balls", E16Weighted},
		{"E17", "Extension: fault tolerance", E17Faults},
	}
}

// Find returns the experiment with the given ID (case-insensitive).
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
