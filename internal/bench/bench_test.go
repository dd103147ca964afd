package bench

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg() Config {
	return Config{Seeds: 3, N: 256, Quick: true}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q != experiment ID %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s: ragged row %v", e.ID, row)
				}
			}
			if !tbl.Passed() {
				t.Fatalf("%s: verdict %s", e.ID, tbl.Verdict())
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "claim",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("hello %d", 42)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "paper: claim", "333", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{ID: "T", Columns: []string{"a", "b"}}
	tbl.AddRow("1", `va"l,ue`)
	tbl.AddNote("n")
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"va""l,ue"`) {
		t.Fatalf("CSV quoting wrong:\n%s", out)
	}
	if !strings.Contains(out, "# n") {
		t.Fatalf("CSV note missing:\n%s", out)
	}
}

func TestTableVerdict(t *testing.T) {
	tbl := &Table{ID: "T", Columns: []string{"a"}}
	tbl.AddRow("1")
	render := func() string {
		var text, csv bytes.Buffer
		if err := tbl.Render(&text); err != nil {
			t.Fatal(err)
		}
		if err := tbl.RenderCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return text.String() + csv.String()
	}
	if out := render(); strings.Contains(out, "verdict") {
		t.Fatalf("table without checks rendered a verdict:\n%s", out)
	}
	tbl.AddCheck("worst excess", 6, "<=", 10)
	tbl.AddCheck("ratio", 1.98, ">=", 0.25)
	tbl.AddCheck("excess(max)", 0, "=", 0)
	if !tbl.Passed() {
		t.Fatalf("passing checks failed: %s", tbl.Verdict())
	}
	out := render()
	for _, want := range []string{"\nverdict: PASS worst excess 6 <= 10; ratio 1.98 >= 0.25; excess(max) 0 = 0\n", "\n# verdict: PASS "} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	tbl.AddCheck("max load", 3, "<=", 2)
	if tbl.Passed() {
		t.Fatal("a failing check passed")
	}
	out = render()
	for _, want := range []string{"\nverdict: FAIL ", "\n# verdict: FAIL ", "max load 3 <= 2 (fails)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "10 (fails)") {
		t.Fatalf("a passing check is marked failing:\n%s", out)
	}
}

func TestAddRowPanicsOnRagged(t *testing.T) {
	tbl := &Table{ID: "T", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged row did not panic")
		}
	}()
	tbl.AddRow("only one")
}

func TestFind(t *testing.T) {
	if _, ok := Find("e9"); !ok {
		t.Fatal("case-insensitive Find failed")
	}
	if _, ok := Find("E999"); ok {
		t.Fatal("Find invented an experiment")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) != 17 {
		t.Fatalf("expected 17 experiments, found %d", len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seeds != 10 || c.N != 1024 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Seeds produce distinct values.
	if c.seed(0) == c.seed(1) {
		t.Fatal("seed collision")
	}
}
