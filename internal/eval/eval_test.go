package eval

import (
	"strings"
	"testing"

	"flm/internal/byzantine"
	"flm/internal/dolev"
	"flm/internal/graph"
)

func TestRegistryShape(t *testing.T) {
	reg := Registry()
	if len(reg) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Name == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("E7"); !ok {
		t.Error("Find(E7) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Error("Find(E99) succeeded")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("x", 42)
	tbl.AddRow(1.5, "yy")
	out := tbl.Render()
	for _, want := range []string{"demo", "a", "bee", "x", "42", "1.5", "yy", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesRender(t *testing.T) {
	s := &Series{Title: "fig", XLabel: "x", YLabels: []string{"y1", "y2"}}
	s.X = []float64{1, 2}
	s.Y = [][]float64{{10, 20}, {30, 40}}
	out := s.Render()
	for _, want := range []string{"fig", "x", "y1", "y2", "10", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// Every experiment must run to completion and produce non-empty output.
// This is the end-to-end integration test of the whole reproduction.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Errorf("result ID %s, want %s", res.ID, e.ID)
			}
			if len(res.Tables)+len(res.Figures) == 0 {
				t.Error("experiment produced no tables or figures")
			}
			out := res.Render()
			if len(out) < 100 {
				t.Errorf("suspiciously short rendering:\n%s", out)
			}
			for _, tbl := range res.Tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q has no rows", tbl.Title)
				}
			}
			for _, fig := range res.Figures {
				if len(fig.X) == 0 {
					t.Errorf("figure %q has no points", fig.Title)
				}
				for i, ys := range fig.Y {
					if len(ys) != len(fig.X) {
						t.Errorf("figure %q series %d length %d != %d", fig.Title, i, len(ys), len(fig.X))
					}
				}
			}
		})
	}
}

// The tightness experiments must report full pass rates on adequate
// graphs (any regression in the protocols shows up here).
func TestE9FullPassOnAdequate(t *testing.T) {
	res, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	eig := res.Tables[0]
	for _, row := range eig.Rows {
		if row[2] == "true" && row[3] != row[4] {
			t.Errorf("adequate n=%s f=%s passed %s/%s", row[0], row[1], row[3], row[4])
		}
	}
	// Crossover figure: 0 at n=3, 1.0 from n=4 on.
	fig := res.Figures[0]
	if fig.Y[0][0] != 0 {
		t.Errorf("crossover at n=3 is %v, want 0", fig.Y[0][0])
	}
	for i := 1; i < len(fig.X); i++ {
		if fig.Y[0][i] != 1 {
			t.Errorf("crossover at n=%v is %v, want 1", fig.X[i], fig.Y[0][i])
		}
	}
}

// TestE10DolevAgreementOnSplitInputs runs E10's four Dolev-routed EIG
// systems against the attack panel on mixed input patterns. E10 itself
// sweeps only the all-0 and all-1 patterns, where validity alone fixes
// the decision; split inputs are what exercise agreement over the
// overlay.
func TestE10DolevAgreementOnSplitInputs(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		f    int
	}{
		{"Wheel(7)", graph.Wheel(7), 1},
		{"Circulant(7;1,2)", graph.Circulant(7, 1, 2), 1},
		{"Hypercube(3)", graph.Hypercube(3), 1},
		{"Circulant(9;1,2,3)", graph.Circulant(9, 1, 2, 3), 2},
	} {
		r, err := dolev.NewRouter(c.g, c.f)
		if err != nil {
			t.Fatalf("router for %s: %v", c.name, err)
		}
		honest := dolev.Overlay(r, byzantine.NewEIG(c.f, c.g.Names()))
		patterns := bitPatternsFor(c.g.N(), 4)[2:]
		passed, total, err := attackSweep(c.g, honest, r.Rounds(byzantine.EIGRounds(c.f)), patterns, 17)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if total == 0 || passed != total {
			t.Errorf("%s on patterns %#x: passed %d/%d attack configs", c.name, patterns, passed, total)
		}
	}
}

func TestE11SpreadWithinBound(t *testing.T) {
	res, err := RunE11()
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	for i := range fig.X {
		if fig.Y[0][i] > fig.Y[1][i]+1e-12 {
			t.Errorf("round %v: spread %v exceeds bound %v", fig.X[i], fig.Y[0][i], fig.Y[1][i])
		}
	}
}
