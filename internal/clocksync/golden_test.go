package clocksync

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens")

// goldenResults runs the Theorem 8 cases of experiments E7 and E8: the
// three-device panel on the triangle, the K6 block and Diamond cut cases
// with chase devices, and the corollary grid against the trivial and
// chasing families. It returns the results with their names, in order.
func goldenResults() ([]string, []*Result, error) {
	params := stdParams(1.5)
	var names []string
	var results []*Result
	add := func(name string, r *Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		names, results = append(names, name), append(results, r)
		return nil
	}
	for _, d := range []struct {
		name string
		b    Builder
	}{
		{"trivial-lower", NewTrivialLower(params.L)},
		{"chase-max", NewChaseMax(params.L)},
		{"midpoint", NewMidpoint(params.L)},
	} {
		r, err := Theorem8(params, triBuilders(d.b))
		if err := add("Theorem8 "+d.name, r, err); err != nil {
			return nil, nil, err
		}
	}
	k6, dia := graph.Complete(6), graph.Diamond()
	r, err := Theorem8Nodes(params, k6, []int{0, 1}, []int{2, 3}, []int{4, 5}, 2, uniformBuilders(k6, NewChaseMax(params.L)))
	if err := add("Theorem8Nodes K6 chase-max", r, err); err != nil {
		return nil, nil, err
	}
	r, err = Theorem8Connectivity(params, dia, []int{1}, []int{3}, 0, 2, 1, uniformBuilders(dia, NewChaseMax(params.L)))
	if err := add("Theorem8Connectivity Diamond chase-max", r, err); err != nil {
		return nil, nil, err
	}
	tPrime := clockfn.NewQ(4, 1)
	cases := []GridCase{
		{Name: "Cor12", Params: Corollary12(3, 2, 1, 0, 1, 4, 1.5, tPrime)},
		{Name: "Cor13", Params: Corollary13(3, 2, 1, 0, 1.5, tPrime)},
		{Name: "Cor14", Params: Corollary14(2, 1, 1, 0, 1, tPrime)},
		{Name: "Cor15", Params: Corollary15(4, 1, 2.5, clockfn.NewQ(8, 1))},
	}
	devices := []GridDevice{TrivialLowerFamily(), ChaseMaxFamily()}
	grid, err := EvalGrid(cases, devices)
	if err != nil {
		return nil, nil, err
	}
	for c, row := range grid {
		for d, r := range row {
			names, results = append(names, "EvalGrid "+cases[c].Name+" "+devices[d].Name), append(results, r)
		}
	}
	return names, results, nil
}

// uniformBuilders runs one device family at every node of g.
func uniformBuilders(g *graph.Graph, b Builder) map[string]Builder {
	out := make(map[string]Builder, g.N())
	for _, name := range g.Names() {
		out[name] = b
	}
	return out
}

// writeGolden renders what a result proves: the induction length, t”,
// every logical clock at t”, the Lemma 11 floors, and per scenario the
// sorted multiset of violated conditions. Violation order inside one
// scenario and the Detail wording are left out on purpose.
func writeGolden(b *strings.Builder, name string, r *Result) {
	fmt.Fprintf(b, "=== %s\nk=%d t''=%s\n", name, r.K, r.TSecond.String())
	fmt.Fprintf(b, "logical: %v\nfloors: %v\nviolations: %d\n", r.Logical, r.Floors, len(r.Violations))
	var order []string
	byScenario := map[string][]string{}
	for _, v := range r.Violations {
		if _, ok := byScenario[v.Scenario]; !ok {
			order = append(order, v.Scenario)
		}
		byScenario[v.Scenario] = append(byScenario[v.Scenario], v.Condition)
	}
	for _, sc := range order {
		conds := byScenario[sc]
		sort.Strings(conds)
		fmt.Fprintf(b, "  %s: %s\n", sc, strings.Join(conds, " "))
	}
}

// TestTheorem8Golden pins every Theorem 8 result experiments E7 and E8
// report. Run with -update to rewrite testdata/theorem8.golden after an
// intended change.
func TestTheorem8Golden(t *testing.T) {
	names, results, err := goldenResults()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range results {
		writeGolden(&b, names[i], r)
	}
	path := filepath.Join("testdata", "theorem8.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("results differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("results differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
