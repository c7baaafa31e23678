package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the names, units, directions
// and bounds the program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadCatalog) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(b.Workloads), len(workloadCatalog))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadCatalog[i].name || w.Why != workloadCatalog[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, catalog %q/%q", i, w.Name, w.Why, workloadCatalog[i].name, workloadCatalog[i].why)
		}
		if _, ok := workloadExperiments[w.Name]; !ok && w.Name != "chaos" {
			t.Errorf("workload %s has no experiment set", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricInfo, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.betterDir() {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, catalog %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.betterDir())
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the catalog's %v", kind, m.Name, w.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)

	reported := map[string]bool{"profile.cpu_s": true}
	for _, l := range selfLayers {
		reported[l+".self_s"] = true
	}
	for _, m := range perLayer {
		delete(reported, m.name)
	}
	for name := range reported {
		t.Errorf("fold layer %s is computed but not in the per-layer catalog", name)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; with [1, 2] it extrapolates to [0.75, 1.5, 2.25].
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestLoadGoldenSplitsEverySection(t *testing.T) {
	golden, err := loadGolden("../report.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range workloadExperiments {
		for _, id := range ids {
			if len(golden[id]) == 0 {
				t.Errorf("no golden section for %s", id)
			}
		}
	}
	if _, err := loadGolden("catalog_test.go"); err == nil {
		t.Error("a file with no report sections loaded as a golden report")
	}
}
