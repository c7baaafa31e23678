package core

import (
	"testing"

	"flm/internal/approx"
	"flm/internal/graph"
	"flm/internal/sim"
)

func approxTrianglePanel() map[string]sim.Builder {
	peers := []string{"a", "b", "c"}
	return map[string]sim.Builder{
		"median":    approx.NewMedian(2),
		"median@1":  approx.NewMedian(1),
		"dlpsw-2":   approx.NewDLPSW(1, peers, 2),
		"dlpsw-6":   approx.NewDLPSW(1, peers, 6),
		"own-value": approx.NewMedian(0), // decides before hearing anyone
	}
}

func TestSimpleApproxTriangleDefeatsEveryDevice(t *testing.T) {
	g := graph.Triangle()
	for name, builder := range approxTrianglePanel() {
		t.Run(name, func(t *testing.T) {
			cr, err := SimpleApproxTriangle(uniformBuilders(g, builder), name, 12)
			if err != nil {
				t.Fatalf("engine error: %v", err)
			}
			if !cr.Contradicted() {
				t.Fatalf("device %s survived Theorem 5:\n%s", name, cr)
			}
			if len(cr.Links) != 3 {
				t.Errorf("chain has %d links, want 3", len(cr.Links))
			}
		})
	}
}

func TestSimpleApproxGeneralCase(t *testing.T) {
	g := graph.Complete(6)
	builder := approx.NewDLPSW(2, g.Names(), 6)
	cr, err := SimpleApproxNodes(g, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
		uniformBuilders(g, builder), "dlpsw-f2", 12)
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	if !cr.Contradicted() {
		t.Fatalf("DLPSW f=2 survived on K6:\n%s", cr)
	}
}

func TestSimpleApproxRejectsAdequate(t *testing.T) {
	g := graph.Complete(4)
	builder := approx.NewMedian(2)
	if _, err := SimpleApproxNodes(g, 1, []int{0}, []int{1}, []int{2, 3},
		uniformBuilders(g, builder), "median", 8); err == nil {
		t.Error("engine accepted an adequate graph")
	}
}

func TestEDGRingSize(t *testing.T) {
	tests := []struct {
		params  EDGParams
		wantErr bool
	}{
		{EDGParams{Eps: 0.1, Delta: 1, Gamma: 1}, false},
		{EDGParams{Eps: 0.5, Delta: 1, Gamma: 0.1}, false},
		{EDGParams{Eps: 1, Delta: 1, Gamma: 1}, true},    // eps >= delta
		{EDGParams{Eps: 2, Delta: 1, Gamma: 1}, true},    // eps >= delta
		{EDGParams{Eps: 0, Delta: 1, Gamma: 1}, true},    // non-positive
		{EDGParams{Eps: 0.1, Delta: 1, Gamma: -1}, true}, // non-positive
	}
	for _, tt := range tests {
		k, size, err := tt.params.RingSize()
		if tt.wantErr {
			if err == nil {
				t.Errorf("%+v: expected error", tt.params)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: %v", tt.params, err)
			continue
		}
		if size != k+2 || size%3 != 0 {
			t.Errorf("%+v: k=%d size=%d not consistent", tt.params, k, size)
		}
		// The defining inequality must hold.
		if !(tt.params.Delta > 2*tt.params.Gamma/float64(k-1)+tt.params.Eps) {
			t.Errorf("%+v: k=%d does not satisfy delta > 2γ/(k-1)+ε", tt.params, k)
		}
	}
}

func TestEpsilonDeltaGammaDefeatsDevices(t *testing.T) {
	params := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	peers := []string{"a", "b", "c"}
	panel := map[string]sim.Builder{
		"median":  approx.NewMedian(2),
		"dlpsw-4": approx.NewDLPSW(1, peers, 4),
	}
	g := graph.Triangle()
	for name, builder := range panel {
		t.Run(name, func(t *testing.T) {
			cr, err := EpsilonDeltaGamma(params, uniformBuilders(g, builder), name, 10)
			if err != nil {
				t.Fatalf("engine error: %v", err)
			}
			if !cr.Contradicted() {
				t.Fatalf("device %s survived Theorem 6:\n%s", name, cr)
			}
			k, size, _ := params.RingSize()
			if cr.CoverSize != size {
				t.Errorf("cover size %d, want %d", cr.CoverSize, size)
			}
			if len(cr.Links) != k+1 {
				t.Errorf("chain has %d links, want %d", len(cr.Links), k+1)
			}
		})
	}
}

func TestEpsilonDeltaGammaRejectsTrivialParams(t *testing.T) {
	g := graph.Triangle()
	params := EDGParams{Eps: 1, Delta: 1, Gamma: 0.5}
	if _, err := EpsilonDeltaGamma(params, uniformBuilders(g, approx.NewMedian(2)), "median", 8); err == nil {
		t.Error("eps >= delta accepted")
	}
}

func TestEpsilonDeltaGammaNodesGeneral(t *testing.T) {
	params := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	// Triangle with singleton blocks reduces to the direct argument.
	tri := graph.Triangle()
	cr, err := EpsilonDeltaGammaNodes(params, tri, 1, []int{0}, []int{1}, []int{2},
		uniformBuilders(tri, approx.NewMedian(2)), "median", 10)
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	if !cr.Contradicted() {
		t.Fatalf("median survived:\n%s", cr)
	}
	// K6 with f=2.
	k6 := graph.Complete(6)
	cr, err = EpsilonDeltaGammaNodes(params, k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
		uniformBuilders(k6, approx.NewDLPSW(2, k6.Names(), 4)), "dlpsw", 10)
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	if !cr.Contradicted() {
		t.Fatalf("DLPSW survived on K6:\n%s", cr)
	}
}

func TestEpsilonDeltaGammaNodesValidation(t *testing.T) {
	params := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	g := graph.Complete(4)
	if _, err := EpsilonDeltaGammaNodes(params, g, 1, []int{0}, []int{1}, []int{2, 3},
		uniformBuilders(g, approx.NewMedian(2)), "median", 10); err == nil {
		t.Error("adequate graph accepted")
	}
}

func TestEpsilonDeltaGammaConnectivity(t *testing.T) {
	params := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	dia := graph.Diamond()
	cr, err := EpsilonDeltaGammaConnectivity(params, dia, 1, []int{1}, []int{3}, 0, 2,
		uniformBuilders(dia, approx.NewMedian(2)), "median", 10)
	if err != nil {
		t.Fatalf("engine error: %v", err)
	}
	if !cr.Contradicted() {
		t.Fatalf("median survived the connectivity argument:\n%s", cr)
	}
	k, size, _ := params.RingSize()
	if cr.CoverSize != 4*size {
		t.Errorf("cover size %d, want %d copies of 4 nodes", cr.CoverSize, size)
	}
	// X scenarios (k+1) plus Y scenarios (k).
	if len(cr.Links) != 2*k+1 {
		t.Errorf("links = %d, want %d", len(cr.Links), 2*k+1)
	}
}

func TestLemma7Bounds(t *testing.T) {
	params := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	k, _, err := params.RingSize()
	if err != nil {
		t.Fatal(err)
	}
	ceilings, floor := Lemma7Bounds(params, k)
	// Ceiling at node 1 is delta + gamma.
	if got := ceilings[1]; got != 1.5 {
		t.Errorf("ceiling[1] = %v, want 1.5", got)
	}
	// The contradiction: the ceiling at node k must fall below the floor.
	if ceilings[k] >= floor {
		t.Errorf("no contradiction: ceiling[k]=%v >= floor=%v (k=%d)", ceilings[k], floor, k)
	}
}

// A block of more than f nodes is not a fault set, so the node-bound
// argument does not apply to it; every prover must reject the layout.
func TestSimpleApproxRejectsOversizedBlock(t *testing.T) {
	g := graph.Complete(5)
	if _, err := SimpleApproxNodes(g, 2, []int{0, 1, 2}, []int{3}, []int{4},
		uniformBuilders(g, approx.NewMedian(2)), "median", 8); err == nil {
		t.Error("3-node block accepted with f=2")
	}
}
