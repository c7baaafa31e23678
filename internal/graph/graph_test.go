package graph

import (
	"reflect"
	"sort"
	"testing"
)

func TestNewRejectsBadNames(t *testing.T) {
	if _, err := New("a", "a"); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New("a", ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestNewIndexRoundTrip(t *testing.T) {
	g := MustNew("x", "y", "z")
	for i, name := range []string{"x", "y", "z"} {
		if got := g.MustIndex(name); got != i {
			t.Errorf("MustIndex(%q) = %d, want %d", name, got, i)
		}
		if got := g.Name(i); got != name {
			t.Errorf("Name(%d) = %q, want %q", i, got, name)
		}
	}
	if _, ok := g.Index("w"); ok {
		t.Error("Index of missing node reported ok")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := MustNew("a", "b")
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
}

func TestAddEdgeNames(t *testing.T) {
	g := MustNew("a", "b")
	if err := g.AddEdgeNames("a", "nope"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdgeNames("nope", "a"); err == nil {
		t.Error("edge from unknown node accepted")
	}
	if err := g.AddEdgeNames("a", "b"); err != nil {
		t.Fatalf("AddEdgeNames: %v", err)
	}
	if !g.HasEdge(0, 1) {
		t.Error("named edge missing")
	}
}

func TestBuildersShape(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		nodes     int
		edges     int
		connected bool
	}{
		{"K1", Complete(1), 1, 0, true},
		{"K4", Complete(4), 4, 6, true},
		{"K7", Complete(7), 7, 21, true},
		{"triangle", Triangle(), 3, 3, true},
		{"diamond", Diamond(), 4, 4, true},
		{"ring5", Ring(5), 5, 5, true},
		{"ring12", Ring(12), 12, 12, true},
		{"line4", Line(4), 4, 3, true},
		{"line1", Line(1), 1, 0, true},
		{"star5", Star(5), 5, 4, true},
		{"wheel6", Wheel(6), 6, 10, true},
		{"circulant8-2", Circulant(8, 1, 2), 8, 16, true},
		{"hypercube3", Hypercube(3), 8, 12, true},
		{"grid2x3", Grid(2, 3), 6, 7, true},
		{"K6-matching", CompleteMinusMatching(6), 6, 12, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.N(); got != tt.nodes {
				t.Errorf("N() = %d, want %d", got, tt.nodes)
			}
			if got := tt.g.NumEdges(); got != tt.edges {
				t.Errorf("NumEdges() = %d, want %d", got, tt.edges)
			}
			if got := tt.g.IsConnected(); got != tt.connected {
				t.Errorf("IsConnected() = %v, want %v", got, tt.connected)
			}
		})
	}
}

func TestDiamondStructure(t *testing.T) {
	g := Diamond()
	wantAdj := map[string][]string{
		"a": {"b", "d"},
		"b": {"a", "c"},
		"c": {"b", "d"},
		"d": {"a", "c"},
	}
	for name, want := range wantAdj {
		u := g.MustIndex(name)
		var got []string
		for _, v := range g.Neighbors(u) {
			got = append(got, g.Name(v))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("neighbors(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestDirectedEdgesArePaired(t *testing.T) {
	g := Wheel(6)
	edges := g.DirectedEdges()
	if len(edges) != 2*g.NumEdges() {
		t.Fatalf("got %d directed edges, want %d", len(edges), 2*g.NumEdges())
	}
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		seen[e] = true
	}
	for _, e := range edges {
		if !seen[Edge{From: e.To, To: e.From}] {
			t.Errorf("edge %v has no reverse", e)
		}
	}
}

// TestPortsNumbering checks the slot and edge-id numbering devices and
// the executor share, on a graph whose name order differs from its
// index order (p10 and p11 sort before p2).
func TestPortsNumbering(t *testing.T) {
	g := Generated("p", 12)
	for u := 0; u < g.N(); u++ {
		g.MustAddEdge(u, (u+1)%g.N())
		g.MustAddEdge(u, (u+5)%g.N())
	}
	ports := g.Ports()
	edges := g.DirectedEdges()
	if !sort.SliceIsSorted(edges, func(i, j int) bool {
		return edges[i].From < edges[j].From || edges[i].From == edges[j].From && edges[i].To < edges[j].To
	}) {
		t.Fatalf("directed edges not in lexicographic order: %v", edges)
	}
	if len(ports.Rev) != len(edges) {
		t.Fatalf("%d edge ids, want %d", len(ports.Rev), len(edges))
	}
	for u := 0; u < g.N(); u++ {
		nbs := ports.Nbrs[u]
		if len(nbs) != g.Degree(u) {
			t.Fatalf("node %s: %d slots, want degree %d", g.Name(u), len(nbs), g.Degree(u))
		}
		for i, v := range nbs {
			if i > 0 && g.Name(nbs[i-1]) >= g.Name(v) {
				t.Errorf("node %s: slots not in name order", g.Name(u))
			}
			id := ports.Out[u] + i
			want := Edge{From: g.Name(u), To: g.Name(v)}
			if edges[id] != want {
				t.Errorf("edge id %d is %v, want %v", id, edges[id], want)
			}
			if got, ok := g.EdgeID(want.From, want.To); !ok || got != id {
				t.Errorf("EdgeID(%v) = %d,%v, want %d", want, got, ok, id)
			}
			if back := edges[ports.Rev[id]]; back != (Edge{From: want.To, To: want.From}) {
				t.Errorf("Rev of %v is %v", want, back)
			}
		}
	}
	if _, ok := g.EdgeID("p0", "p2"); ok {
		t.Error("EdgeID found a non-edge")
	}
	if _, ok := g.EdgeID("p0", "zz"); ok {
		t.Error("EdgeID found an edge to a missing node")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, orig := g.InducedSubgraph([]int{4, 0, 2})
	if sub.N() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3 has %d nodes %d edges", sub.N(), sub.NumEdges())
	}
	if !reflect.DeepEqual(orig, []int{0, 2, 4}) {
		t.Errorf("orig map = %v", orig)
	}
	if sub.Name(0) != "p0" || sub.Name(2) != "p4" {
		t.Errorf("names not preserved: %v", sub.Names())
	}
}

func TestInducedSubgraphOfRing(t *testing.T) {
	g := Ring(6)
	sub, _ := g.InducedSubgraph([]int{0, 1, 2, 4})
	// Edges among {0,1,2,4} in the 6-ring: 0-1, 1-2 only.
	if sub.NumEdges() != 2 {
		t.Errorf("induced ring fragment has %d edges, want 2", sub.NumEdges())
	}
	if sub.IsConnected() {
		t.Error("fragment with isolated node reported connected")
	}
}

func TestInEdgeBorder(t *testing.T) {
	g := Triangle()
	border := g.InEdgeBorder([]int{g.MustIndex("b"), g.MustIndex("c")})
	want := []Edge{{From: "a", To: "b"}, {From: "a", To: "c"}}
	if !reflect.DeepEqual(border, want) {
		t.Errorf("border = %v, want %v", border, want)
	}
}

func TestInEdgeBorderDiamond(t *testing.T) {
	g := Diamond()
	border := g.InEdgeBorder([]int{g.MustIndex("a")})
	want := []Edge{{From: "b", To: "a"}, {From: "d", To: "a"}}
	if !reflect.DeepEqual(border, want) {
		t.Errorf("border = %v, want %v", border, want)
	}
}

func TestComponents(t *testing.T) {
	g := MustNew("a", "b", "c", "d", "e")
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	comps := g.Components()
	want := [][]int{{0, 1}, {2, 3}, {4}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Ring(4)
	c := g.Clone()
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("clone shares adjacency with original")
	}
}
