package core

import (
	"testing"

	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/runcache"
	"flm/internal/sim"
)

// TestChainRunCacheEquivalence runs the same contradiction chain with the
// run cache enabled and disabled and demands identical reported chains —
// the cache must be semantically invisible — while confirming that the
// repeated cached pass was actually served from the run cache.
func TestChainRunCacheEquivalence(t *testing.T) {
	g := graph.MustNew("a", "b", "c")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	chain := func() string {
		cr, err := ByzantineTriangle(uniformBuilders(g, byzantine.NewMajority(2)), "majority", 8)
		if err != nil {
			t.Fatal(err)
		}
		return cr.String()
	}

	off := runcache.SetEnabled(false)
	want := chain()
	off()

	on := runcache.SetEnabled(true)
	defer on()
	sim.ResetRunCache()
	first := chain()
	st0 := sim.RunCacheStats()
	second := chain()
	if st1 := sim.RunCacheStats(); st1.Hits <= st0.Hits {
		t.Fatalf("repeat chain was not served from the run cache: %+v -> %+v", st0, st1)
	}

	if first != want || second != want {
		t.Fatalf("cached chain diverged from uncached chain:\nuncached:\n%s\ncached #1:\n%s\ncached #2:\n%s",
			want, first, second)
	}
}
