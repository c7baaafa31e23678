package clocksync

import (
	"flm/internal/graph"
)

// This file mechanizes the general cases of Theorem 8 ("the general case
// of |G| <= 3f is a simple extension of this argument; the connectivity
// bound also follows easily"). Both run the one Theorem 8 driver of
// theorem8.go; they differ only in the layout:
//
//   - Theorem8Nodes: any graph with n <= 3f nodes, partitioned into
//     blocks a, b, c of size <= f. The covering is the cyclic
//     ring-of-blocks (positions ...a_i b_i c_i a_{i+1}...), every node at
//     ring position j runs hardware clock q∘h⁻ʲ, and each adjacent block
//     pair (j, j+1), scaled by hʲ, is a correct behavior with clocks q
//     and p and the third block faulty. Theorem8 is this case on the
//     triangle with singleton blocks.
//
//   - Theorem8Connectivity: any graph with a cut {b,d} of size <= 2f
//     separating u from v. The covering is the cyclic ring of copies
//     with the a-d edges crossed; all nodes of copy i run q∘h⁻ⁱ. The
//     within-copy scenarios X_i (copy i minus d, scaled by hⁱ: all
//     clocks q) chain each copy internally, and the cross-copy scenarios
//     Y_i = c_i ∪ d_i ∪ a_{i-1} (scaled by hⁱ⁻¹: a at q, c∪d at p) climb
//     the induction one copy per step.

// Theorem8Nodes mechanizes the general node bound of Theorem 8.
func Theorem8Nodes(params Params, g *graph.Graph, aSet, bSet, cSet []int, f int, builders map[string]Builder) (*Result, error) {
	p, err := graph.NewPartition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	prep, err := prepareTheorem8(params, func(k int) *scaledLayout { return blockRingLayout(p, k) })
	if err != nil {
		return nil, err
	}
	return prep.run(builders)
}

// Theorem8Connectivity mechanizes the connectivity bound of Theorem 8.
func Theorem8Connectivity(params Params, g *graph.Graph, bSet, dSet []int, uNode, vNode, f int, builders map[string]Builder) (*Result, error) {
	cut, err := graph.NewCut(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	prep, err := prepareTheorem8(params, func(k int) *scaledLayout { return cutLayout(cut, k) })
	if err != nil {
		return nil, err
	}
	return prep.run(builders)
}
