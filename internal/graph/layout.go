package graph

import "fmt"

// This file owns the fault-set layouts of the general impossibility
// proofs: the checked a/b/c partition of the node bounds (Section 3.1),
// the checked b/d cut of the connectivity bounds (Section 3.2), and the
// coverings each one induces. Every prover takes its layout from here,
// so a layout is validated in exactly one place.

// Block ids: a node's role in a layout.
const (
	blockA = iota
	blockB
	blockC
	blockD // cuts only
)

// Partition splits G's nodes into the blocks A, B, C of the node-bound
// proofs. NewPartition guarantees the blocks are non-empty, disjoint,
// cover G and hold at most f nodes each, so n <= 3f.
type Partition struct {
	G       *Graph
	F       int
	A, B, C []int
	block   []int // block[x] is blockA, blockB or blockC
}

// NewPartition checks (a, b, c) as a partition of g for fault bound f.
func NewPartition(g *Graph, f int, a, b, c []int) (*Partition, error) {
	if g.N() > 3*f {
		return nil, fmt.Errorf("graph: %d > 3f = %d nodes; not inadequate by node count", g.N(), 3*f)
	}
	p := &Partition{G: g, F: f, A: a, B: b, C: c, block: make([]int, g.N())}
	for x := range p.block {
		p.block[x] = -1
	}
	for id, set := range [][]int{a, b, c} {
		name := "abc"[id : id+1]
		if len(set) == 0 {
			return nil, fmt.Errorf("graph: partition block %s is empty", name)
		}
		if len(set) > f {
			return nil, fmt.Errorf("graph: partition block %s has %d > f = %d nodes", name, len(set), f)
		}
		for _, x := range set {
			if x < 0 || x >= g.N() {
				return nil, fmt.Errorf("graph: partition node %d out of range", x)
			}
			if p.block[x] != -1 {
				return nil, fmt.Errorf("graph: node %s in two partition blocks", g.Name(x))
			}
			p.block[x] = id
		}
	}
	for x, id := range p.block {
		if id == -1 {
			return nil, fmt.Errorf("graph: node %s not covered by the partition", g.Name(x))
		}
	}
	return p, nil
}

// Cover returns the m-copy cyclic covering with every a-c edge crossed
// forward, a_i -- c_(i+1). Two copies give the paper's double cover, the
// hexagon of blocks u,v,w,x,y,z; more give the ring of blocks
// ... c_(i+1) a_i b_i c_i a_(i-1) ... of the timed problems' general
// node bounds.
func (p *Partition) Cover(m int) *Cover {
	return CyclicCover(p.G, func(u, v int) bool {
		return p.block[u] == blockA && p.block[v] == blockC
	}, m)
}

// Scenarios returns the three block-pair scenarios of copy i of
// p.Cover(m): a_i ∪ b_i (c faulty), b_i ∪ c_i (a faulty) and
// a_i ∪ c_(i+1) (b faulty). Consecutive scenarios share a whole block,
// which chains every node's choice around the ring of copies.
func (p *Partition) Scenarios(i, m int) [3][]int {
	n := p.G.N()
	return [3][]int{
		inCopy(n, m, i, p.A, p.B),
		inCopy(n, m, i, p.B, p.C),
		append(inCopy(n, m, i, p.A), inCopy(n, m, i+1, p.C)...),
	}
}

// BlockRing is the ring-of-blocks layout of the general node bounds of
// Theorems 6 and 8: copies of G with every c-a edge crossed forward,
// c_i -- a_(i+1), so the blocks sit at consecutive ring positions
// ... a_i b_i c_i a_(i+1) ... and adjacent positions hold adjacent
// blocks.
type BlockRing struct {
	Cover    *Cover
	Position []int   // Position[s] is the ring position of S-node s
	Members  [][]int // Members[j] lists the S-nodes at position j, ascending
}

// BlockRing lays the blocks out on a ring of the given number of
// positions, a multiple of 3 and at least 6.
func (p *Partition) BlockRing(positions int) *BlockRing {
	if positions < 6 || positions%3 != 0 {
		panic(fmt.Sprintf("graph: block ring needs a multiple of 3 positions >= 6, got %d", positions))
	}
	cover := CyclicCover(p.G, func(u, v int) bool {
		return p.block[u] == blockC && p.block[v] == blockA
	}, positions/3)
	n := p.G.N()
	r := &BlockRing{Cover: cover, Position: make([]int, cover.S.N()), Members: make([][]int, positions)}
	for s := range r.Position {
		j := (s/n)*3 + p.block[s%n]
		r.Position[s] = j
		r.Members[j] = append(r.Members[j], s)
	}
	return r
}

// Cut is a fault cut of the connectivity proofs: disjoint node sets B
// and D of at most f nodes each whose removal separates two nodes u and
// v. A is u's component in G - (B ∪ D) and C the rest of G - (B ∪ D),
// both ascending.
type Cut struct {
	G          *Graph
	F          int
	B, D, A, C []int
	block      []int // block[x] is blockA, blockB, blockC or blockD
}

// NewCut checks (b, d) as a cut of g separating u from v for fault
// bound f and derives its a and c sides.
func NewCut(g *Graph, f int, b, d []int, u, v int) (*Cut, error) {
	c := &Cut{G: g, F: f, B: b, D: d, block: make([]int, g.N())}
	for x := range c.block {
		c.block[x] = -1
	}
	for _, half := range []struct {
		id    int
		nodes []int
	}{{blockB, b}, {blockD, d}} {
		if len(half.nodes) > f {
			return nil, fmt.Errorf("graph: cut half has %d > f = %d nodes", len(half.nodes), f)
		}
		for _, x := range half.nodes {
			if x < 0 || x >= g.N() {
				return nil, fmt.Errorf("graph: cut node %d out of range", x)
			}
			switch c.block[x] {
			case -1:
			case half.id:
				return nil, fmt.Errorf("graph: duplicate cut node %s", g.Name(x))
			default:
				return nil, fmt.Errorf("graph: cut sets b and d overlap at %s", g.Name(x))
			}
			c.block[x] = half.id
		}
	}
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return nil, fmt.Errorf("graph: separated nodes %d, %d out of range", u, v)
	}
	if c.block[u] != -1 || c.block[v] != -1 {
		return nil, fmt.Errorf("graph: separated nodes must lie outside the cut")
	}
	c.block[u] = blockA
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range g.Neighbors(x) {
			if c.block[y] == -1 {
				c.block[y] = blockA
				stack = append(stack, y)
			}
		}
	}
	if c.block[v] == blockA {
		return nil, fmt.Errorf("graph: removing b ∪ d does not separate %s from %s", g.Name(u), g.Name(v))
	}
	for x, id := range c.block {
		switch id {
		case blockA:
			c.A = append(c.A, x)
		case -1:
			c.block[x] = blockC
			c.C = append(c.C, x)
		}
	}
	return c, nil
}

// Cover returns the m-copy ring of copies with every a-d edge crossed
// forward, a_i -- d_(i+1). Two copies give the paper's double cover (the
// eight-node ring for the diamond); more give the ring of copies whose
// arcs are long enough for the Bounded-Delay argument.
func (c *Cut) Cover(m int) *Cover {
	return CyclicCover(c.G, func(u, v int) bool {
		return c.block[u] == blockA && c.block[v] == blockD
	}, m)
}

// Scenarios returns the two spliceable scenarios of copy i of
// c.Cover(m): X_i, copy i without its d-nodes (d faulty), and
// Y_i = c_i ∪ d_i ∪ a_(i-1) (b faulty). Y_i shares a_(i-1) with X_(i-1)
// and c_i with X_i, which chains every copy to the next.
func (c *Cut) Scenarios(i, m int) (x, y []int) {
	n := c.G.N()
	for node, id := range c.block {
		if id != blockD {
			x = append(x, i*n+node)
		}
	}
	return x, append(inCopy(n, m, i, c.C, c.D), inCopy(n, m, i-1, c.A)...)
}

// inCopy returns the S-nodes of the given G-node sets in copy i (taken
// mod m) of an m-copy cyclic cover of an n-node graph.
func inCopy(n, m, i int, sets ...[]int) []int {
	base := ((i % m) + m) % m * n
	var out []int
	for _, set := range sets {
		for _, x := range set {
			out = append(out, base+x)
		}
	}
	return out
}

// PartitionCover is the double cover for the n <= 3f node bound. The
// covering itself needs no fault bound, so the blocks are checked as a
// partition for f = n.
func PartitionCover(g *Graph, a, b, c []int) (*Cover, error) {
	p, err := NewPartition(g, g.N(), a, b, c)
	if err != nil {
		return nil, err
	}
	return p.Cover(2), nil
}

// CutCover is the double cover for the connectivity bound: b and d are
// disjoint node sets whose removal separates u from v, checked as a cut
// for f = n.
func CutCover(g *Graph, b, d []int, u, v int) (*Cover, error) {
	c, err := NewCut(g, g.N(), b, d, u, v)
	if err != nil {
		return nil, err
	}
	return c.Cover(2), nil
}
