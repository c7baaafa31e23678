// Package graph implements the communication graphs of FLM85: undirected
// graphs modeled as symmetric pairs of directed edges, vertex connectivity
// (Menger's theorem via unit-capacity max-flow), the adequacy predicate
// (n >= 3f+1 and connectivity >= 2f+1), and the covering-graph
// constructions used by every impossibility proof in the paper.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a communication graph. Nodes are identified by dense integer
// indices and carry stable string names that devices use to address their
// neighbors. Every edge (u,v) implies the reverse edge (v,u), matching the
// paper's "directed edges occur in pairs" convention.
type Graph struct {
	names []string
	index map[string]int
	adj   [][]int // sorted neighbor index lists
}

// New returns a graph with the given node names and no edges.
// Names must be unique and non-empty.
func New(names ...string) (*Graph, error) {
	g := &Graph{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
		adj:   make([][]int, len(names)),
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("graph: empty node name at index %d", i)
		}
		if _, dup := g.index[name]; dup {
			return nil, fmt.Errorf("graph: duplicate node name %q", name)
		}
		g.index[name] = i
	}
	return g, nil
}

// MustNew is New for statically known-good name lists; it panics on error.
func MustNew(names ...string) *Graph {
	g, err := New(names...)
	if err != nil {
		panic(err)
	}
	return g
}

// Generated returns a graph with n nodes named prefix0..prefix(n-1).
func Generated(prefix string, n int) *Graph {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return MustNew(names...)
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.names) }

// Name returns the name of node u.
func (g *Graph) Name(u int) string { return g.names[u] }

// Names returns a copy of all node names in index order.
func (g *Graph) Names() []string { return append([]string(nil), g.names...) }

// Index returns the index of the named node and whether it exists.
func (g *Graph) Index(name string) (int, bool) {
	u, ok := g.index[name]
	return u, ok
}

// MustIndex returns the index of the named node; it panics if absent.
func (g *Graph) MustIndex(name string) int {
	u, ok := g.index[name]
	if !ok {
		panic(fmt.Sprintf("graph: no node named %q", name))
	}
	return u
}

// AddEdge inserts the undirected edge {u,v} (both directed halves).
// Self-loops and duplicate edges are rejected.
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N())
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%s,%s}", g.names[u], g.names[v])
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	return nil
}

// MustAddEdge is AddEdge that panics on error, for literal constructions.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddEdgeNames inserts the undirected edge between two named nodes.
func (g *Graph) AddEdgeNames(u, v string) error {
	ui, ok := g.index[u]
	if !ok {
		return fmt.Errorf("graph: no node named %q", u)
	}
	vi, ok := g.index[v]
	if !ok {
		return fmt.Errorf("graph: no node named %q", v)
	}
	return g.AddEdge(ui, vi)
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Neighbors returns a copy of u's sorted neighbor indices.
func (g *Graph) Neighbors(u int) []int {
	return append([]int(nil), g.adj[u]...)
}

// Slots returns the slot (see Ports) of each of u's neighbors, in
// Neighbors order.
func (g *Graph) Slots(u int) []int {
	slots := make([]int, len(g.adj[u]))
	for i, v := range g.adj[u] {
		for _, w := range g.adj[u] {
			if g.names[w] < g.names[v] {
				slots[i]++
			}
		}
	}
	return slots
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Edge is a directed edge between named nodes; undirected edges appear as
// the two directed halves, matching the paper's model.
type Edge struct {
	From, To string
}

func (e Edge) String() string { return e.From + "->" + e.To }

// DirectedEdges returns every directed edge, sorted lexicographically.
// An edge's position in this list is its directed-edge id (see Ports).
func (g *Graph) DirectedEdges() []Edge {
	edges := make([]Edge, 0, 2*g.NumEdges())
	ports := g.Ports()
	for _, u := range g.byName() {
		for _, v := range ports.Nbrs[u] {
			edges = append(edges, Edge{From: g.names[u], To: g.names[v]})
		}
	}
	return edges
}

// Ports numbers the edge slots of a graph. Devices address their
// neighbors by slot: slot i of node u belongs to Nbrs[u][i], u's
// neighbors in name order. Directed edges are numbered by their position
// in DirectedEdges(): u's out-edges are contiguous there, in slot order.
type Ports struct {
	Nbrs [][]int // Nbrs[u]: u's neighbor indices sorted by name
	Out  []int   // the edge u->Nbrs[u][i] has id Out[u]+i
	Rev  []int   // Rev[id]: the id of the reverse edge
}

// Ports computes the slot and directed-edge numbering of g.
func (g *Graph) Ports() Ports {
	n := g.N()
	order := g.byName()
	rank := make([]int, n)
	for i, u := range order {
		rank[u] = i
	}
	p := Ports{Nbrs: make([][]int, n), Out: make([]int, n)}
	flat := make([]int, 0, 2*g.NumEdges())
	id := 0
	for _, u := range order {
		p.Out[u] = id
		start := len(flat)
		flat = append(flat, g.adj[u]...)
		nbs := flat[start:len(flat):len(flat)]
		// adj is in index order, usually close to name order already.
		for i := 1; i < len(nbs); i++ {
			for j := i; j > 0 && rank[nbs[j]] < rank[nbs[j-1]]; j-- {
				nbs[j], nbs[j-1] = nbs[j-1], nbs[j]
			}
		}
		p.Nbrs[u] = nbs
		id += len(nbs)
	}
	// Visiting receivers in name order reaches each sender's out-edges in
	// its own slot order, so a per-sender cursor walks its edge ids.
	p.Rev = make([]int, id)
	cursor := make([]int, n)
	for _, v := range order {
		for j, w := range p.Nbrs[v] {
			p.Rev[p.Out[w]+cursor[w]] = p.Out[v] + j
			cursor[w]++
		}
	}
	return p
}

// EdgeID returns the directed-edge id of from->to (its position in
// DirectedEdges()), or false when the graph has no such edge.
func (g *Graph) EdgeID(from, to string) (int, bool) {
	u, ok := g.index[from]
	if !ok {
		return 0, false
	}
	v, ok := g.index[to]
	if !ok || !g.HasEdge(u, v) {
		return 0, false
	}
	id := 0
	for w, name := range g.names {
		if name < from {
			id += len(g.adj[w])
		}
	}
	for _, w := range g.adj[u] {
		if g.names[w] < to {
			id++
		}
	}
	return id, true
}

// byName returns the node indices sorted by name.
func (g *Graph) byName() []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	if !sort.StringsAreSorted(g.names) {
		sort.Slice(order, func(i, j int) bool { return g.names[order[i]] < g.names[order[j]] })
	}
	return order
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := MustNew(g.names...)
	for u := range g.adj {
		c.adj[u] = append([]int(nil), g.adj[u]...)
	}
	return c
}

// InducedSubgraph returns the subgraph G_U induced by the given node
// indices, preserving node names. The second result maps subgraph indices
// back to indices in g.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	keep := append([]int(nil), nodes...)
	sort.Ints(keep)
	names := make([]string, len(keep))
	pos := make(map[int]int, len(keep))
	for i, u := range keep {
		names[i] = g.names[u]
		pos[u] = i
	}
	sub := MustNew(names...)
	for i, u := range keep {
		for _, v := range g.adj[u] {
			if j, ok := pos[v]; ok && i < j {
				sub.MustAddEdge(i, j)
			}
		}
	}
	return sub, keep
}

// InEdgeBorder returns the directed edges from nodes outside U into U:
// edges(G) ∩ ((nodes(G)\U) × U), sorted. This is the paper's inedge border
// of the induced subgraph G_U.
func (g *Graph) InEdgeBorder(nodes []int) []Edge {
	in := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		in[u] = true
	}
	var border []Edge
	for u := range g.adj {
		if in[u] {
			continue
		}
		for _, v := range g.adj[u] {
			if in[v] {
				border = append(border, Edge{From: g.names[u], To: g.names[v]})
			}
		}
	}
	sort.Slice(border, func(i, j int) bool {
		if border[i].From != border[j].From {
			return border[i].From < border[j].From
		}
		return border[i].To < border[j].To
	})
	return border
}

// IsConnected reports whether g is connected (true for the empty and
// single-node graphs).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.N()
}

// Components returns the connected components of g as sorted index slices,
// ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// String renders the graph as "name: neighbor neighbor ..." lines.
func (g *Graph) String() string {
	var b strings.Builder
	for u, name := range g.names {
		b.WriteString(name)
		b.WriteString(":")
		for _, v := range g.adj[u] {
			b.WriteString(" ")
			b.WriteString(g.names[v])
		}
		b.WriteString("\n")
	}
	return b.String()
}
