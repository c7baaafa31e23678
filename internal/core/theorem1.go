package core

import (
	"fmt"

	"flm/internal/graph"
	"flm/internal/sim"
)

// twoCopyProblem is a problem the two-copy argument of Theorems 1 and 5
// defeats: the inputs the two copies hold and the conditions it judges.
type twoCopyProblem struct {
	name      string
	zero, one sim.Input
	judge     check
}

var byzantineAgreement = twoCopyProblem{"Byzantine agreement", sim.BoolInput(false), sim.BoolInput(true), checkByzantine}

// twoCopyLayout is a double cover of G and the three scenarios of the
// argument: E1 inside copy 0, E2 straddling the crossed edges, E3 inside
// copy 1.
type twoCopyLayout struct {
	f     int
	cover *graph.Cover
	u     [3][]int
}

// partitionPair lays the node-bound argument out on the partition's
// double cover: E1 = b ∪ c in copy 0 (a faulty), E2 = c in copy 0 with
// a in copy 1 (b faulty), E3 = a ∪ b in copy 1 (c faulty).
func partitionPair(p *graph.Partition) twoCopyLayout {
	s0, s1 := p.Scenarios(0, 2), p.Scenarios(1, 2)
	return twoCopyLayout{p.F, p.Cover(2), [3][]int{s0[1], s1[2], s1[0]}}
}

// cutPair lays the connectivity argument out on the cut's double cover:
// E1 = a ∪ b ∪ c in copy 0 (d faulty), E2 = c ∪ d in copy 0 with a in
// copy 1 (b faulty), E3 = a ∪ b ∪ c in copy 1 (d faulty).
func cutPair(c *graph.Cut) twoCopyLayout {
	x0, y0 := c.Scenarios(0, 2)
	x1, _ := c.Scenarios(1, 2)
	return twoCopyLayout{c.F, c.Cover(2), [3][]int{x0, y0, x1}}
}

// twoCopy runs the two-copy argument: copy 0 of the double cover holds
// input zero, copy 1 input one, and E1, E2, E3 are spliced into
// behaviors of G. E2 shares one side's behavior with E1 and the other's
// with E3, so the problem's conditions cannot all hold.
func twoCopy(p twoCopyProblem, l twoCopyLayout, theorem string, expect [3]string, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	cr := &ChainResult{Theorem: theorem, Problem: p.name, Device: device, F: l.f, G: l.cover.G}
	s, n := l.cover.S, l.cover.G.N()
	inputs := make(map[string]sim.Input, s.N())
	for u := 0; u < s.N(); u++ {
		inputs[s.Name(u)] = p.zero
		if u >= n {
			inputs[s.Name(u)] = p.one
		}
	}
	inst, err := cr.runCover(l.cover, builders, inputs, rounds)
	if err != nil {
		return nil, err
	}
	scenarios := make([]scenario, len(l.u))
	for i, u := range l.u {
		scenarios[i] = scenario{fmt.Sprintf("E%d", i+1), u, expect[i]}
	}
	return cr.chain(inst, builders, scenarios, p.judge)
}

// checkByzantine judges termination, agreement and — when the correct
// nodes' inputs are unanimous — validity.
func checkByzantine(run *sim.Run, correct []string) []condition {
	var conds []condition
	decided := map[string]string{}
	for _, name := range correct {
		d, err := run.DecisionOf(name)
		if err != nil || d.Value == "" {
			conds = append(conds, condition{"termination", fmt.Errorf("correct node %s never decided", name)})
			continue
		}
		decided[name] = d.Value
	}
	first := ""
	for _, name := range correct {
		v, ok := decided[name]
		if !ok {
			continue
		}
		if first == "" {
			first = v
		} else if v != first {
			conds = append(conds, condition{"agreement", fmt.Errorf("correct nodes decided both %s and %s", first, v)})
			break
		}
	}
	want := run.Inputs[run.G.MustIndex(correct[0])]
	for _, name := range correct[1:] {
		if run.Inputs[run.G.MustIndex(name)] != want {
			return conds
		}
	}
	for _, name := range correct {
		if v, ok := decided[name]; ok && v != string(want) {
			return append(conds, condition{"validity", fmt.Errorf("unanimous correct input %s but %s decided %s", want, name, v)})
		}
	}
	return conds
}

// ByzantineNodes mechanizes the 3f+1 node bound of Theorem 1. The graph g
// must have n <= 3f nodes, partitioned into non-empty blocks a, b, c of
// size at most f. The devices (builders, keyed by node name) are
// installed on the two-copy covering with the a-c edges crossed, copy 0
// gets input 0 and copy 1 input 1, and the three scenarios of the paper
// are spliced into behaviors E1, E2, E3 of g:
//
//	E1: blocks b,c correct with input 0, a faulty  -> validity forces 0
//	E2: block c (copy 0) and a (copy 1) correct, b faulty -> agreement
//	E3: blocks a,b correct with input 1, c faulty  -> validity forces 1
//
// E2 shares c's behavior with E1 and a's with E3, so if no condition
// failed the a-nodes would have decided both 0 and 1. The engine reports
// every condition that actually fails; at least one must.
func ByzantineNodes(g *graph.Graph, f int, a, b, c []int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	p, err := graph.NewPartition(g, f, a, b, c)
	if err != nil {
		return nil, err
	}
	return twoCopy(byzantineAgreement, partitionPair(p), "Theorem 1 (3f+1 nodes)", [3]string{
		"validity forces all correct nodes to choose 0",
		"agreement chains c's choice (0) to a's",
		"validity forces all correct nodes to choose 1",
	}, builders, device, rounds)
}

// ByzantineTriangle runs the f=1 triangle case of the node bound — the
// paper's hexagon argument — against devices for nodes a, b, c.
func ByzantineTriangle(builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	return ByzantineNodes(graph.Triangle(), 1, []int{0}, []int{1}, []int{2}, builders, device, rounds)
}

// ByzantineConnectivity mechanizes the 2f+1 connectivity bound of
// Theorem 1. The node sets bSet and dSet (each of size at most f) must
// disconnect uNode from vNode. With a = the component of uNode after the
// cut is removed and c = the rest, the devices are installed on the
// two-copy covering with the a-d edges crossed (copy 0 input 0, copy 1
// input 1) and the paper's three scenarios are spliced:
//
//	E1 = S1: a,b,c correct with input 0, d faulty -> validity forces 0
//	E2 = S2: c,d (copy 0) and a (copy 1) correct, b faulty -> agreement
//	E3 = S3: a,b,c (copy 1) correct with input 1, d faulty -> validity forces 1
func ByzantineConnectivity(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	c, err := graph.NewCut(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	return twoCopy(byzantineAgreement, cutPair(c), "Theorem 1 (2f+1 connectivity)", [3]string{
		"validity forces all correct nodes to choose 0",
		"agreement chains c's choice (0) through d to a's",
		"validity forces all correct nodes to choose 1",
	}, builders, device, rounds)
}

// ByzantineDiamond runs the f=1 connectivity case on the paper's
// four-node diamond graph (connectivity 2, cut {b,d}).
func ByzantineDiamond(builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	return ByzantineConnectivity(graph.Diamond(), 1, []int{1}, []int{3}, 0, 2, builders, device, rounds)
}
