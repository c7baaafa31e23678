package core

import (
	"fmt"

	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/weak"
)

// Theorems 2 and 4 share one argument, the ring of Section 4. Base runs
// of the all-correct G with unanimous input 0 and 1 fix the decision
// horizon t'. The devices then run on a ring of m = 4k copies of a
// segment of G (k > t'), the first 2k copies holding input 1 and the
// rest input 0. Every adjacent pair of copies splices into a correct
// behavior of G with one fault set faulty, so the problem's agreement
// condition chains every node's choice around the ring; but the
// Bounded-Delay axiom (Lemma 3) pins the middle copy of each half to its
// unanimous base run, so the halves differ and some link must break.
// The argument is the same on three layouts: the paper's 4k-node ring
// covering the triangle, the ring of blocks for n <= 3f, and the ring of
// copies for a 2f-node cut.

// ringProblem is a timed problem as the ring argument sees it.
type ringProblem struct {
	name string
	// judge evaluates the problem's conditions on a behavior of G. bit
	// is the unanimous input of an all-correct base run, or "" for a
	// spliced link.
	judge func(run *sim.Run, correct []string, bit string) []condition
	// horizon reads t' off the base runs, indexed by input bit.
	horizon func(base [2]*sim.Run) int
	// middle is the decision the middle of each half inherits from the
	// base run of its input bit; "" means none, so the middle cannot
	// have decided anything while it tracked that run.
	middle [2]string
}

var weakAgreement = ringProblem{
	name: "weak Byzantine agreement",
	judge: func(run *sim.Run, correct []string, bit string) []condition {
		rep := weak.Check(run, correct, bit != "")
		return []condition{{"choice", rep.Choice}, {"agreement", rep.Agreement}, {"validity", rep.Validity}}
	},
	horizon: func(base [2]*sim.Run) int {
		t := 0
		for _, run := range base {
			for _, d := range run.Decisions {
				t = max(t, d.Round)
			}
		}
		return t
	},
	middle: [2]string{"0", "1"},
}

var firingSquad = ringProblem{
	name: "Byzantine firing squad",
	judge: func(run *sim.Run, correct []string, bit string) []condition {
		rep := firingsquad.Check(run, correct, bit != "", bit == "1")
		return []condition{{"agreement", rep.Agreement}, {"validity", rep.Validity}}
	},
	horizon: func(base [2]*sim.Run) int {
		t := -1
		for _, d := range base[1].Decisions {
			if d.Value == firingsquad.Fired {
				t = max(t, d.Round)
			}
		}
		return t
	},
	middle: [2]string{"", firingsquad.Fired},
}

// ringLayout is a covering of G by a ring of copies of a segment (one
// triangle node, or one copy of G), with the scenarios that chain each
// copy to the next.
type ringLayout struct {
	g         *graph.Graph
	f         int
	step      int // k is a multiple of step, so the ring closes on G
	width     int // S-nodes per copy; copy i holds S-nodes i*width...
	cover     func(m int) *graph.Cover
	scenarios func(m int) [][]int
}

// triangleRing is the paper's 4k-node ring covering the triangle: every
// adjacent pair of ring nodes is a correct behavior with the third node
// faulty.
func triangleRing() ringLayout {
	return ringLayout{g: graph.Triangle(), f: 1, step: 3, width: 1, cover: graph.RingCoverTriangle,
		scenarios: func(m int) [][]int {
			pairs := make([][]int, m)
			for i := range pairs {
				pairs[i] = []int{i, (i + 1) % m}
			}
			return pairs
		}}
}

// blockRing generalizes the ring to n <= 3f ("the case for general f
// follows immediately, just as above"): the m-copy cover with the a-c
// edges crossed, spliced at the three block-pair scenarios of every
// copy, each with one block faulty.
func blockRing(p *graph.Partition) ringLayout {
	return ringLayout{g: p.G, f: p.F, step: 1, width: p.G.N(), cover: p.Cover,
		scenarios: func(m int) [][]int {
			var out [][]int
			for i := 0; i < m; i++ {
				s := p.Scenarios(i, m)
				out = append(out, s[:]...)
			}
			return out
		}}
}

// cutRing is the connectivity half: the m-copy cover with the a-d edges
// crossed, spliced at X_i (d faulty) and Y_i (b faulty) of every copy.
func cutRing(c *graph.Cut) ringLayout {
	return ringLayout{g: c.G, f: c.F, step: 1, width: c.G.N(), cover: c.Cover,
		scenarios: func(m int) [][]int {
			var out [][]int
			for i := 0; i < m; i++ {
				x, y := c.Scenarios(i, m)
				out = append(out, x, y)
			}
			return out
		}}
}

// ringText is what a theorem's chain says: its title, the expectations
// of the base runs B0 and B1, and the expectation of every ring link.
type ringText struct {
	theorem string
	base    [2]string
	link    string
}

var (
	weakBase = [2]string{
		"all-correct unanimous 0: choice + validity force 0",
		"all-correct unanimous 1: choice + validity force 1",
	}
	firingBase = [2]string{
		"base validity: fire simultaneously iff stimulated",
		"base validity: fire simultaneously iff stimulated",
	}
)

// ring runs the ring argument for problem p on layout l.
func ring(p ringProblem, l ringLayout, text ringText, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	cr := &ChainResult{Theorem: text.theorem, Problem: p.name, Device: device, F: l.f, G: l.g}
	var base [2]*sim.Run
	for i, bit := range []string{"0", "1"} {
		run, err := runGraphUniform(l.g, builders, sim.Input(bit), horizon)
		if err != nil {
			return nil, err
		}
		base[i] = run
		cr.addLink(Link{Name: "B" + bit, Splice: &Splice{Run: run, Correct: run.G.Names()},
			Expect: text.base[i], Correct: run.G.Names()})
		cr.judge("B"+bit, p.judge(run, run.G.Names(), bit))
	}
	if cr.Contradicted() {
		return cr, nil // not even a solution in fault-free runs
	}
	t := p.horizon(base)
	if horizon <= t+1 {
		return nil, fmt.Errorf("core: horizon %d too small for decision round %d", horizon, t)
	}
	k := t + 1
	for k%l.step != 0 {
		k++
	}
	m := 4 * k
	cover := l.cover(m)
	inputs := make(map[string]sim.Input, cover.S.N())
	for s := 0; s < cover.S.N(); s++ {
		inputs[cover.S.Name(s)] = "0"
		if s/l.width < 2*k {
			inputs[cover.S.Name(s)] = "1"
		}
	}
	inst, err := cr.runCover(cover, builders, inputs, horizon)
	if err != nil {
		return nil, err
	}
	if err := checkMiddles(cr.RunS, cover, base, p.middle, l.width, k); err != nil {
		return nil, err
	}
	var scenarios []scenario
	for i, u := range l.scenarios(m) {
		scenarios = append(scenarios, scenario{fmt.Sprintf("E%d", i), u, text.link})
	}
	return cr.chain(inst, builders, scenarios, func(run *sim.Run, correct []string) []condition {
		return p.judge(run, correct, "")
	})
}

// runGraphUniform executes the all-correct system on g with one input
// everywhere.
func runGraphUniform(g *graph.Graph, builders map[string]sim.Builder, input sim.Input, rounds int) (*sim.Run, error) {
	p := sim.Protocol{Builders: builders, Inputs: map[string]sim.Input{}}
	for _, name := range g.Names() {
		p.Inputs[name] = input
	}
	sys, err := sim.NewSystem(g, p)
	if err != nil {
		return nil, err
	}
	return sim.Execute(sys, rounds)
}

// checkMiddles is the Bounded-Delay self-check (Lemma 3). Every S-node of
// the middle copy of each half — copy 3k of the input-0 half, copy k of
// the input-1 half — is at least k copy crossings from the other half's
// inputs, so it must track its image in the matching unanimous base run
// for k rounds and, as k > t', inherit that run's decision. A failure is
// a simulator bug, not a device failure, so it is returned as an error.
func checkMiddles(runS *sim.Run, cover *graph.Cover, base [2]*sim.Run, middle [2]string, width, k int) error {
	for bit, mid := range [2]int{3 * k, k} {
		for s := mid * width; s < (mid+1)*width; s++ {
			sName, gName := cover.S.Name(s), cover.G.Name(cover.Phi[s])
			div, err := sim.PrefixEqual(runS, sName, base[bit], gName)
			if err != nil {
				return err
			}
			if div < k && div < runS.Rounds {
				return fmt.Errorf("core: Lemma 3 violated: %s diverged from base-%d %s at round %d < k=%d",
					sName, bit, gName, div, k)
			}
			d, err := runS.DecisionOf(sName)
			if err != nil {
				return err
			}
			switch want := middle[bit]; {
			case want != "" && d.Value != want:
				return fmt.Errorf("core: middle node %s decided %q, want %q from the base-%d run", sName, d.Value, want, bit)
			case want == "" && d.Value != "" && d.Round < k:
				return fmt.Errorf("core: quiet middle node %s decided %q at round %d < k=%d despite tracking the base-%d run",
					sName, d.Value, d.Round, k, bit)
			}
		}
	}
	return nil
}

// WeakAgreementRing mechanizes Theorem 2 for the triangle: weak agreement
// devices A, B, C are run on the all-0 and all-1 correct triangles to
// find the decision horizon t'; they are then installed on the 4k-ring
// covering (k > t', one semicircle input 1, the other 0). Every adjacent
// pair of ring nodes splices into a correct one-fault behavior of the
// triangle, so agreement chains all 4k choices together — but Lemma 3
// (verified on the run: information moves one edge per round) forces the
// middle of the 0-arc to choose 0 and the middle of the 1-arc to choose
// 1. The engine locates the adjacent pair whose spliced behavior breaks
// agreement (or the base/choice condition that failed earlier).
func WeakAgreementRing(builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	return ring(weakAgreement, triangleRing(), ringText{"Theorem 2 (weak agreement)", weakBase,
		"the two correct nodes must agree"}, builders, device, horizon)
}

// WeakAgreementNodesRing mechanizes the general node bound of Theorem 2:
// weak agreement is impossible on any graph with n <= 3f nodes.
func WeakAgreementNodesRing(g *graph.Graph, f int, aSet, bSet, cSet []int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	p, err := graph.NewPartition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	return ring(weakAgreement, blockRing(p), ringText{"Theorem 2 (weak agreement, 3f+1 nodes, general case)", weakBase,
		"all correct nodes in this one-block-fault behavior must agree"}, builders, device, horizon)
}

// WeakAgreementCutRing mechanizes the connectivity half of Theorem 2:
// weak agreement is impossible on a graph with a cut of size <= 2f. The
// horizon must cover the base decision round plus the ring transit.
func WeakAgreementCutRing(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	c, err := graph.NewCut(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	return ring(weakAgreement, cutRing(c), ringText{"Theorem 2 (weak agreement, 2f+1 connectivity)", weakBase,
		"all correct nodes in this one-fault behavior must agree"}, builders, device, horizon)
}

// FiringSquadRing mechanizes Theorem 4 for the triangle. The all-correct
// stimulated triangle fixes the fire time t; the devices then run on the
// 4k-ring covering (k > t) with the stimulus delivered to one
// semicircle. The middle of the stimulated arc fires at t, the middle of
// the quiet arc cannot have fired by then (its behavior tracks the
// no-stimulus run), and every adjacent pair is a correct one-fault
// behavior of the triangle in which firing must be simultaneous — so
// some pair's spliced behavior breaks the agreement condition.
func FiringSquadRing(builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	return ring(firingSquad, triangleRing(), ringText{"Theorem 4 (Byzantine firing squad)", [2]string{
		"no stimulus and all correct: nobody fires",
		"stimulus everywhere and all correct: everyone fires, simultaneously",
	}, "the two correct nodes fire simultaneously or not at all"}, builders, device, horizon)
}

// FiringSquadNodesRing mechanizes the general node bound of Theorem 4.
func FiringSquadNodesRing(g *graph.Graph, f int, aSet, bSet, cSet []int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	p, err := graph.NewPartition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	return ring(firingSquad, blockRing(p), ringText{"Theorem 4 (firing squad, 3f+1 nodes, general case)", firingBase,
		"correct nodes fire simultaneously or not at all"}, builders, device, horizon)
}

// FiringSquadCutRing mechanizes the connectivity half of Theorem 4.
func FiringSquadCutRing(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	c, err := graph.NewCut(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	return ring(firingSquad, cutRing(c), ringText{"Theorem 4 (firing squad, 2f+1 connectivity)", firingBase,
		"correct nodes fire simultaneously or not at all"}, builders, device, horizon)
}
