package core

import (
	"fmt"
	"math"

	"flm/internal/approx"
	"flm/internal/graph"
	"flm/internal/sim"
)

var simpleApprox = twoCopyProblem{"simple approximate agreement", sim.RealInput(0), sim.RealInput(1),
	func(run *sim.Run, correct []string) []condition {
		rep := approx.CheckSimple(run, correct)
		return []condition{{"termination", rep.Termination}, {"agreement", rep.Agreement}, {"validity", rep.Validity}}
	}}

// SimpleApproxNodes mechanizes Theorem 5 (simple approximate agreement
// needs 3f+1 nodes). The construction is exactly the Byzantine one — the
// two-copy covering with inputs 0 and 1 — but the evaluated conditions
// are the approximate ones:
//
//	E1: blocks b,c correct, inputs all 0 -> validity forces every choice to 0
//	E2: c (copy 0) and a (copy 1) correct -> choices strictly closer than 1 apart
//	E3: blocks a,b correct, inputs all 1 -> validity forces every choice to 1
//
// If E1 and E3 hold, the choices in E2 are 0 and 1, no closer than the
// inputs — violating the strict-contraction agreement condition.
func SimpleApproxNodes(g *graph.Graph, f int, a, b, c []int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	p, err := graph.NewPartition(g, f, a, b, c)
	if err != nil {
		return nil, err
	}
	return twoCopy(simpleApprox, partitionPair(p), "Theorem 5 (3f+1 nodes)", [3]string{
		"validity pins every choice to 0",
		"choices must be strictly closer than the inputs (1 apart)",
		"validity pins every choice to 1",
	}, builders, device, rounds)
}

// SimpleApproxTriangle runs the f=1 hexagon case of Theorem 5.
func SimpleApproxTriangle(builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	return SimpleApproxNodes(graph.Triangle(), 1, []int{0}, []int{1}, []int{2}, builders, device, rounds)
}

// SimpleApproxConnectivity mechanizes the connectivity half of Theorem 5
// (same structure as the Byzantine case, approximate conditions).
func SimpleApproxConnectivity(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	c, err := graph.NewCut(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	return twoCopy(simpleApprox, cutPair(c), "Theorem 5 (2f+1 connectivity)", [3]string{
		"validity pins every choice to 0",
		"choices strictly closer than the inputs (1 apart)",
		"validity pins every choice to 1",
	}, builders, device, rounds)
}

// EDGParams are the (ε,δ,γ)-agreement parameters; the theorem requires
// eps < delta (otherwise choosing one's input solves the problem).
type EDGParams struct {
	Eps, Delta, Gamma float64
}

// RingSize returns the paper's choice of k for Theorem 6 — the smallest k
// with delta > 2*gamma/(k-1) + eps and k+2 divisible by 3 — along with
// the ring size k+2.
func (p EDGParams) RingSize() (k, size int, err error) {
	if p.Eps <= 0 || p.Delta <= 0 || p.Gamma <= 0 {
		return 0, 0, fmt.Errorf("core: eps, delta, gamma must be positive")
	}
	if p.Eps >= p.Delta {
		return 0, 0, fmt.Errorf("core: eps=%v >= delta=%v makes (ε,δ,γ)-agreement trivially solvable", p.Eps, p.Delta)
	}
	k = int(math.Ceil(2*p.Gamma/(p.Delta-p.Eps))) + 2
	for (k+2)%3 != 0 || p.Delta <= 2*p.Gamma/float64(k-1)+p.Eps {
		k++
	}
	return k, k + 2, nil
}

// prove runs Theorem 6's argument on a covering whose S-node s holds
// input position[s]·δ: every scenario splices into a behavior of G
// whose correct inputs are at most δ apart, and Lemma 7's induction
// makes the conditions along the chain collectively unsatisfiable.
func (p EDGParams) prove(theorem string, f int, cover *graph.Cover, position []int, scenarios []scenario, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	cr := &ChainResult{
		Theorem: theorem,
		Problem: fmt.Sprintf("(ε=%v, δ=%v, γ=%v)-agreement", p.Eps, p.Delta, p.Gamma),
		Device:  device,
		F:       f,
		G:       cover.G,
	}
	inputs := make(map[string]sim.Input, cover.S.N())
	for s, pos := range position {
		inputs[cover.S.Name(s)] = sim.RealInput(float64(pos) * p.Delta)
	}
	inst, err := cr.runCover(cover, builders, inputs, rounds)
	if err != nil {
		return nil, err
	}
	return cr.chain(inst, builders, scenarios, func(run *sim.Run, correct []string) []condition {
		rep := approx.CheckEDG(run, correct, p.Eps, p.Gamma)
		return []condition{{"termination", rep.Termination}, {"agreement", rep.Agreement}, {"validity", rep.Validity}}
	})
}

// EpsilonDeltaGamma mechanizes Theorem 6: (ε,δ,γ)-agreement with
// eps < delta is impossible on the triangle (and hence on all inadequate
// graphs). The devices are installed on a ring of k+2 nodes covering the
// triangle, node i receiving input i*delta, and every adjacent pair
// (i, i+1) is spliced into a correct behavior E_i of the triangle with
// the third node faulty. Lemma 7's induction makes the conditions
// collectively unsatisfiable: validity in E_0 bounds node 1's choice by
// delta+gamma, each agreement link adds at most eps, and validity in E_k
// demands at least k*delta-gamma.
func EpsilonDeltaGamma(params EDGParams, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	position := make([]int, size)
	for i := range position {
		position[i] = i
	}
	var scenarios []scenario
	for i := 0; i <= k; i++ {
		scenarios = append(scenarios, scenario{fmt.Sprintf("S%d", i), []int{i, i + 1},
			fmt.Sprintf("choices within ε of each other and within [%v-γ, %v+γ]", float64(i)*params.Delta, float64(i+1)*params.Delta)})
	}
	return params.prove("Theorem 6 ((ε,δ,γ)-agreement)", 1, graph.RingCoverTriangle(size), position, scenarios, builders, device, rounds)
}

// EpsilonDeltaGammaNodes mechanizes the general node bound of Theorem 6
// (n <= 3f): the devices run on the ring-of-blocks covering with k+2
// positions (...a_i b_i c_i a_{i+1}..., the c-a edges crossed), position
// j holding input j*delta, and every adjacent position pair splices into
// a correct behavior whose inputs are at most delta apart. Lemma 7's
// induction is unchanged.
func EpsilonDeltaGammaNodes(params EDGParams, g *graph.Graph, f int, aSet, bSet, cSet []int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	p, err := graph.NewPartition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	ring := p.BlockRing(size)
	var scenarios []scenario
	for j := 0; j <= k; j++ {
		scenarios = append(scenarios, scenario{fmt.Sprintf("S%d", j),
			append(append([]int(nil), ring.Members[j]...), ring.Members[j+1]...),
			fmt.Sprintf("choices within ε and within γ of [%v, %v]", float64(j)*params.Delta, float64(j+1)*params.Delta)})
	}
	return params.prove("Theorem 6 ((ε,δ,γ)-agreement, 3f+1 nodes, general case)", f, ring.Cover, ring.Position,
		scenarios, builders, device, rounds)
}

// EpsilonDeltaGammaConnectivity mechanizes the connectivity bound of
// Theorem 6: k+2 copies of a graph with a <=2f cut in a ring, copy i
// holding input i*delta; the within-copy scenarios (X_i, d faulty) have
// input spread 0 and the cross-copy scenarios (Y_i = c_i ∪ d_i ∪ a_{i-1},
// b faulty) have spread exactly delta.
func EpsilonDeltaGammaConnectivity(params EDGParams, g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	c, err := graph.NewCut(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	cover := c.Cover(size) // one copy per ring position
	position := make([]int, cover.S.N())
	for s := range position {
		position[s] = s / g.N()
	}
	const expect = "choices within ε and within γ of the inputs"
	var scenarios []scenario
	for i := 0; i <= k; i++ {
		x, y := c.Scenarios(i, size)
		scenarios = append(scenarios, scenario{fmt.Sprintf("X%d", i), x, expect})
		if i >= 1 {
			scenarios = append(scenarios, scenario{fmt.Sprintf("Y%d", i), y, expect})
		}
	}
	return params.prove("Theorem 6 ((ε,δ,γ)-agreement, 2f+1 connectivity)", f, cover, position,
		scenarios, builders, device, rounds)
}

// Lemma7Bounds returns, for each node i in 1..k+1, the ceiling that
// Lemma 7's induction places on its choice (delta + gamma + (i-1)*eps)
// and, for node k, the floor validity demands (k*delta - gamma). It is
// exported so the experiment harness can print the induction table next
// to the measured choices.
func Lemma7Bounds(params EDGParams, k int) (ceilings []float64, floorAtK float64) {
	ceilings = make([]float64, k+2)
	for i := 1; i <= k+1; i++ {
		ceilings[i] = params.Delta + params.Gamma + float64(i-1)*params.Eps
	}
	return ceilings, float64(k)*params.Delta - params.Gamma
}
