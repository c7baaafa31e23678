package clocksync

import (
	"fmt"
	"strings"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// Params describes a "nontrivial synchronization" claim (Section 7):
// correct hardware clocks run at p or q (increasing, p(t) <= q(t)); the
// logical clocks must stay within the [l, u] envelope of real time and
// within l(q(t)) - l(p(t)) - Alpha of each other from time TPrime on.
// Delta is the device tick spacing in hardware-clock units.
type Params struct {
	P, Q   clockfn.RatLinear // the slow and fast clock laws (exact)
	L, U   clockfn.Fn        // lower and upper envelopes
	Alpha  float64           // the claimed improvement over trivial sync
	TPrime clockfn.Q         // time from which agreement must hold
	Delta  clockfn.Q         // hardware tick spacing
}

// Violation is one broken synchronization condition in a scaled scenario.
type Violation struct {
	Scenario  string // "S0", "S1", ...
	Condition string // "agreement" or "envelope"
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s violated: %s", v.Scenario, v.Condition, v.Detail)
}

// Result is the outcome of the mechanized Theorem 8 argument.
type Result struct {
	Params     Params
	K          int       // the induction length (ring has K+2 nodes)
	TSecond    clockfn.Q // t'' = h^K(t'), the evaluation time in ring frame
	Logical    []float64 // C_i at t'' for every ring node
	Floors     []float64 // Lemma 11 floors l(q h^{-(i)}(t'')) + (i-1)α forced on C_i
	Violations []Violation
	Run        *timedsim.Run
}

// Contradicted reports whether a condition was violated (the theorem
// guarantees it).
func (r *Result) Contradicted() bool { return len(r.Violations) > 0 }

// String renders the argument.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 8 — clock synchronization, ring of %d nodes, k=%d\n", r.K+2, r.K)
	for i, c := range r.Logical {
		fmt.Fprintf(&b, "  node %d: C_i(t'') = %.6f\n", i, c)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  ** %s\n", v)
	}
	return b.String()
}

// ChooseK returns the paper's induction length: the smallest k >= 2 with
// k+2 divisible by 3 and l(p(t')) + k*alpha > u(q(t')).
func (p Params) ChooseK() (int, error) {
	tPrime := p.TPrime.Float64()
	pf, qf := p.P.Float(), p.Q.Float()
	if p.Alpha <= 0 {
		return 0, fmt.Errorf("clocksync: alpha must be positive")
	}
	if pf.At(tPrime) > qf.At(tPrime) {
		return 0, fmt.Errorf("clocksync: p(t') > q(t') — p must be the slow clock")
	}
	target := p.U.At(qf.At(tPrime)) - p.L.At(pf.At(tPrime))
	if target < 0 {
		return 0, fmt.Errorf("clocksync: envelopes cross at t' (u(q) < l(p))")
	}
	k := 2
	for float64(k)*p.Alpha <= target || (k+2)%3 != 0 {
		k++
		if k > 1<<20 {
			return 0, fmt.Errorf("clocksync: no reasonable k satisfies l(p(t'))+kα > u(q(t'))")
		}
	}
	return k, nil
}

// H returns h = p⁻¹ ∘ q, exactly.
func (p Params) H() clockfn.RatLinear { return p.P.InverseRat().ComposeRat(p.Q) }

// theorem8Prep is everything a Theorem 8 run needs that depends only on
// the Params and the layout, not on the devices: the induction length,
// the verified cover with its scaled scenarios, the table of h's inverse
// iterates, and t”. Grid sweeps (EvalGrid) build one prep per parameter
// case and share it across every device cell; the prep is read-only
// during runs.
type theorem8Prep struct {
	params  Params
	k       int
	layout  *scaledLayout
	iters   []clockfn.RatLinear // iters[i] = h⁻ⁱ, i = 0..k+1
	tSecond clockfn.Q           // t'' = hᵏ(t')
}

// scaledLayout is a covering of G laid out for the scaled argument.
// S-node s runs hardware clock q∘h^(-position[s]); each scenario's
// S-nodes, scaled by h^scale, form a correct behavior of G with clocks
// q and p.
type scaledLayout struct {
	cover          *graph.Cover
	sPorts, gPorts graph.Ports
	gNbs           [][]string // gNbs[v]: G-node v's neighbor names, in slot order
	position       []int
	scenarios      []scaledScenario
	checks         []int // the scenarios the self-check re-executes
}

// scaledScenario is one correct-behavior claim: the S-nodes in u form,
// after scaling by h^scale, a correct behavior of G with the remaining
// G-nodes faulty.
type scaledScenario struct {
	name  string
	u     []int
	scale int
}

func newScaledLayout(cover *graph.Cover, position []int, scenarios []scaledScenario, checks []int) *scaledLayout {
	g := cover.G
	lay := &scaledLayout{cover: cover, sPorts: cover.S.Ports(), gPorts: g.Ports(),
		gNbs: make([][]string, g.N()), position: position, scenarios: scenarios, checks: checks}
	for v, nbs := range lay.gPorts.Nbrs {
		for _, w := range nbs {
			lay.gNbs[v] = append(lay.gNbs[v], g.Name(w))
		}
	}
	return lay
}

// blockRingLayout is the node-bound layout: the ring of k+2 block
// positions, with scenario S_j the blocks at positions j and j+1, scaled
// by hʲ.
func blockRingLayout(p *graph.Partition, k int) *scaledLayout {
	ring := p.BlockRing(k + 2)
	scenarios := make([]scaledScenario, 0, k+1)
	for j := 0; j <= k; j++ {
		scenarios = append(scenarios, scaledScenario{
			name:  fmt.Sprintf("S%d", j),
			u:     append(append([]int(nil), ring.Members[j]...), ring.Members[j+1]...),
			scale: j,
		})
	}
	return newScaledLayout(ring.Cover, ring.Position, scenarios, sampleScenarios(k))
}

// cutLayout is the connectivity layout: the ring of k+2 copies with the
// a-d edges crossed, every node of copy i on clock q∘h⁻ⁱ. X_i (copy i
// without d) is scaled by hⁱ: all clocks q. Y_i (c_i ∪ d_i ∪ a_(i-1))
// is scaled by hⁱ⁻¹: a at q, c ∪ d at p.
func cutLayout(cut *graph.Cut, k int) *scaledLayout {
	copies := k + 2
	cover := cut.Cover(copies)
	n := cut.G.N()
	position := make([]int, cover.S.N())
	for i := range position {
		position[i] = i / n
	}
	var scenarios []scaledScenario
	for i := 0; i <= k; i++ {
		x, y := cut.Scenarios(i, copies)
		scenarios = append(scenarios, scaledScenario{name: fmt.Sprintf("X%d", i), u: x, scale: i})
		if i >= 1 {
			scenarios = append(scenarios, scaledScenario{name: fmt.Sprintf("Y%d", i), u: y, scale: i - 1})
		}
	}
	return newScaledLayout(cover, position, scenarios, sampleScenarios(len(scenarios)-2))
}

// prepareTheorem8 does the device-independent setup of the Theorem 8
// argument for the layout that layoutFor builds for the induction
// length. The O(k) iterate table replaces O(k²) per-scenario IterateRat
// calls.
func prepareTheorem8(params Params, layoutFor func(k int) *scaledLayout) (*theorem8Prep, error) {
	k, err := params.ChooseK()
	if err != nil {
		return nil, err
	}
	h := params.H()
	tSecond := h.IterateRat(k).At(params.TPrime)
	// The fastest node experiences q(t'') of hardware time, i.e. about
	// q(hᵏ(t'))/Δ ticks — exponential in k for rate-scaled clocks. Guard
	// against parameter choices that would take hours to simulate; a
	// larger alpha (or tighter envelopes) shrinks k.
	if est := params.Q.At(tSecond).Quo(params.Delta).Float64(); est > 5e5 {
		return nil, fmt.Errorf("clocksync: parameters need ~%.0f ticks (k=%d, t''=%s); increase alpha or tighten the envelopes",
			est, k, tSecond)
	}
	layout := layoutFor(k)
	if err := layout.cover.Verify(); err != nil {
		return nil, err
	}
	return &theorem8Prep{params: params, k: k, layout: layout, iters: clockfn.Iterates(h, -1, k+1), tSecond: tSecond}, nil
}

// prepareTriangle prepares Theorem 8 on the triangle: the block ring of
// singleton blocks, which is the (k+2)-ring of the paper.
func prepareTriangle(params Params) (*theorem8Prep, error) {
	p, err := graph.NewPartition(graph.Triangle(), 1, []int{0}, []int{1}, []int{2})
	if err != nil {
		return nil, err
	}
	return prepareTheorem8(params, func(k int) *scaledLayout { return blockRingLayout(p, k) })
}

// Theorem8 mechanizes the clock synchronization impossibility on the
// triangle. Devices (keyed by triangle node name a/b/c) are installed on
// the (k+2)-ring covering with hardware clocks D_i = q∘h⁻ⁱ; the system
// runs to real time t” = hᵏ(t'); and for every scaled scenario Sᵢhⁱ
// (adjacent pair i, i+1 viewed with clocks q and p) the agreement and
// envelope conditions are evaluated at the scaled time h⁻ⁱ(t”) >= t'.
// Lemma 11's arithmetic makes them jointly unsatisfiable, so at least one
// recorded violation is guaranteed for any devices whatsoever.
func Theorem8(params Params, builders map[string]Builder) (*Result, error) {
	prep, err := prepareTriangle(params)
	if err != nil {
		return nil, err
	}
	return runTriangle(prep, builders)
}

// runTriangle runs a prepared triangle argument and adds the Lemma 11
// floors: C_(i+1)(t”) >= l(q h^-(i+1)(t”)) + iα, and q∘h⁻¹ = p, so the
// floor of ring node i+1 is l(p(τ_i)) + iα with τ_i = h⁻ⁱ(t”). Ring
// node i is S-node i of the singleton block ring.
func runTriangle(prep *theorem8Prep, builders map[string]Builder) (*Result, error) {
	res, err := prep.run(builders)
	if res != nil {
		pf := prep.params.P.Float()
		res.Floors = make([]float64, prep.k+2)
		for i := 0; i <= prep.k; i++ {
			tau := prep.iters[i].At(prep.tSecond).Float64()
			res.Floors[i+1] = prep.params.L.At(pf.At(tau)) + float64(i)*prep.params.Alpha
		}
	}
	return res, err
}

// run is the device-dependent half of every Theorem 8 case: install the
// devices on the prepared cover, execute to t”, self-check the sampled
// scenarios, and evaluate the conditions. Safe to call concurrently with
// the same prep.
func (p *theorem8Prep) run(builders map[string]Builder) (*Result, error) {
	sys, err := p.install(builders)
	if err != nil {
		return nil, err
	}
	run, err := timedsim.Execute(sys, p.tSecond)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Params:  p.params,
		K:       p.k,
		TSecond: p.tSecond,
		Logical: append([]float64(nil), run.FinalLogical...),
		Run:     run,
	}
	for _, i := range p.layout.checks {
		if err := p.check(builders, run, p.layout.scenarios[i]); err != nil {
			return nil, fmt.Errorf("clocksync: Lemma 9 self-check failed: %w", err)
		}
	}
	res.Violations = p.evaluate(run)
	if !res.Contradicted() {
		return res, fmt.Errorf("clocksync: no condition violated — impossible by Lemma 11:\n%s", res)
	}
	return res, nil
}

// sampleScenarios picks the scenarios to re-execute for the Lemma 9
// self-check (all of them would be quadratic in k; ends and middle
// suffice to validate the machinery).
func sampleScenarios(k int) []int {
	if k <= 2 {
		out := make([]int, k+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, k / 2, k}
}

// install builds the timed system on the cover: every S-node runs the
// device of its G-image, renamed through the cover's slot permutation,
// with hardware clock q∘h^(-position).
func (p *theorem8Prep) install(builders map[string]Builder) (*timedsim.System, error) {
	lay := p.layout
	s, g := lay.cover.S, lay.cover.G
	nodes := make([]timedsim.Node, s.N())
	for sn := range nodes {
		gn := lay.cover.Phi[sn]
		b, ok := builders[g.Name(gn)]
		if !ok {
			return nil, fmt.Errorf("clocksync: no builder for G-node %q", g.Name(gn))
		}
		nodes[sn] = timedsim.Node{
			Device: &renamedDevice{
				inner: b(g.Name(gn), lay.gNbs[gn]),
				self:  g.Name(gn),
				nbs:   lay.gNbs[gn],
				perm:  lay.cover.SlotPerm(sn, lay.sPorts, lay.gPorts),
			},
			Clock: p.params.Q.ComposeRat(p.iters[lay.position[sn]]),
		}
	}
	return &timedsim.System{G: s, Nodes: nodes, Delta: p.params.Delta}, nil
}

// renamedDevice runs a device built for G-node self at an S-node of the
// cover. S-slot i carries the edge of G-slot perm[i] (see
// graph.Cover.SlotPerm), so the inner device observes exactly the
// neighborhood it would have in G. As the inner device's executor, Tick
// clears gOut before each call.
type renamedDevice struct {
	inner  timedsim.Device
	self   string
	nbs    []string // self's G-neighbors, in G-slot order
	perm   []int
	gInbox []timedsim.Message
	gOut   []string
}

var _ timedsim.Device = (*renamedDevice)(nil)

// Init initializes the inner device with its G identity.
func (d *renamedDevice) Init(self string, neighbors []string) {
	d.inner.Init(d.self, d.nbs)
	d.gOut = make([]string, len(d.perm))
}

func (d *renamedDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {
	gInbox := d.gInbox[:0]
	for _, m := range inbox {
		gInbox = append(gInbox, timedsim.Message{From: d.perm[m.From], Payload: m.Payload, SentAt: m.SentAt})
	}
	d.gInbox = gInbox
	clear(d.gOut)
	d.inner.Tick(k, hw, gInbox, d.gOut)
	for i, gs := range d.perm {
		out[i] = d.gOut[gs]
	}
}

func (d *renamedDevice) Logical(hw clockfn.Q) float64 { return d.inner.Logical(hw) }
func (d *renamedDevice) Snapshot() string             { return d.inner.Snapshot() }

// check is the Lemma 9 self-check, generalized to any layout: re-execute
// scenario sc as a real run of G — the scenario's devices on their
// scaled clocks, every other G-node a script replaying the scaled border
// traffic — and require each correct node's ticks to match the covering
// run's: the same count, times scaled by h^-scale, and identical
// hardware readings and snapshots. This validates the Scaling,
// Locality, and Fault axioms on the actual run.
func (p *theorem8Prep) check(builders map[string]Builder, runS *timedsim.Run, sc scaledScenario) error {
	lay := p.layout
	cover, g := lay.cover, lay.cover.G
	if err := cover.InducedIsomorphic(sc.u); err != nil {
		return err
	}
	scale := p.iters[sc.scale]
	correct := make([]int, g.N()) // G-node -> S preimage in sc.u, or -1
	for i := range correct {
		correct[i] = -1
	}
	for _, sn := range sc.u {
		correct[cover.Phi[sn]] = sn
	}
	nodes := make([]timedsim.Node, g.N())
	for gn := range nodes {
		if sn := correct[gn]; sn >= 0 {
			// The scaled clock law (q h^-position) ∘ h^scale; every
			// layout's scenario spans positions scale and scale+1.
			e := sc.scale - lay.position[sn]
			if e > 0 || -e >= len(p.iters) {
				return fmt.Errorf("%s: S-node %s at position %d outside the scenario's scale %d",
					sc.name, cover.S.Name(sn), lay.position[sn], sc.scale)
			}
			nodes[gn] = timedsim.Node{
				Device: builders[g.Name(gn)](g.Name(gn), lay.gNbs[gn]),
				Clock:  p.params.Q.ComposeRat(p.iters[-e]),
			}
			continue
		}
		// Faulty node: script the scaled sends its preimage made toward
		// each correct neighbor. Per-edge send lists are time-ordered and
		// scaling preserves order, so fold-merging them reproduces the
		// stable sort of their concatenation.
		var script []timedsim.ScriptedSend
		for slot, gv := range lay.gPorts.Nbrs[gn] {
			sn := correct[gv]
			if sn < 0 {
				continue
			}
			recs := runS.Sends[lay.edgeFrom(gn, sn)]
			edge := make([]timedsim.ScriptedSend, 0, len(recs))
			for _, rec := range recs {
				edge = append(edge, timedsim.ScriptedSend{At: scale.At(rec.At), To: slot, Payload: rec.Payload})
			}
			script = mergeScript(script, edge)
		}
		nodes[gn] = timedsim.Node{Script: script, Clock: p.params.Q}
	}
	runG, err := timedsim.Execute(&timedsim.System{G: g, Nodes: nodes, Delta: p.params.Delta}, scale.At(p.tSecond))
	if err != nil {
		return err
	}
	for _, sn := range sc.u {
		name := g.Name(cover.Phi[sn])
		sTicks, gTicks := runS.Ticks[sn], runG.Ticks[cover.Phi[sn]]
		if len(sTicks) != len(gTicks) {
			return fmt.Errorf("%s: node %s: %d covering ticks vs %d spliced ticks",
				sc.name, name, len(sTicks), len(gTicks))
		}
		for j := range sTicks {
			st, gt := sTicks[j], gTicks[j]
			if scaled := scale.At(st.Time); scaled.Cmp(gt.Time) != 0 {
				return fmt.Errorf("%s: node %s tick %d: scaled time %s != %s",
					sc.name, name, j, scaled, gt.Time)
			}
			if st.HW.Cmp(gt.HW) != 0 {
				return fmt.Errorf("%s: node %s tick %d: hw %s != %s",
					sc.name, name, j, st.HW, gt.HW)
			}
			if st.Snapshot != gt.Snapshot {
				return fmt.Errorf("%s: node %s tick %d: snapshots differ: %q vs %q",
					sc.name, name, j, st.Snapshot, gt.Snapshot)
			}
		}
	}
	return nil
}

// edgeFrom returns the directed-edge id of S into sn from the neighbor
// whose image is G-node gn.
func (lay *scaledLayout) edgeFrom(gn, sn int) int {
	for j, nb := range lay.sPorts.Nbrs[sn] {
		if lay.cover.Phi[nb] == gn {
			return lay.sPorts.Rev[lay.sPorts.Out[sn]+j]
		}
	}
	panic(fmt.Sprintf("clocksync: no neighbor of %s maps to %s", lay.cover.S.Name(sn), lay.cover.G.Name(gn)))
}

// evaluate applies the agreement and envelope conditions to every
// scenario at its scaled time h^-scale(t”) and collects violations.
func (p *theorem8Prep) evaluate(run *timedsim.Run) []Violation {
	const tol = 1e-9
	params := p.params
	pf, qf := params.P.Float(), params.Q.Float()
	var violations []Violation
	for _, sc := range p.layout.scenarios {
		tauF := p.iters[sc.scale].At(p.tSecond).Float64()
		bound := params.L.At(qf.At(tauF)) - params.L.At(pf.At(tauF)) - params.Alpha
		loEnv, hiEnv := params.L.At(pf.At(tauF)), params.U.At(qf.At(tauF))
		for ai, a := range sc.u {
			ca := run.FinalLogical[a]
			if ca < loEnv-tol || ca > hiEnv+tol {
				violations = append(violations, Violation{
					Scenario: sc.name, Condition: "envelope",
					Detail: fmt.Sprintf("C(%s) = %.6f outside [l(p)=%.6f, u(q)=%.6f] at scaled time %.6f",
						run.G.Name(a), ca, loEnv, hiEnv, tauF),
				})
			}
			for _, b := range sc.u[ai+1:] {
				gap := ca - run.FinalLogical[b]
				if gap < 0 {
					gap = -gap
				}
				if gap > bound+tol {
					violations = append(violations, Violation{
						Scenario: sc.name, Condition: "agreement",
						Detail: fmt.Sprintf("|C(%s) - C(%s)| = %.6f > l(q)-l(p)-α = %.6f at scaled time %.6f",
							run.G.Name(a), run.G.Name(b), gap, bound, tauF),
					})
				}
			}
		}
	}
	return violations
}

// mergeScript merges two time-sorted script fragments into one sorted
// script, with dst's sends winning ties — exactly the order a stable
// insertion sort of dst followed by add would produce, but in linear
// time.
func mergeScript(dst, add []timedsim.ScriptedSend) []timedsim.ScriptedSend {
	if len(dst) == 0 {
		return add
	}
	if len(add) == 0 {
		return dst
	}
	out := make([]timedsim.ScriptedSend, 0, len(dst)+len(add))
	i, j := 0, 0
	for i < len(dst) && j < len(add) {
		if dst[i].At.Cmp(add[j].At) <= 0 {
			out = append(out, dst[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, dst[i:]...)
	return append(out, add[j:]...)
}
