package core

import (
	"context"
	"fmt"
	"strings"

	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/sim"
)

// Violation records one broken correctness condition in one constructed
// behavior of G.
type Violation struct {
	Link      string // which behavior in the chain, e.g. "E2"
	Condition string // "termination", "agreement", "validity", "envelope", ...
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s violated: %s", v.Link, v.Condition, v.Detail)
}

// Link is one constructed correct behavior of G in a contradiction chain,
// together with what the paper's argument expects of it.
type Link struct {
	Name    string   // E1, E2, ...
	Splice  *Splice  // the constructed run of G
	Expect  string   // human-readable statement of the forced conclusion
	Correct []string // G-names of correct nodes
	Faulty  []string // G-names of faulty nodes
}

// addLink appends one constructed behavior to the contradiction chain
// and, under tracing, emits a "core.chain.link" span describing the
// chain's structure: the theorem, the link's name and depth, its correct
// and faulty G-sets, the spliced S-subset, and the correct nodes shared
// with the previous link — the overlap the paper's argument rides on
// (E2 inherits c's behavior from E1 and donates a's to E3). Debugging a
// failed chain starts from exactly this record.
func (cr *ChainResult) addLink(l Link) {
	if obs.Enabled() {
		_, span := obs.StartSpan(context.Background(), "core.chain.link",
			obs.Str("theorem", cr.Theorem),
			obs.Str("link", l.Name),
			obs.Int("depth", len(cr.Links)+1),
			obs.Str("correct", strings.Join(l.Correct, ",")),
			obs.Str("faulty", strings.Join(l.Faulty, ",")))
		if l.Splice != nil {
			span.SetAttrs(obs.Str("spliced", strings.Join(l.Splice.UNodes, ",")))
		}
		if n := len(cr.Links); n > 0 {
			span.SetAttrs(obs.Str("shared_correct",
				strings.Join(intersect(cr.Links[n-1].Correct, l.Correct), ",")))
		}
		span.End()
	}
	cr.Links = append(cr.Links, l)
}

// intersect returns the names present in both sorted-or-not slices, in
// a's order. Chains are three to a few dozen links of at most a handful
// of nodes, so the quadratic scan is irrelevant.
func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// ChainResult is the outcome of running an impossibility argument against
// concrete devices: the covering run, the chain of spliced behaviors, and
// the violations found. The theorem guarantees Violations is non-empty;
// an empty list is reported as an engine error by the chain driver.
type ChainResult struct {
	Theorem    string // "Theorem 1 (nodes)", ...
	Problem    string // "Byzantine agreement", ...
	Device     string // description of the devices under test
	F          int    // fault bound
	G          *graph.Graph
	CoverSize  int
	RunS       *sim.Run
	Links      []Link
	Violations []Violation
}

// Contradicted reports whether the engine found at least one violated
// condition — i.e. the devices failed, as the theorem requires.
func (cr *ChainResult) Contradicted() bool { return len(cr.Violations) > 0 }

// String renders the chain in the style of the paper's argument.
func (cr *ChainResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s, f=%d, |G|=%d (inadequate), covering |S|=%d\n",
		cr.Theorem, cr.Problem, cr.F, cr.G.N(), cr.CoverSize)
	fmt.Fprintf(&b, "devices: %s\n", cr.Device)
	for _, link := range cr.Links {
		fmt.Fprintf(&b, "  %s: correct {%s}, faulty {%s} — expect %s\n",
			link.Name, strings.Join(link.Correct, ","), strings.Join(link.Faulty, ","), link.Expect)
	}
	if len(cr.Violations) == 0 {
		b.WriteString("  NO VIOLATION FOUND (engine error)\n")
	}
	for _, v := range cr.Violations {
		fmt.Fprintf(&b, "  ** %s\n", v)
	}
	return b.String()
}

// condition is one correctness condition of a problem, judged on one
// behavior: its name and, if it broke, why. A nil err means it held.
type condition struct {
	name string
	err  error
}

// check judges a problem's conditions on a behavior of G with the given
// correct nodes.
type check func(run *sim.Run, correct []string) []condition

// judge records every broken condition of one link as a violation.
func (cr *ChainResult) judge(link string, conds []condition) {
	for _, c := range conds {
		if c.err != nil {
			cr.Violations = append(cr.Violations, Violation{Link: link, Condition: c.name, Detail: c.err.Error()})
		}
	}
}

// scenario is one link of a chain as the argument plans it: the S-nodes
// whose scenario is spliced into a behavior of G, and what the argument
// expects of that behavior.
type scenario struct {
	name   string
	u      []int
	expect string
}

// runCover installs the devices on cover with the given per-S-node
// inputs and runs the covering system, recording the run on the chain.
func (cr *ChainResult) runCover(cover *graph.Cover, builders map[string]sim.Builder, inputs map[string]sim.Input, rounds int) (*Installation, error) {
	inst, err := InstallCover(cover, builders, inputs)
	if err != nil {
		return nil, err
	}
	if cr.RunS, err = inst.Execute(rounds); err != nil {
		return nil, err
	}
	cr.CoverSize = cover.S.N()
	return inst, nil
}

// chain is the proof template every covering theorem shares: splice
// each scenario of the covering run into a behavior of G, record it as
// a link, and judge it. The theorem guarantees that some condition
// breaks somewhere along the chain, so a chain that ends with none
// broken is an engine (or device-determinism) error.
func (cr *ChainResult) chain(inst *Installation, builders map[string]sim.Builder, scenarios []scenario, judge check) (*ChainResult, error) {
	for _, sc := range scenarios {
		sp, err := SpliceScenario(inst, cr.RunS, sc.u, builders)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", sc.name, err)
		}
		cr.addLink(Link{Name: sc.name, Splice: sp, Expect: sc.expect, Correct: sp.Correct, Faulty: sp.Faulty})
		cr.judge(sc.name, judge(sp.Run, sp.Correct))
	}
	if !cr.Contradicted() {
		return cr, fmt.Errorf("core: %s: no condition violated across %d links — impossible (engine or device-determinism bug):\n%s",
			cr.Theorem, len(cr.Links), cr)
	}
	return cr, nil
}
