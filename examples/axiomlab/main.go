// Axiom lab: hands-on demonstrations of the three FLM85 axioms the whole
// paper rests on — Locality, Fault, and Scaling — plus the two weakenings
// that make consensus possible again (signatures and zero-minimum-delay).
package main

import (
	"fmt"
	"log"

	"flm"
)

func main() {
	locality()
	faultAxiom()
	signatures()
	zeroDelay()
}

// locality: replace everything outside a subsystem with replay devices
// carrying the recorded border traffic; the subsystem cannot tell.
func locality() {
	fmt.Println("=== Locality axiom ===")
	g := flm.Complete(4)
	p := flm.Protocol{Builders: map[string]flm.Builder{}, Inputs: map[string]flm.Input{}}
	for i, name := range g.Names() {
		p.Builders[name] = flm.NewEIG(1, g.Names())
		p.Inputs[name] = flm.BoolInput(i%2 == 0)
	}
	sys, err := flm.NewSystem(g, p)
	if err != nil {
		log.Fatal(err)
	}
	run, err := flm.Execute(sys, flm.EIGRounds(1))
	if err != nil {
		log.Fatal(err)
	}
	builders := map[string]flm.Builder{
		"p1": flm.NewEIG(1, g.Names()),
		"p2": flm.NewEIG(1, g.Names()),
	}
	if _, err := flm.CheckLocality(run, []string{"p1", "p2"}, builders); err != nil {
		log.Fatalf("locality violated: %v", err)
	}
	fmt.Println("replacing p0 and p3 with border-replay devices left {p1,p2}'s")
	fmt.Println("behavior byte-identical: the subsystem only sees its inedges. ✓")
	fmt.Println()
}

// faultAxiom: one faulty device exhibits, simultaneously, edge behaviors
// recorded in two different runs.
func faultAxiom() {
	fmt.Println("=== Fault axiom: F_A(E1,...,Ed) ===")
	g := flm.Triangle()
	mkRun := func(aInput flm.Input) *flm.Run {
		p := flm.Protocol{Builders: map[string]flm.Builder{}, Inputs: map[string]flm.Input{
			"a": aInput, "b": "0", "c": "0",
		}}
		for _, name := range g.Names() {
			p.Builders[name] = flm.NewMajority(2)
		}
		sys, err := flm.NewSystem(g, p)
		if err != nil {
			log.Fatal(err)
		}
		run, err := flm.Execute(sys, 5)
		if err != nil {
			log.Fatal(err)
		}
		return run
	}
	run0, run1 := mkRun("0"), mkRun("1")
	toB, _ := run0.EdgeBehavior("a", "b") // a's face from the input-0 run
	toC, _ := run1.EdgeBehavior("a", "c") // a's face from the input-1 run
	p := flm.Protocol{Builders: map[string]flm.Builder{
		"a": flm.ReplayBuilder(map[string][]flm.Payload{"b": toB, "c": toC}),
		"b": flm.NewMajority(2),
		"c": flm.NewMajority(2),
	}, Inputs: map[string]flm.Input{"a": "0", "b": "0", "c": "0"}}
	sys, err := flm.NewSystem(g, p)
	if err != nil {
		log.Fatal(err)
	}
	run, err := flm.Execute(sys, 5)
	if err != nil {
		log.Fatal(err)
	}
	db, _ := run.DecisionOf("b")
	dc, _ := run.DecisionOf("c")
	fmt.Println("faulty a replays its input-0 face to b and its input-1 face to c:")
	fmt.Printf("  b decided %s, c decided %s — the masquerade is exactly what\n", db.Value, dc.Value)
	fmt.Println("  the covering proofs exploit.")
	fmt.Println()
}

// signatures: the masquerade dies when statements are signed.
func signatures() {
	fmt.Println("=== Weakening the Fault axiom: unforgeable signatures ===")
	g := flm.Triangle()
	reg := flm.NewSigRegistry()
	honest := flm.NewDolevStrong(1, g.Names(), reg)
	p := flm.Protocol{Builders: map[string]flm.Builder{}, Inputs: map[string]flm.Input{
		"a": "1", "b": "1", "c": "0",
	}}
	for _, name := range g.Names() {
		p.Builders[name] = honest
	}
	p.Builders["c"] = flm.Equivocate(honest, flm.BoolInput(false), flm.BoolInput(true),
		func(nb string) bool { return nb == "a" })
	sys, err := flm.NewSystem(g, p)
	if err != nil {
		log.Fatal(err)
	}
	run, err := flm.Execute(sys, flm.DolevStrongRounds(1))
	if err != nil {
		log.Fatal(err)
	}
	rep := flm.CheckByzantineAgreement(run, []string{"a", "b"})
	fmt.Printf("signed Dolev-Strong on the TRIANGLE with an equivocating traitor:\n")
	fmt.Printf("  agreement+validity hold: %v — n=3 suffices once signatures break\n", rep.OK())
	fmt.Println("  the Fault axiom (Theorem 1 needed n >= 4).")
	fmt.Println()
}

// zeroDelay: footnote 4's algorithm and its minimum-delay breakdown.
func zeroDelay() {
	fmt.Println("=== Weakening Bounded-Delay: footnote 4 ===")
	g := flm.Triangle()
	inputs := map[string]string{"a": "1", "b": "1", "c": "1"}
	lateConflict := func(self string, nbs []string) []flm.ZDMessage {
		out := []flm.ZDMessage{}
		for _, nb := range nbs {
			out = append(out, flm.ZDMessage{To: nb, Value: "1", Arrive: flm.NewRat(1, 2)})
		}
		out = append(out, flm.ZDMessage{To: nbs[0], Value: "0", Arrive: flm.NewRat(99, 100)})
		return out
	}
	for _, delay := range []flm.Rat{flm.NewRat(0, 1), flm.NewRat(1, 50)} {
		res, err := flm.ZeroDelayRun(g, inputs, map[string]flm.ZDStrategy{"c": lateConflict}, delay)
		if err != nil {
			log.Fatal(err)
		}
		rep := flm.CheckZeroDelay(res, inputs, false)
		verdict := "agreement holds"
		if rep.Agreement != nil {
			verdict = "BROKEN: " + rep.Agreement.Error()
		}
		fmt.Printf("  min delay %-5s -> %s\n", delay.String(), verdict)
	}
	fmt.Println("with no minimum delay the victim warns everyone in time; any")
	fmt.Println("positive minimum delay re-enables Theorem 2's impossibility.")
}
