package sim

import (
	"fmt"
	"strings"
	"testing"

	"flm/internal/graph"
	"flm/internal/sweep"
)

// encodeRun canonically serializes everything a Run records, so two runs
// are behaviorally identical iff their encodings are byte-identical.
func encodeRun(r *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d\n", r.Rounds)
	for u := 0; u < r.G.N(); u++ {
		fmt.Fprintf(&b, "input %s=%s\n", r.G.Name(u), r.Inputs[u])
	}
	for u := 0; u < r.G.N(); u++ {
		fmt.Fprintf(&b, "decision %s=%q@%d\n", r.G.Name(u), r.Decisions[u].Value, r.Decisions[u].Round)
	}
	for u := 0; u < r.G.N(); u++ {
		if r.Snapshots != nil {
			fmt.Fprintf(&b, "snapshots %s=%q\n", r.G.Name(u), r.Snapshots[u])
		}
	}
	if r.Edges != nil {
		for id, e := range r.G.DirectedEdges() {
			fmt.Fprintf(&b, "edge %v=%q\n", e, r.Edges[id])
		}
	}
	return b.String()
}

// TestRunByteIdentical is the determinism regression guard for the
// mailbox fast path and the send-loop iteration order: the same system
// executed twice sequentially, and many times under the parallel sweep
// engine, must record byte-identical Runs.
func TestRunByteIdentical(t *testing.T) {
	g := graph.Complete(5)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i * 7))
	}
	mk := func() (*Run, error) {
		sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
		if err != nil {
			return nil, err
		}
		return Execute(sys, 4)
	}
	first, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRun(first)

	second, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeRun(second); got != want {
		t.Fatalf("sequential re-execution diverged:\n--- first ---\n%s\n--- second ---\n%s", want, got)
	}

	defer sweep.SetWorkers(sweep.SetWorkers(8))
	encodings, err := sweep.Map(16, func(int) (string, error) {
		run, err := mk()
		if err != nil {
			return "", err
		}
		return encodeRun(run), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range encodings {
		if got != want {
			t.Fatalf("parallel execution %d diverged from the sequential run", i)
		}
	}
}

// TestFastModeMatchesFullMode checks that recording options never feed
// back into execution: decisions agree bit for bit, and the fast run
// simply carries no snapshots or edges.
func TestFastModeMatchesFullMode(t *testing.T) {
	g := graph.Complete(4)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = BoolInput(i%2 == 0)
	}
	mkSys := func() *System {
		sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	full, err := ExecuteWith(mkSys(), 4, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ExecuteWith(mkSys(), 4, ExecuteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if full.Decisions[u] != fast.Decisions[u] {
			t.Errorf("node %s: full decision %+v, fast decision %+v",
				g.Name(u), full.Decisions[u], fast.Decisions[u])
		}
	}
	if fast.Snapshots != nil || fast.Edges != nil {
		t.Errorf("fast run recorded snapshots/edges: %v %v", fast.Snapshots, fast.Edges)
	}
	if _, err := fast.SnapshotsOf(g.Name(0)); err == nil {
		t.Error("SnapshotsOf on a fast run did not error")
	}
	if _, err := Extract(fast, g.Names()); err == nil {
		t.Error("Extract on a fast run did not error")
	}
}

// TestPartialRunOnDecisionError: a mid-round decision-consistency error
// must still yield a diagnosable partial state — snapshots recorded for
// ALL nodes through the failing round, not just the nodes stepped before
// the error was noticed.
func TestPartialRunOnDecisionError(t *testing.T) {
	g := graph.Line(3) // l0 (flip-flopper) - l1 - l2
	sys, err := NewSystem(g, gossipProtocol(g, 1, uniformInputs(g, "0")))
	if err != nil {
		t.Fatal(err)
	}
	sys.Devices[0] = &flipFlopDecider{} // decides "0"@0, flips to "1"@1
	run, err := Execute(sys, 4)
	if err == nil {
		t.Fatal("decision change accepted")
	}
	if !strings.Contains(err.Error(), "changed its decision") {
		t.Fatalf("unexpected error: %v", err)
	}
	if run == nil {
		t.Fatal("no partial run returned alongside the error")
	}
	// The flip happens in round 1, at node index 0 — the FIRST node of
	// the round. Every other node must still have its round-1 snapshot.
	const errRound = 1
	for u := 0; u < g.N(); u++ {
		for r := 0; r <= errRound; r++ {
			if run.Snapshots[u][r] == "" {
				t.Errorf("node %s round %d snapshot missing from partial run", g.Name(u), r)
			}
		}
	}
}
