package timedsim

import (
	"math/big"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
)

// recordedRats collects every *big.Rat reachable from a Run, with a
// stable textual identity for each.
func recordedRats(run *Run) (ptrs []*big.Rat, vals []string) {
	add := func(r *big.Rat) {
		if r != nil {
			ptrs = append(ptrs, r)
			vals = append(vals, r.RatString())
		}
	}
	add(run.Until)
	for u := range run.Ticks {
		for _, tk := range run.Ticks[u] {
			add(tk.Time)
			add(tk.HW)
		}
	}
	for _, recs := range run.Sends {
		for _, rec := range recs {
			add(rec.At)
		}
	}
	for _, hw := range run.FinalHW {
		add(hw)
	}
	return ptrs, vals
}

// TestArenaDoesNotLeakScratchIntoRun pins the arena contract: every
// rational recorded in a Run is a stable value of its own — re-executing
// the same system (which spins the scheduler's scratch state and a fresh
// arena through the same numeric sequence) and mutating the caller's
// Delta afterwards must not change any previously recorded value.
func TestArenaDoesNotLeakScratchIntoRun(t *testing.T) {
	mk := func() *System {
		sys := lineSystem(clockfn.NewRatLinear(3, 2, 1, 2), clockfn.NewRatLinear(5, 3, -1, 3))
		sys.Nodes[0].Script = nil
		return sys
	}
	sys := mk()
	runA, err := Execute(sys, rat(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	ptrs, vals := recordedRats(runA)
	if len(ptrs) == 0 {
		t.Fatal("run recorded no rationals")
	}

	// The run must not alias caller-owned rationals: mutating Delta (or
	// executing again with it) cannot reach into runA.
	for i, p := range ptrs {
		if p == sys.Delta || p == sys.Nodes[0].Clock.Rate || p == sys.Nodes[0].Clock.Off ||
			p == sys.Nodes[1].Clock.Rate || p == sys.Nodes[1].Clock.Off {
			t.Fatalf("recorded rational %d (%s) aliases a caller-owned value", i, vals[i])
		}
	}

	// Re-execute on the same System value: a fresh arena and scratch
	// state walk the same schedule. If any scratch rational had escaped
	// into runA, this would overwrite it.
	if _, err := Execute(sys, rat(6, 1)); err != nil {
		t.Fatal(err)
	}
	// And mutate the caller's inputs outright.
	sys.Delta.SetFrac64(7, 3)
	for i, p := range ptrs {
		if got := p.RatString(); got != vals[i] {
			t.Fatalf("recorded rational %d changed after re-execution: %s -> %s", i, vals[i], got)
		}
	}

	// The designed aliasing is the only aliasing: a tick's Time is the
	// SentAt of the messages sent at that tick, which is fine because Run
	// rationals are immutable; but values from DIFFERENT events never
	// share storage. Spot-check that distinct tick times are distinct
	// pointers.
	seen := map[*big.Rat]string{}
	for u := range runA.Ticks {
		for _, tk := range runA.Ticks[u] {
			if prev, ok := seen[tk.Time]; ok && prev != tk.Time.RatString() {
				t.Fatalf("two events share rational storage: %s vs %s", prev, tk.Time.RatString())
			}
			seen[tk.Time] = tk.Time.RatString()
		}
	}
}

// TestScriptSendTimesCopied: scripted send times are copied into the
// run's arena, so mutating the script afterwards cannot corrupt the
// recorded behavior (scripts are routinely built from another run's
// records and rescaled in place by callers).
func TestScriptSendTimesCopied(t *testing.T) {
	at := rat(1, 2)
	sys := &System{
		G: graph.Line(2),
		Nodes: []Node{
			{Script: []ScriptedSend{{At: at, To: 0, Payload: "x"}}, Clock: clockfn.RatIdentity()},
			{Device: &beacon{}, Clock: clockfn.RatIdentity()},
		},
		Delta: rat(1, 1),
	}
	run, err := Execute(sys, rat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := sys.G.EdgeID("l0", "l1")
	recs := run.Sends[id]
	if len(recs) != 1 {
		t.Fatalf("recorded %d sends, want 1", len(recs))
	}
	if recs[0].At == at {
		t.Fatal("recorded send time aliases the script's rational")
	}
	at.SetFrac64(9, 1)
	if recs[0].At.RatString() != "1/2" {
		t.Fatalf("recorded send time mutated via script alias: %s", recs[0].At.RatString())
	}
}
