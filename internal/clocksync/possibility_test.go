package clocksync

import (
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

func TestTrimmedMidpointBeatsTrivialOnAdequateGraph(t *testing.T) {
	// K4, f=1: three correct nodes (two slow clocks, one fast) plus a
	// scripted clock liar. The trimmed-midpoint device must keep the
	// correct gap well below the unbounded trivial gap at late times.
	params := stdParams(1)
	g := graph.Complete(4)
	clocks := []clockfn.RatLinear{
		clockfn.RatIdentity(),            // p0: slow
		clockfn.NewRatLinear(3, 2, 0, 1), // p1: fast
		clockfn.NewRatLinear(5, 4, 1, 4), // p2: in between, offset
		clockfn.RatIdentity(),            // p3: the liar (clock irrelevant)
	}
	builders := map[string]Builder{}
	for _, name := range g.Names() {
		builders[name] = NewTrimmedMidpoint(params.L, 1)
	}
	samples := []clockfn.Q{clockfn.NewQ(8, 1), clockfn.NewQ(32, 1), clockfn.NewQ(64, 1)}
	results, err := MeasureAdequateSync(params, g, clocks, builders, "p3",
		mustClockLiar(g, "p3", 64), samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.T >= 32 && r.MeasuredGap >= r.TrivialGap {
			t.Errorf("t=%v: measured gap %.3f not below trivial %.3f on an ADEQUATE graph",
				r.T, r.MeasuredGap, r.TrivialGap)
		}
		// The liar must not have dragged the correct clocks to absurdity.
		if r.MeasuredGap > 10 {
			t.Errorf("t=%v: gap %.3f exploded; trimming failed", r.T, r.MeasuredGap)
		}
	}
}

func TestTrivialDeviceMatchesTrivialGapExactly(t *testing.T) {
	params := stdParams(1)
	g := graph.Complete(4)
	clocks := []clockfn.RatLinear{
		clockfn.RatIdentity(),            // slow
		clockfn.NewRatLinear(3, 2, 0, 1), // fast
		clockfn.NewRatLinear(5, 4, 1, 4), // in between, offset
		clockfn.RatIdentity(),            // the liar's (irrelevant)
	}
	builders := map[string]Builder{}
	for _, name := range g.Names() {
		builders[name] = NewTrivialLower(params.L)
	}
	results, err := MeasureAdequateSync(params, g, clocks, builders, "", nil,
		[]clockfn.Q{clockfn.NewQ(8, 1), clockfn.NewQ(32, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if diff := r.MeasuredGap - r.TrivialGap; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("t=%v: trivial device gap %.6f != l(q)-l(p) = %.6f", r.T, r.MeasuredGap, r.TrivialGap)
		}
	}
}

// mustClockLiar is ClockLiarScript for a liar the test knows is in g.
func mustClockLiar(g *graph.Graph, liar string, until int64) []timedsim.ScriptedSend {
	script, err := ClockLiarScript(g, liar, until)
	if err != nil {
		panic(err)
	}
	return script
}

func TestMeasureAdequateSyncValidation(t *testing.T) {
	params := stdParams(1)
	g := graph.Complete(3)
	if _, err := MeasureAdequateSync(params, g, nil, nil, "", nil, nil); err == nil {
		t.Error("clock count mismatch accepted")
	}
	clocks := []clockfn.RatLinear{clockfn.RatIdentity(), clockfn.RatIdentity(), clockfn.RatIdentity()}
	samples := []clockfn.Q{clockfn.NewQ(1, 1)}
	if _, err := MeasureAdequateSync(params, g, clocks, map[string]Builder{}, "", nil, samples); err == nil {
		t.Error("missing builder accepted")
	}
	builders := uniformBuilders(g, NewMidpoint(params.L))
	script := mustClockLiar(g, "p2", 4)
	if _, err := MeasureAdequateSync(params, g, clocks, builders, "p9", script, samples); err == nil {
		t.Error("a liar that is not a node of the graph accepted")
	}
	if _, err := MeasureAdequateSync(params, g, clocks, builders, "", script, samples); err == nil {
		t.Error("a liar script without a liar accepted")
	}
	if _, err := ClockLiarScript(g, "p9", 4); err == nil {
		t.Error("ClockLiarScript accepted a liar that is not a node of the graph")
	}
	if _, err := MeasureAdequateSync(params, g, clocks, builders, "p2", script, samples); err != nil {
		t.Errorf("valid liar rejected: %v", err)
	}
}
