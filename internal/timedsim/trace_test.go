package timedsim

import (
	"io"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/obs"
)

type runCounts struct{ runs, ticks, sends, big uint64 }

func readRunCounts() runCounts {
	return runCounts{mExecRuns.Value(), mTicks.Value(), mSends.Value(), mRatBig.Value()}
}

// TestExecuteCounters: a traced Execute publishes its run, tick and send
// totals and the recorded rationals past int64 (one send time and one
// payload here); an untraced one publishes nothing.
func TestExecuteCounters(t *testing.T) {
	tiny, _ := clockfn.ParseQ("1/18446744073709551616") // 2^-64
	mk := func() *System {
		return &System{
			G: graph.Line(2),
			Nodes: []Node{
				{Script: []ScriptedSend{{At: tiny, To: 0, Payload: tiny.String()}}, Clock: clockfn.RatIdentity()},
				{Device: &beacon{}, Clock: clockfn.RatIdentity()},
			},
			Delta: rat(1, 1),
		}
	}
	before := readRunCounts()
	run, err := Execute(mk(), rat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := readRunCounts(); got != before {
		t.Fatalf("untraced Execute moved the counters: %+v -> %+v", before, got)
	}
	restore := obs.SetTracer(obs.NewTracer(io.Discard))
	defer restore()
	if _, err := Execute(mk(), rat(2, 1)); err != nil {
		t.Fatal(err)
	}
	var sends uint64
	for _, recs := range run.Sends {
		sends += uint64(len(recs))
	}
	got := readRunCounts()
	want := runCounts{runs: 1, ticks: uint64(len(run.Ticks[1])), sends: sends, big: 2}
	if d := (runCounts{got.runs - before.runs, got.ticks - before.ticks, got.sends - before.sends, got.big - before.big}); d != want {
		t.Fatalf("traced Execute counted %+v, want %+v", d, want)
	}
}
