package sim

import (
	"bytes"
	"testing"

	"flm/internal/graph"
)

// fuzzSeedRuns executes a few small systems covering every blob shape:
// full recording, decision-only, an asynchronous run and an edgeless
// graph.
func fuzzSeedRuns(tb testing.TB) []*Run {
	tb.Helper()
	tri := graph.Triangle()
	line := graph.Line(3)
	var runs []*Run
	for _, c := range []struct {
		g      *graph.Graph
		rounds int
		opts   ExecuteOpts
	}{
		{tri, 3, FullRecording},
		{line, 2, ExecuteOpts{}},
		{line, 4, ExecuteOpts{RecordSnapshots: true, RecordEdges: true,
			Delays: &DelaySchedule{Rules: []DelayRule{{From: "l0", To: "l1", Round: 0, Extra: 2}}}}},
		{graph.MustNew("solo"), 1, FullRecording},
	} {
		sys, err := NewSystem(c.g, gossipProtocol(c.g, 1, uniformInputs(c.g, "1")))
		if err != nil {
			tb.Fatal(err)
		}
		r, err := ExecuteWith(sys, c.rounds, c.opts)
		if err != nil {
			tb.Fatal(err)
		}
		runs = append(runs, r)
	}
	return runs
}

// FuzzRunCodec feeds arbitrary bytes to the disk tier's decoder. Every
// input must either be rejected or decode to a Run that re-encodes to
// exactly the same bytes: the frame is canonical, so anything Decode
// accepts is a blob Encode could have written.
func FuzzRunCodec(f *testing.F) {
	for _, r := range fuzzSeedRuns(f) {
		b, ok := RunCodec{}.Encode("k", r)
		if !ok {
			f.Fatal("Encode declined a seed run")
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := RunCodec{}.Decode("k", data)
		if err != nil {
			return
		}
		again, ok := RunCodec{}.Encode("k", v)
		if !ok {
			t.Fatal("a decoded run does not re-encode")
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode is not the identity:\n in  %q\n out %q", data, again)
		}
	})
}

// TestRunBlobShapeMismatchRejected encodes runs whose recorded shape
// disagrees with their graph or round count; Decode must reject each.
func TestRunBlobShapeMismatchRejected(t *testing.T) {
	base := fuzzSeedRuns(t)[0]
	clone := func() *Run {
		r := *base
		r.Edges = append([][]Payload(nil), base.Edges...)
		r.Snapshots = append([][]string(nil), base.Snapshots...)
		return &r
	}
	cases := map[string]func(r *Run){
		"missing edge sequence": func(r *Run) { r.Edges = r.Edges[1:] },
		"extra edge sequence":   func(r *Run) { r.Edges = append(r.Edges, make([]Payload, r.Rounds)) },
		"long edge sequence":    func(r *Run) { r.Edges[0] = append(r.Edges[0][:r.Rounds:r.Rounds], "x") },
		"short edge sequence":   func(r *Run) { r.Edges[2] = r.Edges[2][:r.Rounds-1] },
		"short snapshots":       func(r *Run) { r.Snapshots[1] = r.Snapshots[1][:r.Rounds-1] },
	}
	for name, tamper := range cases {
		r := clone()
		tamper(r)
		data, ok := RunCodec{}.Encode("k", r)
		if !ok {
			t.Fatalf("%s: Encode declined", name)
		}
		if _, err := (RunCodec{}).Decode("k", data); err == nil {
			t.Errorf("%s: Decode accepted a blob that disagrees with its graph", name)
		}
	}
}
