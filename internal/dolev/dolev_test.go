package dolev

import (
	"sort"
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

func TestNewRouterRejectsLowConnectivity(t *testing.T) {
	if _, err := NewRouter(graph.Ring(6), 1); err == nil {
		t.Error("ring (connectivity 2) accepted for f=1")
	}
	if _, err := NewRouter(graph.Wheel(7), 2); err == nil {
		t.Error("wheel (connectivity 3) accepted for f=2")
	}
}

func TestRouterPathsAreDisjointAndComplete(t *testing.T) {
	g := graph.Wheel(7)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPaths() != 3 {
		t.Fatalf("NumPaths = %d", r.NumPaths())
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			used := map[int]bool{}
			for idx := 0; idx < r.NumPaths(); idx++ {
				p := r.Path(u, v, idx)
				if p == nil {
					t.Fatalf("missing path %d for %d->%d", idx, u, v)
				}
				if p[0] != u || p[len(p)-1] != v {
					t.Errorf("path %v does not join %d->%d", p, u, v)
				}
				for i := 0; i+1 < len(p); i++ {
					if !g.HasEdge(p[i], p[i+1]) {
						t.Errorf("path %v uses non-edge", p)
					}
				}
				for _, mid := range p[1 : len(p)-1] {
					if used[mid] {
						t.Errorf("paths %d->%d share internal node %d", u, v, mid)
					}
					used[mid] = true
				}
			}
		}
	}
	if r.Path(0, 1, 99) != nil {
		t.Error("out-of-range path index returned a path")
	}
}

func TestReversePathsMirror(t *testing.T) {
	g := graph.Circulant(8, 1, 2)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < r.NumPaths(); idx++ {
		fwd, rev := r.Path(0, 5, idx), r.Path(5, 0, idx)
		if len(fwd) != len(rev) {
			t.Fatalf("path %d lengths differ", idx)
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				t.Errorf("path %d not mirrored: %v vs %v", idx, fwd, rev)
			}
		}
	}
}

func overlayTrial(t *testing.T, g *graph.Graph, f, bits int, badNode string, corrupt func(sim.Builder) sim.Builder) byzantine.Report {
	t.Helper()
	r, err := NewRouter(g, f)
	if err != nil {
		t.Fatal(err)
	}
	honest := Overlay(r, byzantine.NewEIG(f, g.Names()))
	inputs := make(map[string]sim.Input, g.N())
	for i, name := range g.Names() {
		inputs[name] = sim.BoolInput(bits&(1<<uint(i)) != 0)
	}
	trial := byzantine.Trial{
		G:      g,
		Inputs: inputs,
		Honest: honest,
		Rounds: r.Rounds(byzantine.EIGRounds(f)),
	}
	if badNode != "" {
		trial.Faulty = map[string]sim.Builder{badNode: corrupt(honest)}
	}
	_, _, rep, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestOverlayEIGFaultFreeOnWheel(t *testing.T) {
	g := graph.Wheel(7) // connectivity 3 = 2f+1, n = 7 >= 3f+1
	for _, bits := range []int{0, 0x7f, 0x2a, 0x15, 0x63} {
		rep := overlayTrial(t, g, 1, bits, "", nil)
		if !rep.OK() {
			t.Errorf("bits=%x: %v", bits, rep.Err())
		}
	}
}

func TestOverlayEIGOneFaultOnWheel(t *testing.T) {
	g := graph.Wheel(7)
	for _, bits := range []int{0, 0x7f, 0x36} {
		for _, badNode := range []string{"w0", "w3"} { // hub and rim
			for _, strat := range adversary.Panel(19) {
				rep := overlayTrial(t, g, 1, bits, badNode, strat.Corrupt)
				if !rep.OK() {
					t.Errorf("bits=%x bad=%s strat=%s: %v", bits, badNode, strat.Name, rep.Err())
				}
			}
		}
	}
}

func TestOverlayEIGOnCirculant(t *testing.T) {
	// Circulant(7,{1,2}) has connectivity 4 >= 3 and n = 7 >= 4: adequate
	// for f=1 with margin.
	g := graph.Circulant(7, 1, 2)
	for _, strat := range adversary.Panel(23) {
		rep := overlayTrial(t, g, 1, 0x55, "c2", strat.Corrupt)
		if !rep.OK() {
			t.Errorf("strat=%s: %v", strat.Name, rep.Err())
		}
	}
}

func TestOverlayStretchMatchesLongestPath(t *testing.T) {
	g := graph.Wheel(7)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			for idx := 0; idx < r.NumPaths(); idx++ {
				if p := r.Path(u, v, idx); len(p)-1 > maxLen {
					maxLen = len(p) - 1
				}
			}
		}
	}
	if r.StretchFactor() != maxLen {
		t.Errorf("stretch %d, want %d", r.StretchFactor(), maxLen)
	}
}

func TestPieceCodecRejectsGarbage(t *testing.T) {
	g := graph.Complete(4)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := piece{origin: 0, dest: 1, pathIdx: 0, hop: 1, innerRound: 2, body: "ab"}
	wire := good.encode()
	for _, bad := range []string{
		"",
		wire[:len(wire)-1],           // body past the end
		wire[:3],                     // header cut short
		"\x04" + wire[1:],            // origin >= n
		wire[:1] + "\x04" + wire[2:], // dest >= n
		"\x80\x00" + wire[1:],        // overlong uvarint
		wire[:2] + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" + wire[3:], // pathIdx past int
	} {
		if _, _, ok := decodePiece(r, bad); ok {
			t.Errorf("garbage piece %q decoded", bad)
		}
	}
	decoded, rest, ok := decodePiece(r, wire+"tail")
	if !ok || decoded != good || rest != "tail" {
		t.Errorf("round trip failed: %+v rest %q vs %+v", decoded, rest, good)
	}
}

// mustRouter is NewRouter for graphs known to be adequate.
func mustRouter(tb testing.TB, g *graph.Graph, f int) *Router {
	tb.Helper()
	r, err := NewRouter(g, f)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// overlayOn builds the overlay EIG device for node self of the router's
// graph.
func overlayOn(r *Router, self string) *overlayDevice {
	// The executor hands a device its neighbors in name order.
	var neighbors []string
	for _, v := range r.g.Neighbors(r.g.MustIndex(self)) {
		neighbors = append(neighbors, r.g.Name(v))
	}
	sort.Strings(neighbors)
	return Overlay(r, byzantine.NewEIG(r.f, r.g.Names()))(self, neighbors, sim.BoolInput(true)).(*overlayDevice)
}

func countArrived(d *overlayDevice) int {
	n := 0
	for _, a := range d.arrived {
		if a.ok {
			n++
		}
	}
	return n
}

// A piece forged with a wrong claimed sender position must be dropped: a
// faulty node can corrupt only paths through itself.
func TestIngestRejectsWrongHop(t *testing.T) {
	r := mustRouter(t, graph.Complete(4), 1)
	d := overlayOn(r, "p2")
	// A direct path p0->p2 has the form [p0 p2]; a piece claiming hop 1
	// from the wrong sender p1 must be rejected.
	path := r.Path(0, 2, 0)
	if len(path) != 2 {
		t.Fatalf("expected direct path, got %v", path)
	}
	forged := piece{origin: 0, dest: 2, pathIdx: 0, hop: 1, innerRound: 0, body: "ab"}
	d.ingest([]sim.Payload{1: sim.Payload(forged.encode()), 2: sim.None}) // from p1
	if countArrived(d) != 0 {
		t.Error("forged piece accepted from wrong sender")
	}
	// The same piece from the true sender is accepted.
	d.ingest([]sim.Payload{sim.Payload(forged.encode()), sim.None, sim.None}) // from p0
	if countArrived(d) != 1 {
		t.Error("authentic piece rejected")
	}
}

// A faulty neighbor that is the last hop of a path can address pieces to
// any inner round. Only the round in flight may be kept: anything else
// would sit in the arrival table, and in every Snapshot, for the rest of
// the run.
func TestIngestKeepsOnlyInflightRound(t *testing.T) {
	r := mustRouter(t, graph.Complete(4), 1)
	d := overlayOn(r, "p2")
	// The direct path p0->p2 makes p0 its last hop.
	if path := r.Path(0, 2, 0); len(path) != 2 {
		t.Fatalf("expected direct path, got %v", path)
	}
	p := r.StretchFactor()
	for round := 1; round <= 4*p; round++ {
		var wire []byte
		for _, ir := range []int{1_000_000_000, round + 7, round/p + 1} {
			pc := piece{origin: 0, dest: 2, pathIdx: 0, hop: 1, innerRound: ir, body: "x"}
			wire = pc.appendEncode(wire)
		}
		d.Step(round, []sim.Payload{sim.Payload(wire), sim.None, sim.None}, make([]sim.Payload, 3))
		if n := countArrived(d); n != 0 {
			t.Fatalf("round %d: %d forged arrivals kept: %s", round, n, d.Snapshot())
		}
	}
	// A piece of the round in flight is kept.
	round := 4*p + 1
	pc := piece{origin: 0, dest: 2, pathIdx: 0, hop: 1, innerRound: (round - 1) / p, body: "x"}
	d.Step(round, []sim.Payload{sim.Payload(pc.encode()), sim.None, sim.None}, make([]sim.Payload, 3))
	if n := countArrived(d); n != 1 {
		t.Fatalf("in-flight piece: %d arrivals kept, want 1", n)
	}
}

// relayFixture finds a Wheel(7) path of at least two hops and returns the
// overlay device at its first relay, an inbox carrying k pieces on that
// path from its origin, and a round in which the inner device does not
// step.
func relayFixture(tb testing.TB, k int) (d *overlayDevice, in []sim.Payload, round int) {
	tb.Helper()
	g := graph.Wheel(7)
	r := mustRouter(tb, g, 1)
	for origin := 0; origin < g.N(); origin++ {
		for dest := 0; dest < g.N(); dest++ {
			for idx := 0; idx < r.NumPaths(); idx++ {
				path := r.Path(origin, dest, idx)
				if len(path) < 3 {
					continue
				}
				d = overlayOn(r, g.Name(path[1]))
				in = make([]sim.Payload, len(d.nbIdx))
				var wire []byte
				for i := 0; i < k; i++ {
					pc := piece{origin: origin, dest: dest, pathIdx: idx, hop: 1, innerRound: i, body: "=1;p0=0"}
					wire = pc.appendEncode(wire)
				}
				in[d.slotOf[origin]] = sim.Payload(wire)
				return d, in, 1
			}
		}
	}
	tb.Fatal("no path of two or more hops")
	return nil, nil, 0
}

// A relay forwards its pieces without copying them one by one: one Step
// allocates at most the one payload string of its one non-empty out
// slot, however many pieces that slot carries.
func TestRelayStepAllocs(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		d, in, round := relayFixture(t, k)
		if round%d.router.StretchFactor() == 0 {
			t.Fatalf("round %d steps the inner device", round)
		}
		out := make([]sim.Payload, len(in))
		allocs := testing.AllocsPerRun(100, func() {
			clear(out)
			d.Step(round, in, out)
		})
		sent := 0
		for _, p := range out {
			if p != sim.None {
				sent++
			}
		}
		if sent != 1 {
			t.Fatalf("k=%d: %d out slots non-empty, want 1", k, sent)
		}
		if allocs > float64(sent) {
			t.Errorf("k=%d: relay Step allocates %.1f times, want <= %d", k, allocs, sent)
		}
	}
}

func BenchmarkOverlayStep(b *testing.B) {
	d, in, round := relayFixture(b, 16)
	out := make([]sim.Payload, len(in))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(out)
		d.Step(round, in, out)
	}
}
