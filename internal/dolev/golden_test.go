package dolev

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/overlay.golden")

// goldenCases are E10's adequate graphs with their fault bounds.
var goldenCases = []struct {
	name string
	g    *graph.Graph
	f    int
}{
	{"Wheel(7)", graph.Wheel(7), 1},
	{"Circulant(7;1,2)", graph.Circulant(7, 1, 2), 1},
	{"Hypercube(3)", graph.Hypercube(3), 1},
	{"Circulant(9;1,2,3)", graph.Circulant(9, 1, 2, 3), 2},
}

// TestOverlayGolden pins what the inner devices see through the overlay.
// For every E10 graph, panel strategy (seed 17, as E10) and input pattern
// (all false, all true), it runs the strategy at each node in turn and
// digests every honest node's per-round Snapshot and final decision.
// Run with -update to rewrite testdata/overlay.golden after an intended
// change.
func TestOverlayGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases {
		r, err := NewRouter(c.g, c.f)
		if err != nil {
			t.Fatal(err)
		}
		honest := Overlay(r, byzantine.NewEIG(c.f, c.g.Names()))
		names := c.g.Names()
		for _, strat := range adversary.Panel(17) {
			faulty := strat.Corrupt(honest)
			for _, value := range []bool{false, true} {
				inputs := make(map[string]sim.Input, len(names))
				for _, name := range names {
					inputs[name] = sim.BoolInput(value)
				}
				h := sha256.New()
				for _, bad := range names {
					trial := byzantine.Trial{
						G: c.g, Inputs: inputs, Honest: honest,
						Faulty: map[string]sim.Builder{bad: faulty},
						Rounds: r.Rounds(byzantine.EIGRounds(c.f)),
					}
					run, _, _, err := trial.RunWith(sim.ExecuteOpts{RecordSnapshots: true})
					if err != nil {
						t.Fatalf("%s %s bad=%s: %v", c.name, strat.Name, bad, err)
					}
					for u, name := range names {
						if name == bad {
							continue
						}
						for round, snap := range run.Snapshots[u] {
							fmt.Fprintf(h, "%s %s %d %q\n", bad, name, round, snap)
						}
						fmt.Fprintf(h, "%s %s decide %q@%d\n", bad, name, run.Decisions[u].Value, run.Decisions[u].Round)
					}
				}
				fmt.Fprintf(&b, "%s %s input=%v sha256=%x\n", c.name, strat.Name, value, h.Sum(nil))
			}
		}
	}
	path := filepath.Join("testdata", "overlay.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("overlay runs differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
