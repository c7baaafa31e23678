package clocksync

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// adequateCase is one MeasureAdequateSync configuration whose runs the
// adequate golden pins.
type adequateCase struct {
	name    string
	g       *graph.Graph
	builder Builder
	liar    string
	script  []timedsim.ScriptedSend
	samples []clockfn.Q
}

// seededLiarScript is the chaos panel's clock liar: at every integer time
// through until it reports a seeded pseudo-random value in [-10^6, 10^6]
// to each neighbor independently.
func seededLiarScript(g *graph.Graph, liar string, seed, until int64) []timedsim.ScriptedSend {
	rng := rand.New(rand.NewSource(seed))
	slots := g.Slots(g.MustIndex(liar))
	var script []timedsim.ScriptedSend
	for t := int64(0); t <= until; t++ {
		for _, slot := range slots {
			val := rng.Int63n(2_000_001) - 1_000_000
			script = append(script, timedsim.ScriptedSend{At: clockfn.NewQ(t, 1), To: slot, Payload: strconv.FormatInt(val, 10)})
		}
	}
	return script
}

// adequateCases are the E8 K4 panel and two schedules of the sync chaos
// smoke (seed 1): trial 38 (K3, midpoint, liar p2) and trial 5 (K4,
// trimmed midpoint, liar p1). The averaging devices halve their
// correction every tick, so these runs outgrow 64-bit fractions partway
// through.
func adequateCases() []adequateCase {
	l := stdParams(1).L
	k3, k4 := graph.Complete(3), graph.Complete(4)
	return []adequateCase{
		{"E8 K4 trimmed-midpoint liar p3", k4, NewTrimmedMidpoint(l, 1), "p3", mustClockLiar(k4, "p3", 64),
			[]clockfn.Q{clockfn.NewQ(8, 1), clockfn.NewQ(32, 1), clockfn.NewQ(64, 1)}},
		{"chaos K3 midpoint liar p2", k3, NewMidpoint(l), "p2", seededLiarScript(k3, "p2", 2493285965695944854, 64),
			[]clockfn.Q{clockfn.NewQ(32, 1), clockfn.NewQ(64, 1)}},
		{"chaos K4 trimmed-midpoint liar p1", k4, NewTrimmedMidpoint(l, 1), "p1", seededLiarScript(k4, "p1", 5644905828028323135, 64),
			[]clockfn.Q{clockfn.NewQ(32, 1), clockfn.NewQ(64, 1)}},
	}
}

// hashRun digests everything a timed run observed: every tick's time,
// hardware reading, snapshot and logical clock, and every send.
func hashRun(run *timedsim.Run) (ticks, sends int, sum string) {
	h := sha256.New()
	for u, recs := range run.Ticks {
		for _, tk := range recs {
			fmt.Fprintf(h, "tick %d %d %s %s %q %s\n", u, tk.Index, tk.Time.String(), tk.HW.String(),
				tk.Snapshot, strconv.FormatFloat(tk.Logical, 'g', -1, 64))
			ticks++
		}
	}
	for id, recs := range run.Sends {
		for _, rec := range recs {
			fmt.Fprintf(h, "send %d %s %q\n", id, rec.At.String(), rec.Payload)
			sends++
		}
	}
	return ticks, sends, fmt.Sprintf("%x", h.Sum(nil))
}

// TestAdequateSyncGolden pins every tick and send of the adequate-graph
// synchronization runs. Run with -update to rewrite
// testdata/adequate.golden after an intended change.
func TestAdequateSyncGolden(t *testing.T) {
	params := stdParams(1)
	clockZoo := []clockfn.RatLinear{
		clockfn.RatIdentity(),
		clockfn.NewRatLinear(3, 2, 0, 1),
		clockfn.NewRatLinear(5, 4, 1, 4),
	}
	var b strings.Builder
	for _, c := range adequateCases() {
		clocks := make([]clockfn.RatLinear, c.g.N())
		builders := map[string]Builder{}
		for i, name := range c.g.Names() {
			clocks[i] = clockZoo[i%len(clockZoo)]
			builders[name] = c.builder
		}
		for _, until := range c.samples {
			run, err := adequateRun(params, c.g, clocks, builders, c.liar, c.script, until)
			if err != nil {
				t.Fatalf("%s t=%s: %v", c.name, until.String(), err)
			}
			ticks, sends, sum := hashRun(run)
			fmt.Fprintf(&b, "%s t=%s ticks=%d sends=%d sha256=%s\n", c.name, until.String(), ticks, sends, sum)
		}
	}
	path := filepath.Join("testdata", "adequate.golden")
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
		t.Fatalf("adequate runs differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
