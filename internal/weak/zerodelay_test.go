package weak

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flm/internal/clockfn"
	"flm/internal/graph"
)

func rat(n, d int64) clockfn.Q { return clockfn.NewQ(n, d) }

func boolInputsZD(g *graph.Graph, bits int) map[string]string {
	m := make(map[string]string, g.N())
	for i, name := range g.Names() {
		m[name] = "0"
		if bits&(1<<uint(i)) != 0 {
			m[name] = "1"
		}
	}
	return m
}

func TestZeroDelayAllCorrect(t *testing.T) {
	g := graph.Complete(4)
	for bits := 0; bits < 16; bits++ {
		res, err := ZeroDelayRun(g, boolInputsZD(g, bits), nil, rat(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		rep := CheckZD(res, boolInputsZD(g, bits), true)
		if !rep.OK() {
			t.Errorf("bits=%b: %v", bits, rep.Err())
		}
		// Unanimous inputs must yield no anomalies at all.
		if bits == 0 || bits == 15 {
			for name, a := range res.Anomaly {
				if a {
					t.Errorf("bits=%b: %s detected a phantom anomaly", bits, name)
				}
			}
		}
	}
}

// zdPanel is a suite of scripted zero-delay adversaries.
func zdPanel() map[string]ZDStrategy {
	return map[string]ZDStrategy{
		"silent": func(self string, nbs []string) []ZDMessage { return nil },
		"equivocate@half": func(self string, nbs []string) []ZDMessage {
			var out []ZDMessage
			for i, nb := range nbs {
				v := "0"
				if i%2 == 0 {
					v = "1"
				}
				out = append(out, ZDMessage{To: nb, Value: v, Arrive: rat(1, 2)})
			}
			return out
		},
		"late-conflict": func(self string, nbs []string) []ZDMessage {
			out := []ZDMessage{}
			for _, nb := range nbs {
				out = append(out, ZDMessage{To: nb, Value: "1", Arrive: rat(1, 2)})
			}
			// A conflicting second value to one node, arriving very late.
			out = append(out, ZDMessage{To: nbs[0], Value: "0", Arrive: rat(99, 100)})
			return out
		},
		"garbage": func(self string, nbs []string) []ZDMessage {
			var out []ZDMessage
			for _, nb := range nbs {
				out = append(out, ZDMessage{To: nb, Value: "zz", Arrive: rat(1, 2)})
			}
			return out
		},
		"fake-failure": func(self string, nbs []string) []ZDMessage {
			var out []ZDMessage
			for _, nb := range nbs {
				out = append(out, ZDMessage{To: nb, Value: "1", Arrive: rat(1, 2)})
				out = append(out, ZDMessage{To: nb, Failure: true, Arrive: rat(3, 4)})
			}
			return out
		},
		"partial-failure": func(self string, nbs []string) []ZDMessage {
			out := []ZDMessage{}
			for _, nb := range nbs {
				out = append(out, ZDMessage{To: nb, Value: "1", Arrive: rat(1, 2)})
			}
			// A failure notice to one node only, arriving very late.
			out = append(out, ZDMessage{To: nbs[len(nbs)-1], Failure: true, Arrive: rat(999, 1000)})
			return out
		},
	}
}

// Footnote 4's claim: with no minimum delay, weak agreement holds against
// every adversary — even when the adversary outnumbers the correct nodes.
func TestZeroDelaySurvivesEveryAdversary(t *testing.T) {
	for name, strat := range zdPanel() {
		for _, g := range []*graph.Graph{graph.Triangle(), graph.Complete(4)} {
			for bits := 0; bits < 1<<uint(g.N()); bits++ {
				for _, badNode := range g.Names() {
					inputs := boolInputsZD(g, bits)
					res, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{badNode: strat}, rat(0, 1))
					if err != nil {
						t.Fatal(err)
					}
					rep := CheckZD(res, inputs, false)
					if rep.Agreement != nil {
						t.Errorf("strat=%s n=%d bits=%b bad=%s: %v", name, g.N(), bits, badNode, rep.Agreement)
					}
				}
			}
		}
	}
}

// Two faults among three nodes — a regime where ordinary weak agreement
// is hopeless — still works at zero delay.
func TestZeroDelayMajorityFaulty(t *testing.T) {
	g := graph.Triangle()
	inputs := map[string]string{"a": "1", "b": "1", "c": "1"}
	panel := zdPanel()
	res, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{
		"b": panel["equivocate@half"],
		"c": panel["late-conflict"],
	}, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 1 {
		t.Fatalf("decisions: %v", res.Decisions)
	}
	// A single correct node trivially agrees with itself; the point is
	// the run completes and decides.
	if res.Decisions["a"] == "" {
		t.Error("node a did not decide")
	}
}

// The paper's point: a positive minimum delay defeats the algorithm. The
// late-conflict adversary triggers an anomaly so close to the deadline
// that the warning cannot arrive in time.
func TestMinimumDelayBreaksFootnoteFour(t *testing.T) {
	g := graph.Triangle()
	inputs := map[string]string{"a": "1", "b": "1", "c": "1"}
	strat := zdPanel()["late-conflict"]

	// Zero delay: agreement survives (the warning arrives at 199/200).
	res, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{"c": strat}, rat(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep := CheckZD(res, inputs, false); rep.Agreement != nil {
		t.Fatalf("zero delay: %v", rep.Agreement)
	}

	// Minimum delay 1/50: the anomaly at 99/100 cannot be relayed before
	// time 1, so the victim defaults alone.
	res, err = ZeroDelayRun(g, inputs, map[string]ZDStrategy{"c": strat}, rat(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if rep := CheckZD(res, inputs, false); rep.Agreement == nil {
		t.Fatalf("minimum delay did not break the algorithm: %v", res.Decisions)
	}
}

func TestZeroDelayValidation(t *testing.T) {
	g := graph.Triangle()
	inputs := map[string]string{"a": "1", "b": "1", "c": "1"}
	if _, err := ZeroDelayRun(g, inputs, nil, rat(-1, 2)); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := ZeroDelayRun(g, map[string]string{"a": "x", "b": "1", "c": "1"}, nil, rat(0, 1)); err == nil {
		t.Error("bad input accepted")
	}
	bad := func(self string, nbs []string) []ZDMessage {
		return []ZDMessage{{To: "nope", Value: "1", Arrive: rat(1, 2)}}
	}
	if _, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{"c": bad}, rat(0, 1)); err == nil {
		t.Error("message to non-neighbor accepted")
	}
	early := func(self string, nbs []string) []ZDMessage {
		return []ZDMessage{{To: nbs[0], Value: "1", Arrive: rat(-1, 4)}}
	}
	if _, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{"c": early}, rat(0, 1)); err == nil {
		t.Error("message arriving before time 0 accepted")
	}
}

// Property: at zero delay, a randomized one-fault adversary never breaks
// agreement on K4.
func TestZeroDelayPropertyRandomAdversary(t *testing.T) {
	g := graph.Complete(4)
	prop := func(seed int64, bits uint8, badIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		strat := func(self string, nbs []string) []ZDMessage {
			var out []ZDMessage
			for _, nb := range nbs {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					m := ZDMessage{To: nb, Arrive: rat(int64(rng.Intn(200)), 100)}
					switch rng.Intn(3) {
					case 0:
						m.Value = "0"
					case 1:
						m.Value = "1"
					default:
						m.Failure = true
					}
					out = append(out, m)
				}
			}
			return out
		}
		inputs := boolInputsZD(g, int(bits)%16)
		bad := g.Names()[int(badIdx)%g.N()]
		res, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{bad: strat}, rat(0, 1))
		if err != nil {
			return false
		}
		return CheckZD(res, inputs, false).Agreement == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZeroDelayDeterminism(t *testing.T) {
	g := graph.Complete(4)
	inputs := boolInputsZD(g, 0x9)
	strat := zdPanel()["equivocate@half"]
	mk := func() string {
		res, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{"p2": strat}, rat(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Decisions)
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("nondeterministic: %s vs %s", a, b)
	}
}
