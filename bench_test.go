package flm

// One benchmark per experiment (E1-E20) plus micro-benchmarks and
// ablation benchmarks for the substrates they run on. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark{E1..E17} entries execute the exact code that regenerates
// the corresponding EXPERIMENTS.md tables and figures.

import (
	"fmt"
	"testing"

	"flm/internal/sweep"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := FindExperiment(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1ByzantineNodes(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2ByzantineConnectivity(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3WeakAgreement(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4FiringSquad(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5SimpleApprox(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6EpsilonDeltaGamma(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7ClockSync(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8Corollaries(b *testing.B)           { benchExperiment(b, "E8") }
func BenchmarkE9EIGPhaseKing(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10Dolev(b *testing.B)                { benchExperiment(b, "E10") }
func BenchmarkE11ApproxConvergence(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12FSWeakPossible(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Collapse(b *testing.B)             { benchExperiment(b, "E13") }
func BenchmarkE14Nondeterminism(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15Signatures(b *testing.B)           { benchExperiment(b, "E15") }
func BenchmarkE16DelayAblations(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17Frontier(b *testing.B)             { benchExperiment(b, "E17") }

// --- substrate micro-benchmarks ---

// EIG message complexity grows as O(n^(f+1)); this bench family exposes
// the wall-clock shape.
func BenchmarkEIG(b *testing.B) {
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		b.Run(fmt.Sprintf("n=%d,f=%d", c.n, c.f), func(b *testing.B) {
			g := Complete(c.n)
			honest := NewEIG(c.f, g.Names())
			inputs := map[string]Input{}
			for i, name := range g.Names() {
				inputs[name] = BoolInput(i%2 == 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trial := ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: EIGRounds(c.f)}
				if _, _, rep, err := trial.Run(); err != nil || !rep.OK() {
					b.Fatalf("rep=%v err=%v", rep, err)
				}
			}
		})
	}
}

// Phase king is polynomial: compare its growth against EIG's.
func BenchmarkPhaseKing(b *testing.B) {
	for _, c := range []struct{ n, f int }{{5, 1}, {9, 2}, {13, 3}} {
		b.Run(fmt.Sprintf("n=%d,f=%d", c.n, c.f), func(b *testing.B) {
			g := Complete(c.n)
			honest := NewPhaseKing(c.f, g.Names())
			inputs := map[string]Input{}
			for i, name := range g.Names() {
				inputs[name] = BoolInput(i%3 == 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trial := ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: PhaseKingRounds(c.f)}
				if _, _, rep, err := trial.Run(); err != nil || !rep.OK() {
					b.Fatalf("rep=%v err=%v", rep, err)
				}
			}
		})
	}
}

func BenchmarkVertexConnectivity(b *testing.B) {
	graphs := map[string]*Graph{
		"K10":              Complete(10),
		"wheel20":          Wheel(20),
		"circulant20(1-3)": Circulant(20, 1, 2, 3),
		"hypercube5":       Hypercube(5),
	}
	for name, g := range graphs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.VertexConnectivity()
			}
		})
	}
}

func BenchmarkDolevRouterSetup(b *testing.B) {
	g := Circulant(12, 1, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRouter(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHexagonChain(b *testing.B) {
	tri := Triangle()
	builders := map[string]Builder{}
	for _, name := range tri.Names() {
		builders[name] = NewMajority(2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cr, err := ProveByzantineTriangle(builders, "majority", 8)
		if err != nil || !cr.Contradicted() {
			b.Fatal(err)
		}
	}
}

func BenchmarkClockRing(b *testing.B) {
	params := SyncParams{
		P:      RatIdentity(),
		Q:      NewRatClock(3, 2, 0, 1),
		L:      LinearClock{Rate: 1},
		U:      LinearClock{Rate: 1, Off: 4},
		Alpha:  1.5,
		TPrime: NewRat(4, 1),
		Delta:  NewRat(1, 2),
	}
	builders := map[string]SyncBuilder{
		"a": NewChaseClock(params.L), "b": NewChaseClock(params.L), "c": NewChaseClock(params.L),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ProveClockSync(params, builders); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// Covering size: chain cost grows linearly with the ring size (the
// splice count dominates).
func BenchmarkRingCoverScaling(b *testing.B) {
	tri := Triangle()
	for _, m := range []int{6, 12, 24, 48} {
		b.Run(fmt.Sprintf("ring=%d", m), func(b *testing.B) {
			cover := RingCoverTriangle(m)
			builders := map[string]Builder{}
			for _, name := range tri.Names() {
				builders[name] = NewMajority(2)
			}
			inputs := map[string]Input{}
			for i := 0; i < m; i++ {
				inputs[cover.S.Name(i)] = BoolInput(i >= m/2)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := InstallCover(cover, builders, inputs)
				if err != nil {
					b.Fatal(err)
				}
				runS, err := inst.Execute(6)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < m; j++ {
					if _, err := SpliceScenario(inst, runS, []int{j, (j + 1) % m}, builders); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// Signed agreement: the Fault-axiom ablation's cost (registry lookups
// per chain signature).
func BenchmarkSignedDolevStrong(b *testing.B) {
	for _, c := range []struct{ n, f int }{{3, 1}, {5, 2}, {7, 3}} {
		b.Run(fmt.Sprintf("n=%d,f=%d", c.n, c.f), func(b *testing.B) {
			g := Complete(c.n)
			inputs := map[string]Input{}
			for i, name := range g.Names() {
				inputs[name] = BoolInput(i%2 == 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reg := NewSigRegistry()
				trial := ByzantineTrial{
					G: g, Inputs: inputs,
					Honest: NewDolevStrong(c.f, g.Names(), reg),
					Rounds: DolevStrongRounds(c.f),
				}
				if _, _, rep, err := trial.Run(); err != nil || !rep.OK() {
					b.Fatalf("rep=%v err=%v", rep, err)
				}
			}
		})
	}
}

// Turpin-Coan: the multivalued reduction adds two rounds over binary EIG.
func BenchmarkTurpinCoan(b *testing.B) {
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		b.Run(fmt.Sprintf("n=%d,f=%d", c.n, c.f), func(b *testing.B) {
			g := Complete(c.n)
			honest := NewTurpinCoan(c.f, g.Names())
			inputs := map[string]Input{}
			vals := []string{"red", "green", "blue"}
			for i, name := range g.Names() {
				inputs[name] = Input(vals[i%3])
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trial := ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: TurpinCoanRounds(c.f)}
				if _, _, rep, err := trial.Run(); err != nil || !rep.OK() {
					b.Fatalf("rep=%v err=%v", rep, err)
				}
			}
		})
	}
}

// Zero-delay weak consensus (footnote 4): event-queue cost per run.
func BenchmarkZeroDelayWeakConsensus(b *testing.B) {
	g := Complete(6)
	inputs := map[string]string{}
	for i, name := range g.Names() {
		inputs[name] = fmt.Sprint(i % 2)
	}
	strat := func(self string, nbs []string) []ZDMessage {
		var out []ZDMessage
		for i, nb := range nbs {
			out = append(out, ZDMessage{To: nb, Value: fmt.Sprint(i % 2), Arrive: NewRat(1, 2)})
		}
		return out
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ZeroDelayRun(g, inputs, map[string]ZDStrategy{"p5": strat}, NewRat(0, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// The general Theorem 8 cases: exact-rational timed simulation over
// block rings and copy rings.
func BenchmarkClockRingGeneral(b *testing.B) {
	params := SyncParams{
		P:      RatIdentity(),
		Q:      NewRatClock(3, 2, 0, 1),
		L:      LinearClock{Rate: 1},
		U:      LinearClock{Rate: 1, Off: 4},
		Alpha:  1.5,
		TPrime: NewRat(4, 1),
		Delta:  NewRat(1, 2),
	}
	b.Run("nodes-K6", func(b *testing.B) {
		g := Complete(6)
		builders := map[string]SyncBuilder{}
		for _, name := range g.Names() {
			builders[name] = NewChaseClock(params.L)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ProveClockSyncNodes(params, g, []int{0, 1}, []int{2, 3}, []int{4, 5}, 2, builders); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("connectivity-diamond", func(b *testing.B) {
		g := Diamond()
		builders := map[string]SyncBuilder{}
		for _, name := range g.Names() {
			builders[name] = NewChaseClock(params.L)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ProveClockSyncConnectivity(params, g, []int{1}, []int{3}, 0, 2, 1, builders); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- sweep engine: sequential vs parallel fan-out ---

// The E17 frontier census is the hottest sweep in the suite (every zoo
// graph x bit patterns x faulty candidates x attack panel). workers=1
// pins the sequential baseline; workers=0 resolves to FLM_WORKERS or
// GOMAXPROCS, so on a multi-core runner the second sub-benchmark shows
// the parallel speedup directly.
func BenchmarkSweepE17Census(b *testing.B) {
	e, ok := FindExperiment("E17")
	if !ok {
		b.Fatal("no experiment E17")
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(c.name, func(b *testing.B) {
			defer sweep.SetWorkers(sweep.SetWorkers(c.workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Execute recording modes on one EIG trial: fast mode skips snapshot and
// edge recording, the allocation delta is the cost of full recording.
func BenchmarkExecuteRecordingModes(b *testing.B) {
	g := Complete(10)
	honest := NewEIG(3, g.Names())
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = BoolInput(i%2 == 0)
	}
	for _, c := range []struct {
		name string
		opts ExecuteOpts
	}{{"full", FullRecording}, {"fast", ExecuteOpts{}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trial := ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: EIGRounds(3)}
				if _, _, rep, err := trial.RunWith(c.opts); err != nil || !rep.OK() {
					b.Fatalf("rep=%v err=%v", rep, err)
				}
			}
		})
	}
}

func BenchmarkDLPSWRound(b *testing.B) {
	for _, n := range []int{4, 7, 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := Complete(n)
			f := (n - 1) / 3
			inputs := map[string]Input{}
			for i, name := range g.Names() {
				inputs[name] = RealInput(float64(i) / float64(n))
			}
			honest := NewDLPSW(f, g.Names(), 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trial := ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: 10}
				if _, _, _, err := trial.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
