package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"flm"
	"flm/internal/obs"
	"flm/internal/runcache"
	"flm/internal/sweep"
)

// The bench subcommand is the repository's perf-regression tool: it runs
// the E1-E20 experiment suite (the exact code that regenerates
// EXPERIMENTS.md) plus a handful of micro workloads, and writes a
// machine-readable BENCH_<date>.json so successive PRs leave a perf
// trajectory that can be diffed instead of guessed at.

// BenchEntry is one benchmarked workload.
type BenchEntry struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Runs        int    `json:"runs"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// BenchReport is the whole file: environment header plus entries.
type BenchReport struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"sweep_workers"`
	Entries    []BenchEntry `json:"entries"`
}

// measure times fn once per run and keeps the fastest run's figures.
// Scheduler interference on a shared core only ever adds time, so the
// minimum is a far more stable estimator than the mean — a mean-of-3
// gate at a few percent is unusable when a single preemption can double
// a short entry. Each run starts from a cold run cache behind a GC
// fence, so runs are identical, independent workloads: earlier entries
// (and earlier runs) must not donate cache hits or leave retained runs
// in the live heap inflating GC mark phases, while hits *within* one
// run — chain builders re-splicing the same cover run — are still part
// of the measured workload. Allocation counters are taken from the
// fastest run; they are deterministic per cold run anyway.
func measure(id, name string, runs int, fn func() error) (BenchEntry, error) {
	best := BenchEntry{ID: id, Name: name, Runs: runs}
	for i := 0; i < runs; i++ {
		flm.ResetRunCaches()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return BenchEntry{}, fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if i == 0 || elapsed.Nanoseconds() < best.NsPerOp {
			best.NsPerOp = elapsed.Nanoseconds()
			best.AllocsPerOp = after.Mallocs - before.Mallocs
			best.BytesPerOp = after.TotalAlloc - before.TotalAlloc
		}
	}
	return best, nil
}

func cmdBench(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := fs.String("o", "", "output JSON path (default BENCH_<date>.json)")
	runs := fs.Int("runs", 3, "cold runs per workload; the fastest is reported")
	entries := fs.String("entries", "", "comma-separated entry IDs to run (default all); the report and any -compare gate then cover only these")
	workers := fs.Int("workers", 0, "sweep worker count (0 = FLM_WORKERS env or GOMAXPROCS)")
	compare := fs.String("compare", "auto", "baseline BENCH json to diff the fresh numbers against; \"auto\" picks the newest committed BENCH_*.json, \"off\" disables")
	threshold := fs.Float64("threshold", 0, "regression gate: exit nonzero if any shared entry's allocs/op or B/op worsens by more than this percent; ns/op is flagged but not gated (0 = report-only)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole suite to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (post-suite, after GC) to this file")
	tracePath := fs.String("trace", "", "write a JSONL instrumentation trace (spans+metrics) to this file; FLM_TRACE is the env fallback")
	obsListen := fs.String("obs-listen", "", "serve live /metrics, /healthz, /progress, and /debug/pprof on this address for the duration of the run; FLM_OBS_LISTEN is the env fallback")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 1 {
		fmt.Fprintln(out, "bench: -runs must be >= 1")
		return 2
	}
	prev := sweep.SetWorkers(*workers)
	defer sweep.SetWorkers(prev)

	// Bench numbers are cold-run numbers. main() never installs the disk
	// cache tier for the bench command, and this uninstall makes the
	// invariant local: even if an embedder (or a future refactor) wired a
	// store first, every measured run recomputes instead of deserializing
	// warm blobs. TestBenchBypassesDiskTier pins this.
	defer flm.DisableDiskRunCache()()

	// -entries filter: run only the named workloads (e.g. the CI perf
	// gate benches just the micros it can time deterministically).
	wanted := map[string]bool{}
	if *entries != "" {
		for _, id := range strings.Split(*entries, ",") {
			if id = strings.TrimSpace(id); id != "" {
				wanted[id] = true
			}
		}
	}
	selected := func(id string) bool { return len(wanted) == 0 || wanted[id] }

	stopTrace, err := startTrace(traceTarget(*tracePath), out)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 1
	}
	defer stopTrace()
	sess, err := startObs(obsListenTarget(*obsListen))
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 1
	}
	defer sess.stop()

	date := time.Now().Format("2006-01-02")
	path := *outPath
	if path == "" {
		path = "BENCH_" + date + ".json"
	}

	// Resolve the baseline before running anything: "auto" (the default)
	// diffs against the newest committed BENCH_*.json — excluding the
	// file this run is about to write — so every bench run shows its
	// trajectory without anyone remembering the baseline's name.
	var baseline *BenchReport
	baseName := *compare
	switch strings.ToLower(*compare) {
	case "", "off", "none":
		baseline = nil
	case "auto":
		newest, err := newestBaseline(path)
		if err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		if newest == "" {
			fmt.Fprintln(out, "bench: no committed BENCH_*.json baseline; skipping comparison")
		} else {
			b, err := loadBenchReport(newest)
			if err != nil {
				fmt.Fprintf(out, "bench: %v\n", err)
				return 1
			}
			baseline, baseName = b, newest
		}
	default:
		b, err := loadBenchReport(*compare)
		if err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		baseline = b
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// Open the output before the (minutes-long) suite so a bad path
	// fails now, not after the benchmarks have run.
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 1
	}
	defer f.Close()

	report := BenchReport{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    sweep.Workers(),
	}

	for _, e := range flm.Experiments() {
		exp := e
		if !selected(exp.ID) {
			continue
		}
		entry, err := measure(exp.ID, exp.Name, *runs, labeled(exp.ID, func() error {
			_, err := exp.Run()
			return err
		}))
		if err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "%-28s %12d ns/op %12d allocs/op %14d B/op\n",
			entry.ID, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp)
		report.Entries = append(report.Entries, entry)
	}

	for _, m := range microBenches() {
		if !selected(m.id) {
			continue
		}
		entry, err := measure(m.id, m.name, *runs, labeled(m.id, m.fn))
		if err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "%-28s %12d ns/op %12d allocs/op %14d B/op\n",
			entry.ID, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp)
		report.Entries = append(report.Entries, entry)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if _, err := f.Write(data); err != nil {
		fmt.Fprintf(out, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "wrote %s (%d entries)\n", path, len(report.Entries))

	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
		defer mf.Close()
		runtime.GC() // profile the retained heap, not the final round's garbage
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintf(out, "bench: %v\n", err)
			return 1
		}
	}

	if baseline != nil {
		if regressed := compareReports(out, &report, baseline, baseName, *threshold); regressed {
			return 3
		}
	}
	return 0
}

// newestBaseline picks the newest committed BENCH_*.json in the working
// directory — dated names sort lexicographically — skipping the file the
// current run is writing (comparing a report to itself proves nothing).
func newestBaseline(exclude string) (string, error) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Clean(matches[i]) != filepath.Clean(exclude) {
			return matches[i], nil
		}
	}
	return "", nil
}

// loadBenchReport reads a committed BENCH_<date>.json baseline.
func loadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// pctDelta is the percent change from old to new; a zero baseline with a
// nonzero current reads as +100% so it can still trip the gate.
func pctDelta(cur, old float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return 100 * (cur - old) / old
}

// compareReports prints per-entry ns/op, allocs/op and B/op deltas of cur
// against base, matching entries by ID. Entries present on only one side
// are reported but never gate. With threshold > 0, any shared entry
// whose allocs/op or B/op worsened by more than threshold percent marks
// the comparison regressed (the returned bool). ns/op deltas are
// reported — and flagged when they exceed the threshold — but never
// gate: allocation counts are deterministic per workload, wall-clock on
// a shared machine is not, and a gate that can fail on an idle
// neighbor's load spike trains people to ignore it. Chase a flagged
// ns-only delta with -cpuprofile on a quiet machine.
func compareReports(out io.Writer, cur, base *BenchReport, baseName string, threshold float64) bool {
	baseByID := make(map[string]BenchEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseByID[e.ID] = e
	}
	fmt.Fprintf(out, "\ncomparison vs %s (positive = worse):\n", baseName)
	regressed := false
	seen := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		seen[e.ID] = true
		b, ok := baseByID[e.ID]
		if !ok {
			fmt.Fprintf(out, "%-28s new entry, no baseline\n", e.ID)
			continue
		}
		dns := pctDelta(float64(e.NsPerOp), float64(b.NsPerOp))
		dal := pctDelta(float64(e.AllocsPerOp), float64(b.AllocsPerOp))
		dby := pctDelta(float64(e.BytesPerOp), float64(b.BytesPerOp))
		flag := ""
		if threshold > 0 {
			if dal > threshold || dby > threshold {
				regressed = true
				flag = "  REGRESSION"
			} else if dns > threshold {
				flag = "  ns regression (not gated)"
			}
		}
		fmt.Fprintf(out, "%-28s ns/op %+7.1f%%   allocs/op %+7.1f%%   B/op %+7.1f%%%s\n",
			e.ID, dns, dal, dby, flag)
	}
	removed := make([]string, 0)
	for id := range baseByID {
		if !seen[id] {
			removed = append(removed, id)
		}
	}
	sort.Strings(removed)
	for _, id := range removed {
		fmt.Fprintf(out, "%-28s present in baseline only\n", id)
	}
	if regressed {
		fmt.Fprintf(out, "bench: regression above %.1f%% threshold\n", threshold)
	}
	return regressed
}

// labeled wraps a workload in a pprof label carrying its bench entry ID.
// Sweep worker goroutines spawned inside inherit the label, so a
// -cpuprofile of the suite attributes every sample — including parallel
// sweep work — to the experiment that caused it.
func labeled(id string, fn func() error) func() error {
	return func() error {
		var err error
		pprof.Do(context.Background(), pprof.Labels("flm_experiment", id), func(context.Context) {
			err = fn()
		})
		return err
	}
}

type microBench struct {
	id, name string
	fn       func() error
}

// microBenches are the substrate workloads tracked alongside the
// experiment suite: the raw simulator hot path (full vs fast recording)
// and the sweep engine at 1 worker vs the configured fan-out.
func microBenches() []microBench {
	eigTrial := func(opts flm.ExecuteOpts) func() error {
		return func() error {
			g := flm.Complete(10)
			honest := flm.NewEIG(3, g.Names())
			inputs := map[string]flm.Input{}
			for i, name := range g.Names() {
				inputs[name] = flm.BoolInput(i%2 == 0)
			}
			trial := flm.ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: flm.EIGRounds(3)}
			_, _, rep, err := trial.RunWith(opts)
			if err != nil {
				return err
			}
			if !rep.OK() {
				return fmt.Errorf("eig trial failed: %v", rep.Err())
			}
			return nil
		}
	}
	censusSweep := func(workers int) func() error {
		e17, ok := flm.FindExperiment("E17")
		return func() error {
			if !ok {
				return fmt.Errorf("experiment E17 not registered")
			}
			prev := sweep.SetWorkers(workers)
			defer sweep.SetWorkers(prev)
			_, err := e17.Run()
			return err
		}
	}
	// The obs-disabled entry runs the fast-mode trial with the tracer
	// forcibly uninstalled, so even under `bench -trace` it measures the
	// instrumentation-free engine. Diffing it against micro:eig-n10-f3-fast
	// in a -compare run is the standing zero-overhead check on the obs
	// layer (the in-repo BenchmarkObsDisabled pins the allocs to zero).
	obsOff := eigTrial(flm.ExecuteOpts{})
	// micro:timedsim-tick isolates the timed simulator's tick loop: one
	// Theorem 8 ring of chase devices, dominated by per-tick exact
	// rational scheduling and message delivery (clockfn.Q's int64 fast
	// path). micro:eig-resolve isolates the EIG tree: K9, f=2 honest
	// trials over 16 distinct input patterns, dominated by flat-tree
	// claim absorption and bottom-up resolution.
	timedTick := func() error {
		params := flm.SyncParams{
			P:      flm.RatIdentity(),
			Q:      flm.NewRatClock(3, 2, 0, 1),
			L:      flm.LinearClock{Rate: 1, Off: 0},
			U:      flm.LinearClock{Rate: 1, Off: 4},
			Alpha:  1.5,
			TPrime: flm.NewRat(4, 1),
			Delta:  flm.NewRat(1, 2),
		}
		builders := map[string]flm.SyncBuilder{
			"a": flm.NewChaseClock(params.L),
			"b": flm.NewChaseClock(params.L),
			"c": flm.NewChaseClock(params.L),
		}
		r, err := flm.ProveClockSync(params, builders)
		if err != nil {
			return err
		}
		if !r.Contradicted() {
			return fmt.Errorf("timedsim tick bench: expected a Theorem 8 violation")
		}
		return nil
	}
	// micro:async-sched isolates the asynchronous delivery ring: the FLP
	// Section 4 initdead protocol on K7 t=3 under seeded delay schedules,
	// one dead node per trial, eight distinct (seed, inputs, dead) combos
	// so every execution is a run-cache miss. Dominated by delay-table
	// lookups and ring-slot wiping in the executor's delivery loop.
	asyncSched := func() error {
		g := flm.Complete(7)
		names := g.Names()
		honest := flm.NewInitdead(3)
		const maxDelay = 2
		rounds := flm.InitdeadRounds(maxDelay)
		for v := 0; v < 8; v++ {
			delays := flm.SeededDelays(int64(v+1), names, rounds, maxDelay)
			p := flm.Protocol{Builders: map[string]flm.Builder{}, Inputs: map[string]flm.Input{}}
			var live []string
			for i, name := range names {
				p.Inputs[name] = flm.BoolInput((i+v)%2 == 0)
				if i == v%7 {
					p.Builders[name] = flm.InitiallyDead()
				} else {
					p.Builders[name] = honest
					live = append(live, name)
				}
			}
			sys, err := flm.NewSystem(g, p)
			if err != nil {
				return err
			}
			run, err := flm.ExecuteWith(sys, rounds, flm.ExecuteOpts{Delays: delays})
			if err != nil {
				return err
			}
			if rep := flm.CheckInitdead(run, live); !rep.OK() {
				return fmt.Errorf("async-sched bench: seed %d: %v", v+1, rep.Err())
			}
		}
		return nil
	}
	eigResolve := func() error {
		g := flm.Complete(9)
		honest := flm.NewEIG(2, g.Names())
		for bits := 0; bits < 16; bits++ {
			inputs := map[string]flm.Input{}
			for i, name := range g.Names() {
				inputs[name] = flm.BoolInput(bits&(1<<uint(i%4)) != 0)
			}
			trial := flm.ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: flm.EIGRounds(2)}
			_, _, rep, err := trial.RunWith(flm.ExecuteOpts{})
			if err != nil {
				return err
			}
			if !rep.OK() {
				return fmt.Errorf("eig resolve bench: trial failed: %v", rep.Err())
			}
		}
		return nil
	}
	// micro:cache-evict isolates the run cache's L1 bookkeeping under
	// eviction pressure: a 64KiB cache fed 4096 ~1KiB values (64x the
	// budget) twice over, so nearly every Do is a miss that inserts and,
	// each time the budget fills, drops every finished entry; the second
	// pass adds the evicted-key-recompute path. No sim work — the
	// measured cost is keys (sha256 hashing), the map lock, and budget
	// accounting, the cache machinery on the ExecuteCtx hot path.
	cacheEvict := func() error {
		c := runcache.New(runcache.WithBudget(64<<10), runcache.WithCost(func(v any) int64 {
			return int64(len(v.(string))) + 16
		}))
		val := strings.Repeat("x", 1024)
		keys := make([]string, 4096)
		for i := range keys {
			h := runcache.NewHasher("bench.cache-evict/v1")
			h.Int(i)
			keys[i] = h.Sum()
		}
		computes := 0
		for pass := 0; pass < 2; pass++ {
			for _, k := range keys {
				if _, _, err := c.Do(k, func() (any, error) {
					computes++
					return val, nil
				}); err != nil {
					return err
				}
			}
		}
		st := c.Stats()
		if st.Evictions == 0 {
			return fmt.Errorf("cache-evict bench: no evictions (budget not enforced?)")
		}
		if st.BytesRetained > 64<<10 {
			return fmt.Errorf("cache-evict bench: retained %d bytes over the 64KiB budget", st.BytesRetained)
		}
		if computes < 4096 {
			return fmt.Errorf("cache-evict bench: only %d computes for 4096 distinct keys", computes)
		}
		return nil
	}
	return []microBench{
		{"micro:eig-n10-f3-full", "EIG trial, full recording", eigTrial(flm.FullRecording)},
		{"micro:eig-n10-f3-fast", "EIG trial, decision-only fast mode", eigTrial(flm.ExecuteOpts{})},
		{"micro:e17-census-seq", "E17 frontier census, 1 sweep worker", censusSweep(1)},
		{"micro:e17-census-par", "E17 frontier census, default sweep workers", censusSweep(0)},
		{"micro:obs-disabled", "EIG trial, fast mode, tracing forcibly disabled", func() error {
			restore := obs.SetTracer(nil)
			defer restore()
			return obsOff()
		}},
		{"micro:timedsim-tick", "Theorem 8 ring of chase devices (timed tick loop)", timedTick},
		{"micro:eig-resolve", "EIG K9 f=2, 16 input patterns (flat-tree resolve)", eigResolve},
		{"micro:async-sched", "initdead K7 t=3 under seeded delay schedules (delivery ring)", asyncSched},
		{"micro:cache-evict", "runcache L1 under 64x eviction pressure (drop-all on overflow)", cacheEvict},
	}
}
