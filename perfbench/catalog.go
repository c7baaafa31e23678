package main

// The catalog below is the benchmark's contract with later changes:
// the workload names, why each exists, every metric with its unit, and
// for each per-layer metric which end-to-end metric it should move, on
// which workload, and where it should not. BENCHMARK.json at the
// repository root carries the same names and units (catalog_test.go
// keeps the two in step); `--list` prints this table.

// Pinned chaos master seeds: they equal E18/E20 and the CI chaos
// smokes (chaos.SmokeSeed, chaos.AsyncSmokeSeed).
const (
	defaultSyncSeed  = 1
	defaultAsyncSeed = 7
	syncChaosTrials  = 64
	asyncChaosTrials = 48
	setupRepeats     = 3
)

type workloadInfo struct {
	name string
	why  string
}

var workloadCatalog = []workloadInfo{
	{"prove", "E1-E8 and E13-E16: the impossibility chains, Theorem 8 and the ablations; exercises full-recording execution, core splicing, timedsim and math/big"},
	{"tightness", "E9-E12, E17, E19: fast-mode possibility sweeps on adequate graphs; Dolev routing and EIG dominate, sweeps run in parallel, no core or timedsim"},
	{"chaos", "chaos.Run sync (seed 1, 64 trials) then Async+Dead (seed 7, 48 trials), seeds = E18/E20; the serial shrinker and clock-liar math/big dominate"},
	{"suite-disk", "E1-E20 with an empty L1 each pass, served from a disk tier filled in set-up; exercises the disk read path and RunCodec.Decode"},
}

type metricInfo struct {
	name, unit string
	better     string  // "lower" when empty
	bound      float64 // end-to-end only
	// Per-layer prediction: the end-to-end metric the layer should move,
	// the workloads where it should, and where it should not.
	moves, on, notOn string
}

var endToEnd = []metricInfo{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_peak_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "allocs", unit: "count", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	allWorkloads = "all"
	notDisk      = "prove, tightness, chaos (no disk tier)"
)

var perLayer = []metricInfo{
	{name: "sim.execs", unit: "count", moves: "wall_s, cpu_s", on: allWorkloads + ", most on tightness"},
	{name: "sim.self_s", unit: "s", moves: "wall_s, cpu_s", on: allWorkloads + ", most on tightness"},
	{name: "sim.msgs", unit: "count", moves: "wall_s, cpu_s", on: "prove, tightness, suite-disk (full-recording runs only)", notOn: "chaos (fast mode records no edges)"},
	{name: "sim.uncacheable", unit: "count", moves: "wall_s, cpu_s", on: allWorkloads},
	{name: "dolev.self_s", unit: "s", moves: "wall_s, cpu_s", on: "tightness, suite-disk", notOn: "prove, chaos"},
	{name: "byzantine.self_s", unit: "s", moves: "wall_s, cpu_s", on: "tightness, prove, suite-disk"},
	{name: "initdead.self_s", unit: "s", moves: "wall_s, cpu_s", on: "tightness, chaos, suite-disk", notOn: "prove"},
	{name: "clocksync.self_s", unit: "s", moves: "wall_s, cpu_s", on: "prove, chaos, suite-disk", notOn: "tightness"},
	{name: "weak.self_s", unit: "s", moves: "wall_s, cpu_s", on: "prove, suite-disk", notOn: "chaos"},
	{name: "firingsquad.self_s", unit: "s", moves: "wall_s, cpu_s", on: "prove, suite-disk", notOn: "chaos"},
	{name: "approx.self_s", unit: "s", moves: "wall_s, cpu_s", on: "prove, tightness, chaos, suite-disk"},
	{name: "signed.self_s", unit: "s", moves: "wall_s, cpu_s", on: "prove, suite-disk", notOn: "tightness, chaos"},
	{name: "adversary.self_s", unit: "s", moves: "wall_s, cpu_s", on: "tightness, suite-disk"},
	{name: "timedsim.self_s", unit: "s", moves: "wall_s", on: "prove, chaos, suite-disk", notOn: "tightness"},
	{name: "clockfn.self_s", unit: "s", moves: "wall_s", on: "prove, chaos, suite-disk", notOn: "tightness"},
	{name: "big.self_s", unit: "s", moves: "wall_s", on: "prove, chaos, suite-disk", notOn: "tightness"},
	{name: "core.self_s", unit: "s", moves: "heap_peak_mb, wall_s", on: "prove", notOn: "tightness, chaos"},
	{name: "core.splice.hit_ratio", unit: "ratio", better: "higher", moves: "heap_peak_mb, wall_s", on: "prove", notOn: "tightness, chaos"},
	{name: "core.splice.retained_mb", unit: "MB", moves: "heap_peak_mb", on: "prove", notOn: "tightness, chaos"},
	{name: "runcache.hit_ratio", unit: "ratio", better: "higher", moves: "wall_s, setup_s", on: allWorkloads},
	{name: "runcache.disk.hit_ratio", unit: "ratio", better: "higher", moves: "wall_s", on: "suite-disk", notOn: notDisk},
	{name: "runcache.disk.read_mb", unit: "MB", moves: "wall_s", on: "suite-disk", notOn: notDisk},
	{name: "runcache.disk.write_mb", unit: "MB", moves: "setup_s", on: "suite-disk (one set-up fill)", notOn: notDisk},
	{name: "runcache.self_s", unit: "s", moves: "wall_s, setup_s", on: "suite-disk", notOn: "prove, tightness, chaos"},
	{name: "sim.codec.self_s", unit: "s", moves: "wall_s, setup_s", on: "suite-disk", notOn: notDisk},
	{name: "runcache.retained_mb", unit: "MB", moves: "heap_peak_mb", on: allWorkloads},
	{name: "runcache.evictions", unit: "count", moves: "wall_s", on: allWorkloads},
	{name: "chaos.exec_s", unit: "s", moves: "wall_s", on: "chaos", notOn: "prove, tightness, suite-disk"},
	{name: "chaos.shrink_s", unit: "s", moves: "wall_s", on: "chaos", notOn: "prove, tightness, suite-disk"},
	{name: "chaos.shrink.evals", unit: "count", moves: "wall_s", on: "chaos, suite-disk (E18/E20 shrink)", notOn: "prove, tightness"},
	{name: "chaos.findings", unit: "count", better: "higher", moves: "wall_s", on: "chaos", notOn: "prove, tightness, suite-disk"},
	{name: "chaos.self_s", unit: "s", moves: "wall_s", on: "chaos, suite-disk", notOn: "prove, tightness"},
	{name: "sweep.parallel_eff", unit: "ratio", better: "higher", moves: "wall_s, not cpu_s", on: "tightness, chaos"},
	{name: "sweep.trials", unit: "count", moves: "wall_s, not cpu_s", on: "tightness, chaos"},
	{name: "sweep.self_s", unit: "s", moves: "wall_s", on: "tightness, chaos"},
	{name: "graph.self_s", unit: "s", moves: "wall_s", on: "tightness, suite-disk"},
	{name: "eval.self_s", unit: "s", moves: "wall_s", on: "prove, tightness, suite-disk"},
	{name: "gc.cpu_s", unit: "s", moves: "cpu_s", on: allWorkloads},
	{name: "gc.cycles", unit: "count", moves: "cpu_s", on: allWorkloads},
	{name: "obs.self_s", unit: "s", moves: "none", on: allWorkloads},
	{name: "unattributed.self_s", unit: "s", moves: "none", on: allWorkloads},
	{name: "obs.overhead_ratio", unit: "ratio", moves: "none", on: allWorkloads},
	{name: "profile.cpu_s", unit: "s", moves: "none", on: allWorkloads},
	{name: "traced.wall_s", unit: "s", moves: "none", on: allWorkloads},
}

// selfLayers are the profile-fold layers reported as <layer>.self_s.
// Together with gc.cpu_s and unattributed.self_s they sum to
// profile.cpu_s, so no layer of the traced pass stays dark.
// unattributed.self_s is the residual, and can dip slightly below zero:
// runtime/metrics' GC figure is an estimate that runs above the GC
// samples a 100 Hz profile catches.
var selfLayers = []string{
	"sim", "dolev", "byzantine", "initdead", "clocksync", "weak", "firingsquad",
	"approx", "signed", "adversary", "timedsim", "clockfn", layerBig, "core",
	"runcache", layerCodec, "chaos", "sweep", "graph", "eval", "obs",
}

func (m metricInfo) betterDir() string {
	if m.better == "" {
		return "lower"
	}
	return m.better
}
