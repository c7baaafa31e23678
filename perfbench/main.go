// Command perfbench is the repository benchmark. It drives the flm
// library in one process through its public functions, one named
// workload at a time, closed-loop: a single caller starts each pass
// only after the previous one finished. It measures end-to-end metrics
// over untraced passes, checks every pass's output, and with --trace 1
// adds one traced pass whose CPU profile, library counters and the
// benchmark's own spans split the time across the repository's
// modules.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it and clears the FLM_* environment:
//
//	bash perfbench/run.sh --workload prove --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10   # every workload, every metric
//	bash perfbench/run.sh --list                        # workloads, metrics, predictions
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"flm"
	"flm/internal/obs"
	"flm/internal/sweep"
)

// processStart approximates process start: package variables of main
// initialize after every imported package, so library init is not
// counted; it is small next to a set-up pass.
var processStart = time.Now()

// Experiment sets of the experiment workloads; see workloadCatalog.
var workloadExperiments = map[string][]string{
	"prove":      {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E13", "E14", "E15", "E16"},
	"tightness":  {"E9", "E10", "E11", "E12", "E17", "E19"},
	"suite-disk": {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"},
}

// The FLM_* variables the library or the CLI read. run.sh clears them;
// the benchmark then pins each setting explicitly.
var flmEnv = []string{"FLM_RUNCACHE", "FLM_CACHE_BUDGET", "FLM_CACHE_DIR", "FLM_WORKERS", "FLM_TRACE", "FLM_OBS_LISTEN"}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	syncSeed  int64
	asyncSeed int64
	nproc     int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var chaosSeeds string
	list := fs.Bool("list", false, "list workloads, metrics and per-layer predictions, then exit")
	fs.StringVar(&o.workload, "workload", "", "workload name, or \"all\" for every workload with every metric")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: orders the operations of every pass")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to measure timed passes")
	fs.IntVar(&trace, "trace", 0, "1 = add a traced pass and report per-layer metrics")
	fs.StringVar(&chaosSeeds, "chaos-seeds", fmt.Sprintf("%d,%d", defaultSyncSeed, defaultAsyncSeed), "chaos master seeds: sync,async")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printCatalog(stdout)
		return 0
	}
	if fs.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name|all> --seed <n> --seconds <n> --trace <0|1> [--chaos-seeds a,b]")
		return 2
	}
	o.trace = trace == 1
	var err error
	if o.syncSeed, o.asyncSeed, err = parseSeedPair(chaosSeeds); err != nil {
		fmt.Fprintf(stderr, "perfbench: --chaos-seeds: %v\n", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
		o.trace = true
	} else if !slices.Contains(workloadNames(), o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	settings, err := pin(&o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	golden, err := loadGolden("report.txt")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# workloads: %s\n", strings.Join(workloadNames(), ", "))
	fmt.Fprintf(stdout, "# settings: %s\n", settings)

	// One workload reports its end-to-end or per-layer catalog; "all"
	// reports everything, each name prefixed with its workload.
	var total tally
	out := map[string]result{}
	for _, name := range names {
		res, err := runWorkload(name, o, golden, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		total.add(res.tally)
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		if !o.trace || len(names) > 1 {
			addMetrics(out, prefix, endToEnd, res.endToEnd)
		}
		if o.trace {
			addMetrics(out, prefix, perLayer, res.perLayer)
		}
	}
	for _, p := range total.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	verdict := "PASS"
	if total.failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(stdout, "# check: %s attempted=%d failed=%d fail_ratio=%g\n",
		verdict, total.attempted, total.failed, float64(total.failed)/float64(total.attempted))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]result `json:"metrics"`
	}{total.failed == 0, total.attempted, total.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type result struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func addMetrics(out map[string]result, prefix string, catalog []metricInfo, values map[string]float64) {
	for _, m := range catalog {
		out[prefix+m.name] = result{Value: values[m.name], Unit: m.unit}
	}
}

func parseSeedPair(s string) (int64, int64, error) {
	a, b, ok := strings.Cut(s, ",")
	if !ok {
		return 0, 0, errors.New("want two seeds, sync,async")
	}
	x, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.ParseInt(strings.TrimSpace(b), 10, 64)
	return x, y, err
}

func workloadNames() []string {
	var n []string
	for _, w := range workloadCatalog {
		n = append(n, w.name)
	}
	return n
}

// pin sets every knob the FLM_* environment would otherwise decide and
// describes the effective settings.
func pin(o *options) (string, error) {
	// The splice cache reads its budget at package init, before main:
	// with FLM_CACHE_BUDGET set nothing here could pin it.
	if v, ok := os.LookupEnv("FLM_CACHE_BUDGET"); ok {
		return "", fmt.Errorf("FLM_CACHE_BUDGET=%q is set; run through perfbench/run.sh, which clears it", v)
	}
	for _, k := range flmEnv {
		os.Unsetenv(k)
	}
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)
	sweep.SetWorkers(o.nproc)
	flm.SetRunCacheEnabled(true)
	budget, _ := flm.ParseCacheBudget("")
	flm.SetRunCacheBudget(budget)
	flm.DisableDiskRunCache()
	obs.SetTracer(nil)
	return fmt.Sprintf("go=%s nproc=%d GOMAXPROCS=%d workers=%d runcache=on budget=%dB disk=off (suite-disk: private temp tier) tracing=off-in-timed-passes chaos-seeds=%d,%d seed=%d seconds=%d closed-loop=1-caller",
		runtime.Version(), o.nproc, runtime.GOMAXPROCS(0), sweep.Workers(), budget,
		o.syncSeed, o.asyncSeed, o.seed, o.seconds), nil
}

// loadGolden splits report.txt (the committed output of `flm all`:
// every experiment's Render() followed by a newline, in registry
// order) into one expected rendering per experiment ID.
func loadGolden(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden report: %w", err)
	}
	text := string(raw)
	exps := flm.Experiments()
	starts := make([]int, len(exps))
	for i, e := range exps {
		header := "== " + e.ID + ": "
		at := -1
		if strings.HasPrefix(text, header) {
			at = 0
		} else if j := strings.Index(text, "\n"+header); j >= 0 {
			at = j + 1
		}
		if at < 0 || (i > 0 && at <= starts[i-1]) {
			return nil, fmt.Errorf("golden report: no section for %s in registry order", e.ID)
		}
		starts[i] = at
	}
	golden := make(map[string]string, len(exps))
	for i, e := range exps {
		end := len(text)
		if i+1 < len(exps) {
			end = starts[i+1]
		}
		sec, ok := strings.CutSuffix(text[starts[i]:end], "\n")
		if !ok {
			return nil, fmt.Errorf("golden report: section %s does not end in a newline", e.ID)
		}
		golden[e.ID] = sec
	}
	return golden, nil
}

type workloadResult struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	tally    tally
}

func newWorkload(name string, o options, golden map[string]string) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	if name == "chaos" {
		return newChaosWorkload(o.syncSeed, o.asyncSeed, o.nproc, rng), nil
	}
	w, err := newExperimentWorkload(workloadExperiments[name], golden, rng)
	if err != nil {
		return nil, err
	}
	w.disk = name == "suite-disk"
	return w, nil
}

func runWorkload(name string, o options, golden map[string]string, stdout io.Writer) (workloadResult, error) {
	start := time.Now()
	if name == o.workload {
		start = processStart
	}
	var res workloadResult
	w, err := newWorkload(name, o, golden)
	if err != nil {
		return res, err
	}
	defer w.close()

	// Set-up, repeated from a fresh state; the first repetition counts
	// from process start.
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = start
		}
		flm.ResetRunCaches()
		if err := w.fresh(); err != nil {
			return res, err
		}
		check := w.setupPass(nil)
		setups = append(setups, time.Since(t0).Seconds())
		res.tally.add(check())
	}

	// Timed passes, closed-loop, each from an empty L1 after a GC fence.
	series := map[string][]float64{"setup_s": setups}
	budget := time.Duration(o.seconds) * time.Second
	for begin := time.Now(); len(series["wall_s"]) == 0 || time.Since(begin) < budget; {
		flm.ResetRunCaches()
		runtime.GC()
		a0 := readMetrics(mAllocBytes, mAllocObjs)
		c0 := cpuSeconds()
		t0 := time.Now()
		check := w.pass(nil)
		wall := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		a1 := readMetrics(mAllocBytes, mAllocObjs)
		series["wall_s"] = append(series["wall_s"], wall)
		series["cpu_s"] = append(series["cpu_s"], c1-c0)
		series["alloc_mb"] = append(series["alloc_mb"], (a1[0]-a0[0])/1e6)
		series["allocs"] = append(series["allocs"], a1[1]-a0[1])
		res.tally.add(check())
	}

	// Heap pass: untimed, a forced GC after every operation; the peak
	// live heap at those boundaries is what the pass retains (caches,
	// results), free of the GC-timing noise a sampled peak carries.
	flm.ResetRunCaches()
	runtime.GC()
	heap := &spanTracer{t0: time.Now(), gcAfterOps: true}
	res.tally.add(w.pass(heap)())
	series["heap_peak_mb"] = []float64{heap.peakLive / 1e6}

	res.endToEnd = map[string]float64{}
	for _, m := range endToEnd {
		v := series[m.name]
		q1, med, q3 := quartiles(v)
		res.endToEnd[m.name] = med
		fmt.Fprintf(stdout, "%-10s %-24s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", name, m.name, med, m.unit, q1, q3, len(v))
	}
	fmt.Fprintf(stdout, "%-10s %-24s %14.6g %-6s\n", name, "fail_ratio", float64(res.tally.failed)/float64(res.tally.attempted), "ratio")

	if o.trace {
		layers, tr, t, err := tracedPass(w, res.endToEnd["wall_s"], res.endToEnd["cpu_s"], o.nproc)
		if err != nil {
			return res, err
		}
		res.tally.add(t)
		res.perLayer = layers
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "%-10s %-24s %14.6g %-6s\n", name, m.name, layers[m.name], m.unit)
		}
		for _, l := range tr.summary() {
			fmt.Fprintf(stdout, "%-10s %s\n", name, l)
		}
	}
	return res, nil
}

// printCatalog lists the workloads, then every metric with its unit and,
// for per-layer metrics, the prediction of what it should move where.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadCatalog {
		fmt.Fprintf(w, "  %-10s %s\n", wl.name, wl.why)
	}
	fmt.Fprintf(w, "  chaos seeds default to %d (sync) and %d (async+dead); override with --chaos-seeds\n", defaultSyncSeed, defaultAsyncSeed)
	fmt.Fprintln(w, "end-to-end metrics (--trace 0), per workload:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-24s %-6s %s is better, bound %.2f\n", m.name, m.unit, m.better, m.bound)
	}
	fmt.Fprintf(w, "  %-24s %-6s failed/attempted on the result line; must be 0\n", "fail_ratio", "ratio")
	fmt.Fprintln(w, "per-layer metrics (--trace 1), from one extra traced pass:")
	for _, m := range perLayer {
		not := ""
		if m.notOn != "" {
			not = "; not on " + m.notOn
		}
		fmt.Fprintf(w, "  %-24s %-6s moves %s on %s%s\n", m.name, m.unit, m.moves, m.on, not)
	}
}
