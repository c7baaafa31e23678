package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"flm"
	"flm/internal/obs"
)

// spanTracer records the benchmark's own spans around its calls into
// the library, in memory, for the traced and heap passes only. A nil
// tracer is inert, so timed passes pay one nil check per call.
type spanTracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes of spans not yet ended, innermost last

	// In the heap pass every operation span ends with a forced GC and a
	// reading of the live heap; peakLive keeps the highest.
	gcAfterOps bool
	peakLive   float64
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, dur time.Duration
}

func noop() {}

// begin opens a span and returns the function that ends it.
func (t *spanTracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].dur = time.Since(t.t0) - t.spans[i].start
		t.open = t.open[:len(t.open)-1]
		if t.gcAfterOps && parent >= 0 {
			runtime.GC()
			t.peakLive = max(t.peakLive, readMetrics(mLiveHeap)[0])
		}
	}
}

// total sums the durations of spans whose name starts with prefix.
func (t *spanTracer) total(prefix string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) {
			d += s.dur
		}
	}
	return d
}

// summary folds the spans by name: count, total and self time (total
// minus the time covered by child spans), slowest first.
func (t *spanTracer) summary() []string {
	type agg struct {
		n         int
		tot, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.tot += s.dur
		a.self += s.dur
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			by[t.spans[s.parent].name].self -= s.dur
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if by[names[i]].tot != by[names[j]].tot {
			return by[names[i]].tot > by[names[j]].tot
		}
		return names[i] < names[j]
	})
	lines := make([]string, len(names))
	for i, n := range names {
		a := by[n]
		lines[i] = fmt.Sprintf("span %-24s n=%-4d total=%.4fs self=%.4fs", n, a.n, a.tot.Seconds(), a.self.Seconds())
	}
	return lines
}

// execAgg reads the library's JSONL trace as it is written and keeps
// what the per-layer metrics need from "sim.execute" spans: message
// totals (full-recording runs carry them) and uncacheable executions.
type execAgg struct {
	pending           []byte
	msgs, uncacheable float64
	bad               int // lines that failed to decode
}

func (a *execAgg) Write(p []byte) (int, error) {
	a.pending = append(a.pending, p...)
	rest := a.pending
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		a.line(rest[:i])
		rest = rest[i+1:]
	}
	a.pending = append(a.pending[:0], rest...)
	return len(p), nil
}

var simExecute = []byte(`"name":"sim.execute"`)

func (a *execAgg) line(l []byte) {
	if !bytes.Contains(l, simExecute) {
		return
	}
	var rec struct {
		Attrs struct {
			Cache    string  `json:"cache"`
			Messages float64 `json:"messages"`
		} `json:"attrs"`
	}
	if err := json.Unmarshal(l, &rec); err != nil {
		a.bad++
		return
	}
	a.msgs += rec.Attrs.Messages
	if rec.Attrs.Cache == "uncacheable" {
		a.uncacheable++
	}
}

// tracedPass runs one extra pass with the library's tracer on, a CPU
// profile, and the benchmark's spans, and derives the per-layer
// metrics. wallMed and cpuMed are the timed passes' medians.
func tracedPass(w workload, wallMed, cpuMed float64, workers int) (map[string]float64, *spanTracer, tally, error) {
	flm.ResetRunCaches()
	runtime.GC()

	agg := &execAgg{}
	tracer := obs.NewTracer(agg)
	restore := obs.SetTracer(tracer)
	c0 := obs.Metrics.Snapshot()
	rc0 := flm.RunCacheStats()
	gc0 := readMetrics(mGCCPU, mGCCycles)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		restore()
		return nil, nil, tally{}, fmt.Errorf("cpu profile: %w", err)
	}
	tr := &spanTracer{t0: time.Now()}
	check := w.pass(tr)
	wall := time.Since(tr.t0).Seconds()
	pprof.StopCPUProfile()
	gc1 := readMetrics(mGCCPU, mGCCycles)
	rc1 := flm.RunCacheStats()
	c1 := obs.Metrics.Snapshot()
	restore()
	if err := tracer.Close(); err != nil {
		return nil, nil, tally{}, fmt.Errorf("trace: %w", err)
	}
	if agg.bad > 0 {
		return nil, nil, tally{}, fmt.Errorf("trace: %d undecodable sim.execute records", agg.bad)
	}
	t := check()

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, tally{}, err
	}
	layers, total, err := p.fold("cpu")
	if err != nil {
		return nil, nil, tally{}, err
	}

	m := map[string]float64{}
	delta := func(name string) float64 { return float64(c1.Counters[name] - c0.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	const mb = 1e6

	m["sim.execs"] = delta("sim.exec.runs")
	m["sim.msgs"] = agg.msgs
	m["sim.uncacheable"] = agg.uncacheable

	profiled := float64(total) / 1e9
	named := 0.0
	for _, l := range selfLayers {
		v := float64(layers[l]) / 1e9
		m[l+".self_s"] = v
		named += v
	}
	m["gc.cpu_s"] = gc1[0] - gc0[0]
	m["gc.cycles"] = gc1[1] - gc0[1]
	m["profile.cpu_s"] = profiled
	m["unattributed.self_s"] = profiled - named - m["gc.cpu_s"]

	spliceHit := delta("core.splice.hit") + delta("core.splice.wait")
	m["core.splice.hit_ratio"] = ratio(spliceHit, spliceHit+delta("core.splice.miss"))
	m["core.splice.retained_mb"] = float64(c1.Gauges["runcache.core.splice.bytes"]) / mb

	rc := rc1.Since(rc0)
	// Disk-served lookups are L1 misses the store filled; Misses counts
	// only computations.
	m["runcache.hit_ratio"] = ratio(float64(rc.Hits), float64(rc.Hits+rc.Misses+rc.DiskHits))
	m["runcache.disk.hit_ratio"] = ratio(float64(rc.DiskHits), float64(rc.DiskHits+rc.DiskMisses))
	m["runcache.disk.read_mb"] = float64(rc.DiskBytesRead) / mb
	m["runcache.retained_mb"] = float64(rc1.BytesRetained) / mb
	m["runcache.evictions"] = float64(rc.Evictions)
	if ew, ok := w.(*experimentWorkload); ok {
		m["runcache.disk.write_mb"] = float64(ew.written) / mb
	}

	m["chaos.exec_s"] = tr.total("chaos.exec").Seconds()
	m["chaos.shrink_s"] = tr.total("chaos.shrink").Seconds()
	m["chaos.shrink.evals"] = delta("chaos.shrink.evals")
	if cw, ok := w.(*chaosWorkload); ok {
		m["chaos.findings"] = float64(cw.findings)
	}

	m["sweep.trials"] = delta("sweep.trials")
	m["sweep.parallel_eff"] = ratio(cpuMed, wallMed*float64(workers))
	m["traced.wall_s"] = wall
	m["obs.overhead_ratio"] = ratio(wall, wallMed)
	return m, tr, t, nil
}
