package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"flm"
)

// tally counts operations (one experiment, or one chaos trial) and the
// ones whose output check failed.
type tally struct {
	attempted, failed int
	problems          []string // first few failure descriptions
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		t.fail(p, 0)
	}
}

// fail records n failed operations (n may be 0 to keep only the note).
func (t *tally) fail(problem string, n int) {
	t.failed += n
	if len(t.problems) < 8 {
		t.problems = append(t.problems, problem)
	}
}

// workload is one named set of operations. A pass runs the operations
// once — the caller empties the run cache's L1 first and times the
// pass — and returns the output check, which the caller runs after the
// clock stops. The span tracer is nil except in the heap and traced
// passes.
type workload interface {
	// fresh prepares a set-up repetition: a new disk tier where the
	// workload uses one.
	fresh() error
	// setupPass is the first pass after fresh, timed as set-up.
	setupPass(tr *spanTracer) func() tally
	// pass is one measured pass.
	pass(tr *spanTracer) func() tally
	// close releases what fresh created.
	close()
}

// diskRoot holds suite-disk's private disk tiers: inside the checkout,
// next to the build outputs, and removed when the workload closes.
const diskRoot = ".bench_build"

// experimentWorkload runs a fixed set of experiments per pass, in an
// order drawn from the benchmark seed, and checks every rendering.
type experimentWorkload struct {
	exps   []flm.Experiment
	golden map[string]string // ID -> report.txt section
	rng    *rand.Rand

	// Disk-tier state (suite-disk only).
	disk    bool
	dir     string            // the current tier, under diskRoot
	fill    map[string]string // renderings of the last set-up fill
	restore func()
	written uint64 // disk bytes written by the last fill
}

func newExperimentWorkload(ids []string, golden map[string]string, rng *rand.Rand) (*experimentWorkload, error) {
	w := &experimentWorkload{golden: golden, rng: rng}
	for _, id := range ids {
		e, ok := flm.FindExperiment(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not registered", id)
		}
		if _, ok := golden[id]; !ok {
			return nil, fmt.Errorf("report.txt has no section for %s", id)
		}
		w.exps = append(w.exps, e)
	}
	return w, nil
}

func (w *experimentWorkload) fresh() error {
	if !w.disk {
		return nil
	}
	w.close()
	if err := os.MkdirAll(diskRoot, 0o755); err != nil {
		return fmt.Errorf("disk tier: %w", err)
	}
	dir, err := os.MkdirTemp(diskRoot, "suite-disk-")
	if err != nil {
		return fmt.Errorf("disk tier: %w", err)
	}
	restore, err := flm.SetRunCacheDir(dir)
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("disk tier: %w", err)
	}
	w.dir, w.restore = dir, restore
	return nil
}

func (w *experimentWorkload) close() {
	if w.restore != nil {
		w.restore()
		w.restore = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// setupPass is the cold first pass. For suite-disk it is the disk
// fill: its renderings become the reference for the timed passes, and
// the bytes it wrote are the disk write path's per-layer figure.
func (w *experimentWorkload) setupPass(tr *spanTracer) func() tally {
	before := flm.RunCacheStats()
	check := w.run(tr, w.golden)
	return func() tally {
		t, renders := check()
		if w.disk {
			w.fill = renders
			w.written = flm.RunCacheStats().DiskBytesWritten - before.DiskBytesWritten
		}
		return t
	}
}

func (w *experimentWorkload) pass(tr *spanTracer) func() tally {
	ref := w.golden
	if w.disk {
		ref = w.fill
	}
	check := w.run(tr, ref)
	return func() tally {
		t, _ := check()
		return t
	}
}

func (w *experimentWorkload) run(tr *spanTracer, ref map[string]string) func() (tally, map[string]string) {
	results := make([]*flm.ExperimentResult, len(w.exps))
	errs := make([]error, len(w.exps))
	done := tr.begin("pass")
	for _, i := range w.rng.Perm(len(w.exps)) {
		end := tr.begin("experiment " + w.exps[i].ID)
		results[i], errs[i] = w.exps[i].Run()
		end()
	}
	done()
	return func() (tally, map[string]string) {
		t := tally{attempted: len(w.exps)}
		renders := make(map[string]string, len(w.exps))
		for i, e := range w.exps {
			if errs[i] != nil {
				t.fail(fmt.Sprintf("%s: %v", e.ID, errs[i]), 1)
				continue
			}
			got := results[i].Render()
			renders[e.ID] = got
			if d := firstDiff(ref[e.ID], got); d != "" {
				t.fail(fmt.Sprintf("%s rendering differs from its reference: %s", e.ID, d), 1)
			}
		}
		return t, renders
	}
}

// firstDiff describes the first differing line of want and got, or
// returns "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, a, b)
		}
	}
	return "trailing bytes differ"
}

// chaosWorkload runs the sync and the async+dead chaos panels.
type chaosWorkload struct {
	cfgs     []flm.ChaosConfig
	rng      *rand.Rand
	findings int // violations found by the last checked pass
}

func newChaosWorkload(syncSeed, asyncSeed int64, workers int, rng *rand.Rand) *chaosWorkload {
	return &chaosWorkload{rng: rng, cfgs: []flm.ChaosConfig{
		{Seed: syncSeed, Trials: syncChaosTrials, Workers: workers},
		{Seed: asyncSeed, Trials: asyncChaosTrials, Workers: workers, Async: true, Dead: true},
	}}
}

func (w *chaosWorkload) fresh() error { return nil }
func (w *chaosWorkload) close()       {}

func (w *chaosWorkload) setupPass(tr *spanTracer) func() tally { return w.pass(tr) }

// pass runs each panel through chaos.Run, shrinking included. In the
// traced pass it instead times execution (chaos.Run with NoShrink) and
// each chaos.Shrink separately, so the two phases get their own spans.
func (w *chaosWorkload) pass(tr *spanTracer) func() tally {
	reps := make([]*flm.ChaosReport, len(w.cfgs))
	errs := make([]error, len(w.cfgs))
	done := tr.begin("pass")
	for _, i := range w.rng.Perm(len(w.cfgs)) {
		cfg := w.cfgs[i]
		if tr == nil {
			reps[i], errs[i] = flm.RunChaos(context.Background(), cfg)
			continue
		}
		cfg.NoShrink = true
		end := tr.begin(fmt.Sprintf("chaos.exec seed=%d", cfg.Seed))
		reps[i], errs[i] = flm.RunChaos(context.Background(), cfg)
		end()
		if errs[i] != nil {
			continue
		}
		for j := range reps[i].Expected {
			f := &reps[i].Expected[j]
			end := tr.begin("chaos.shrink")
			if shrunk, ok := flm.ShrinkChaosSchedule(f.Schedule); ok {
				f.Shrunk = &shrunk
			}
			end()
		}
	}
	done()
	return func() tally {
		var t tally
		w.findings = 0
		for i, cfg := range w.cfgs {
			t.attempted += cfg.Trials
			if errs[i] != nil {
				t.fail(fmt.Sprintf("chaos seed %d: %v", cfg.Seed, errs[i]), cfg.Trials)
				continue
			}
			rep := reps[i]
			w.findings += len(rep.Expected) + len(rep.Unexpected)
			if !rep.OK() {
				for _, f := range rep.Unexpected {
					t.fail(fmt.Sprintf("chaos seed %d trial %d: unexpected %s", cfg.Seed, f.Trial, f.Violation), 1)
				}
			}
			for _, f := range rep.Expected {
				if f.Shrunk == nil {
					t.fail(fmt.Sprintf("chaos seed %d trial %d: finding was not shrunk", cfg.Seed, f.Trial), 1)
					continue
				}
				if o := flm.RunChaosSchedule(*f.Shrunk); o.Violation == nil || o.EngineErr != nil {
					t.fail(fmt.Sprintf("chaos seed %d trial %d: shrunk schedule no longer violates", cfg.Seed, f.Trial), 1)
				}
			}
		}
		return t
	}
}
