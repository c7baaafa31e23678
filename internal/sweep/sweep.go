// Package sweep is the parallel fan-out engine for the repository's
// embarrassingly parallel workloads: attack-panel sweeps, bit-pattern
// enumerations, frontier censuses, and corollary grids. Each trial in
// those sweeps builds its own System (or timed system), so no mutable
// state crosses trial boundaries and the only coordination needed is
// bounded fan-out plus deterministic collection.
//
// The engine guarantees:
//
//   - results are returned in trial-index order, regardless of which
//     worker finished first;
//   - the reported error is the one from the LOWEST failing trial index
//     (exactly what a sequential loop would have returned first), so
//     parallel and sequential sweeps are observationally identical;
//   - once a trial fails, workers stop picking up new trials (first-error
//     cancellation), but already-running trials complete;
//   - fan-out is bounded by Workers() goroutines per call.
package sweep

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flm/internal/obs"
)

// WorkersEnv is the environment variable that overrides the worker count
// for every sweep (0 or unset means GOMAXPROCS). The cmd/flm binary also
// exposes this as a flag.
const WorkersEnv = "FLM_WORKERS"

// overrideWorkers is a process-wide override set by SetWorkers; 0 means
// "use the environment / GOMAXPROCS".
var overrideWorkers atomic.Int64

// SetWorkers fixes the worker count for subsequent sweeps (n <= 0
// restores the default resolution order). It returns the previous
// override. Intended for the CLI flag and for tests that pin parallelism.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(overrideWorkers.Swap(int64(n)))
}

// warnOnce gates the one-time malformed-FLM_WORKERS warning; warnf is a
// test seam (defaults to stderr).
var (
	warnOnce sync.Once
	warnf    = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
)

// Workers reports the number of workers a sweep will use: the SetWorkers
// override if set, else FLM_WORKERS if set to a positive integer, else
// GOMAXPROCS. A malformed or negative FLM_WORKERS value falls back to
// GOMAXPROCS with a one-time warning ("0" and "" are valid spellings of
// the default and warn nothing).
func Workers() int {
	if n := int(overrideWorkers.Load()); n > 0 {
		return n
	}
	if s := os.Getenv(WorkersEnv); s != "" {
		n, err := strconv.Atoi(s)
		switch {
		case err == nil && n > 0:
			return n
		case err != nil || n < 0:
			warnOnce.Do(func() {
				warnf("sweep: ignoring invalid %s=%q (want a non-negative integer); using GOMAXPROCS=%d\n",
					WorkersEnv, s, runtime.GOMAXPROCS(0))
			})
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) across Workers() goroutines and
// returns the results in index order. If any call returns an error, the
// sweep is cancelled (no new trials start) and Map returns the error of
// the lowest failing index together with the full result slice gathered
// so far; results at indices that never ran are the zero value.
//
// fn must be safe to call concurrently with distinct indices. Trials must
// not share mutable state; everything a trial touches should be built
// inside fn or be read-only (graphs, builders, parameter structs).
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	ctx := context.Background()
	traced := obs.Enabled()
	if traced {
		var sweepSpan *obs.Span
		ctx, sweepSpan = obs.StartSpan(ctx, "sweep.map",
			obs.Int("trials", n), obs.Int("workers", workers))
		mSweeps.Inc()
		defer sweepSpan.End()
		ticket := obs.ProgressSweepStart(n)
		defer ticket.Finish()
	}
	if workers <= 1 {
		// Sequential fast path: no goroutines, identical semantics. Under
		// tracing the loop is booked as worker 0 so `flm stats` sees one
		// fully-busy worker rather than no sweep at all.
		var wo *workerObs
		if traced {
			_, ws := obs.StartSpan(ctx, "sweep.worker", obs.Int("worker", 0))
			started := time.Now()
			wo = &workerObs{}
			defer func() { wo.finish(ws, started) }()
		}
		for i := 0; i < n; i++ {
			var t0 time.Time
			if wo != nil {
				t0 = wo.begin()
			}
			v, err := fn(i)
			if wo != nil {
				wo.record(time.Since(t0))
			}
			if err != nil {
				if wo != nil {
					wo.fault()
				}
				return results, err
			}
			results[i] = v
		}
		return results, nil
	}

	var (
		next     atomic.Int64 // next trial index to claim
		stop     atomic.Int64 // no trial at or past this index starts
		mu       sync.Mutex   // guards firstErr/firstIdx
		firstErr error
		firstIdx = n
		wg       sync.WaitGroup
	)
	stop.Store(int64(n))
	// loop is one worker's claim-and-run cycle; wo is nil on the untraced
	// path, so the only instrumentation cost there is a dead nil check.
	// A failure lowers stop to its index, so trials claimed below it still
	// run: one of them may fail first in index order.
	loop := func(wo *workerObs) {
		for {
			i := int(next.Add(1)) - 1
			if i >= int(stop.Load()) {
				return
			}
			var t0 time.Time
			if wo != nil {
				t0 = wo.begin()
			}
			v, err := fn(i)
			if wo != nil {
				wo.record(time.Since(t0))
			}
			if err != nil {
				if wo != nil {
					wo.fault()
				}
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
					stop.Store(int64(i))
				}
				mu.Unlock()
				return
			}
			results[i] = v
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			if !traced {
				loop(nil)
				return
			}
			_, ws := obs.StartSpan(ctx, "sweep.worker", obs.Int("worker", w))
			started := time.Now()
			wo := workerObs{worker: w}
			doLabeled(ctx, w, func() { loop(&wo) })
			wo.finish(ws, started)
		}(w)
	}
	wg.Wait()
	return results, firstErr
}

// Each is Map for trials that produce no result value.
func Each(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
