package sim

import (
	"context"
	"time"

	"flm/internal/obs"
)

// Observability for the executor hot path. ExecuteCtx branches here on
// obs.Enabled() before touching any attribute or metric, so the
// disabled engine runs the exact pre-instrumentation code path
// (BenchmarkObsDisabled pins the zero-alloc claim).
var (
	mExecRuns    = obs.NewCounter("sim.exec.runs")
	mExecErrors  = obs.NewCounter("sim.exec.errors")
	mCacheHit    = obs.NewCounter("sim.cache.hit")
	mCacheWait   = obs.NewCounter("sim.cache.wait")
	mCacheMiss   = obs.NewCounter("sim.cache.miss")
	mCacheDisk   = obs.NewCounter("sim.cache.disk")
	mCacheBypass = obs.NewCounter("sim.cache.bypass")
	hExecDur     = obs.NewHistogram("sim.exec.dur_us")
)

// Message accounting for delay-schedule (adversarial asynchrony)
// executions. Every message dispatched under a delay schedule is
// classified exactly once — delivered into an inbox, lost past the
// round horizon, or collided (overwritten in its mailbox slot by a
// later send on the same edge before its delivery round) — so traced
// E19/E20-style runs satisfy sent = delivered + lost + collided;
// delayed counts the subset of sent with a positive extra delay.
// Synchronous executions never touch these: the accounting object only
// exists when a delay schedule is present AND a tracer is installed.
var (
	mAsyncSent      = obs.NewCounter("sim.async.sent")
	mAsyncDelivered = obs.NewCounter("sim.async.delivered")
	mAsyncDelayed   = obs.NewCounter("sim.async.delayed")
	mAsyncLost      = obs.NewCounter("sim.async.lost")
	mAsyncCollided  = obs.NewCounter("sim.async.collided")
)

// asyncAcct accumulates one execution's message classification in
// plain locals and flushes them to the counters in one batch of atomic
// adds when the execution returns (clean or not), keeping the delivery
// loop free of per-message atomics.
type asyncAcct struct {
	sent, delivered, delayed, lost, collided uint64
}

// flush publishes the execution's totals.
func (a *asyncAcct) flush() {
	mAsyncSent.Add(a.sent)
	mAsyncDelivered.Add(a.delivered)
	mAsyncDelayed.Add(a.delayed)
	mAsyncLost.Add(a.lost)
	mAsyncCollided.Add(a.collided)
}

// executeCtxTraced is ExecuteCtx's traced twin: the same cache
// dispatch, wrapped in a "sim.execute" span recording the system shape,
// how the cache served the execution (hit / wait / disk / miss / bypass
// / uncacheable), the decision count, and — in full recording mode —
// the run's message and byte totals from CollectStats.
//
//flmlint:allow flmobscost reached only from ExecuteCtx's obs.Enabled() branch
//flmlint:allow flmdeterminism wall clock feeds span timing only, never the Run
func executeCtxTraced(ctx context.Context, sys *System, rounds int, opts ExecuteOpts) (*Run, error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "sim.execute",
		obs.Int("nodes", sys.G.N()),
		obs.Int("rounds", rounds),
		obs.Bool("snapshots", opts.RecordSnapshots),
		obs.Bool("edges", opts.RecordEdges))

	run, cacheState, err := executeCached(ctx, sys, rounds, opts)
	switch cacheState {
	case "hit":
		mCacheHit.Inc()
	case "wait":
		mCacheWait.Inc()
	case "disk":
		mCacheDisk.Inc()
	case "miss":
		mCacheMiss.Inc()
	default: // bypass or uncacheable
		mCacheBypass.Inc()
	}

	sp.SetAttrs(obs.Str("cache", cacheState))
	mExecRuns.Inc()
	hExecDur.Observe(uint64(time.Since(start) / time.Microsecond))
	if err != nil {
		mExecErrors.Inc()
		sp.SetAttrs(obs.Str("error", err.Error()))
	}
	if run != nil {
		decided := 0
		for _, d := range run.Decisions {
			if d.Value != "" {
				decided++
			}
		}
		sp.SetAttrs(obs.Int("decided", decided))
		if run.Edges != nil {
			st := CollectStats(run)
			sp.SetAttrs(obs.Int("messages", st.Messages), obs.Int("bytes", st.Bytes))
		}
	}
	sp.End()
	return run, err
}
