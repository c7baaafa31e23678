package timedsim

import (
	"flm/internal/clockfn"
	"flm/internal/obs"
)

// Counters for the timed model, published once per Execute and only
// while a tracer is installed. timedsim.rat.big counts the recorded
// rationals — tick times, hardware readings, send times, and payloads
// that parse as rationals — too large for clockfn.Q's int64 form, so a
// trace shows how much of a run paid for math/big.
var (
	mExecRuns = obs.NewCounter("timedsim.exec.runs")
	mTicks    = obs.NewCounter("timedsim.ticks")
	mSends    = obs.NewCounter("timedsim.sends")
	mRatBig   = obs.NewCounter("timedsim.rat.big")
)

// countRun publishes one execution's totals.
//
//flmlint:allow flmobscost reached only from Execute's obs.Enabled() branch
func countRun(run *Run) {
	var ticks, sends, big uint64
	isBig := func(q clockfn.Q) uint64 {
		if q.IsBig() {
			return 1
		}
		return 0
	}
	for _, recs := range run.Ticks {
		for _, tk := range recs {
			ticks++
			big += isBig(tk.Time) + isBig(tk.HW)
		}
	}
	for _, recs := range run.Sends {
		for _, rec := range recs {
			sends++
			big += isBig(rec.At)
			if v, ok := clockfn.ParseQ(rec.Payload); ok {
				big += isBig(v)
			}
		}
	}
	mExecRuns.Inc()
	mTicks.Add(ticks)
	mSends.Add(sends)
	mRatBig.Add(big)
}
