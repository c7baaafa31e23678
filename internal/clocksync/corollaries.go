package clocksync

import "flm/internal/clockfn"

// This file instantiates Theorem 8 for the paper's Corollaries 12-15.
// Each corollary fixes the clock laws p, q and the lower envelope l and
// states that no devices can synchronize a constant closer than the
// trivial l(q(t)) - l(p(t)); the engine demonstrates it by defeating any
// devices that claim an improvement of alpha.

// TrivialGap returns l(q(t)) - l(p(t)) at real time t — the
// synchronization achieved by the no-communication lower-envelope device,
// which Theorem 8 shows is optimal on inadequate graphs.
func (p Params) TrivialGap(t float64) float64 {
	return p.L.At(p.Q.Float().At(t)) - p.L.At(p.P.Float().At(t))
}

// Corollary12 instantiates linear-envelope synchronization (the [DHS]
// setting): p(t)=t, q(t)=rt, l(t)=a*t+b, u(t)=c*t+d. Claiming any
// constant agreement bound within those envelopes implies beating the
// trivial a(r-1)t synchronization by a constant, which Theorem 8 forbids.
func Corollary12(rNum, rDen int64, a, b, c, d, alpha float64, tPrime clockfn.Q) Params {
	return Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(rNum, rDen, 0, 1),
		L:      clockfn.Linear{Rate: a, Off: b},
		U:      clockfn.Linear{Rate: c, Off: d},
		Alpha:  alpha,
		TPrime: tPrime,
		Delta:  clockfn.NewQ(1, 2),
	}
}

// Corollary13 is the rate-difference bound: with p(t)=t, q(t)=rt and
// l(t)=a*t+b, no devices can synchronize a constant closer than art-at.
func Corollary13(rNum, rDen int64, a, b, alpha float64, tPrime clockfn.Q) Params {
	// Any upper envelope works; the paper notes its choice is
	// immaterial. Use u = l + constant.
	return Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(rNum, rDen, 0, 1),
		L:      clockfn.Linear{Rate: a, Off: b},
		U:      clockfn.Linear{Rate: a, Off: b + 4},
		Alpha:  alpha,
		TPrime: tPrime,
		Delta:  clockfn.NewQ(1, 2),
	}
}

// Corollary14 is the offset-difference bound: with p(t)=t, q(t)=t+c and
// l(t)=a*t+b, no devices can synchronize a constant closer than a*c.
// Here h(t) = t+c, so the ring's hardware clocks differ by offsets only.
func Corollary14(cNum, cDen int64, a, b, alpha float64, tPrime clockfn.Q) Params {
	return Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(1, 1, cNum, cDen),
		L:      clockfn.Linear{Rate: a, Off: b},
		U:      clockfn.Linear{Rate: a, Off: b + 4},
		Alpha:  alpha,
		TPrime: tPrime,
		Delta:  clockfn.NewQ(1, 2),
	}
}

// Corollary15 is the logarithmic-clock bound: with p(t)=t, q(t)=rt and
// l(t)=log2(t), no devices can synchronize a constant closer than
// log2(r) — diverging linear clocks can be tamed to a constant gap by
// running logical clocks logarithmically, but never closer than log2(r).
func Corollary15(rNum, rDen int64, alpha float64, tPrime clockfn.Q) Params {
	return Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(rNum, rDen, 0, 1),
		L:      clockfn.Log2{},
		U:      clockfn.Compose(clockfn.Linear{Rate: 1, Off: 3}, clockfn.Log2{}),
		Alpha:  alpha,
		TPrime: tPrime,
		Delta:  clockfn.NewQ(1, 2),
	}
}
