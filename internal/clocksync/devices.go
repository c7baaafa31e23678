// Package clocksync implements FLM85 Section 7: clock synchronization
// devices (the trivial lower-envelope clock, a chase-the-fastest clock,
// and a midpoint-averaging clock), the "nontrivial synchronization"
// conditions, and the mechanized Theorem 8 argument — the ring covering
// with hardware clocks q∘h⁻ⁱ in which any device that beats the trivial
// synchronization l(q(t))−l(p(t)) by a constant α must violate either the
// agreement bound or the envelope condition.
package clocksync

import (
	"fmt"
	"math/big"

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// Builder constructs a fresh synchronization device for a named node.
type Builder func(self string, neighbors []string) timedsim.Device

// ratTwo is the shared division constant for the averaging devices. It is
// never mutated: big.Rat.Quo only reads its operand's storage, so sharing
// it across concurrently ticking devices is safe.
var ratTwo = big.NewRat(2, 1)

// trivialDevice runs its logical clock at the lower envelope of its
// hardware clock: C(t) = l(D(t)). The paper proves this no-communication
// strategy is optimal on inadequate graphs: it synchronizes to exactly
// l(q(t)) - l(p(t)) and nothing can do better by any constant.
type trivialDevice struct {
	l clockfn.Fn
}

var _ timedsim.Device = (*trivialDevice)(nil)

// NewTrivialLower returns a builder for lower-envelope devices.
func NewTrivialLower(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		return &trivialDevice{l: l}
	}
}

func (d *trivialDevice) Init(self string, neighbors []string) {}

func (d *trivialDevice) Tick(k int, hw *big.Rat, inbox []timedsim.Message, out []string) {}

func (d *trivialDevice) Logical(hw *big.Rat) float64 {
	f, _ := hw.Float64()
	return d.l.At(f)
}

func (d *trivialDevice) Snapshot() string { return "trivial" }

// chaseDevice broadcasts its hardware reading at every tick and keeps its
// logical clock at l(hw + ahead), where ahead is the largest lead it has
// ever observed a neighbor to have. Synchronizing with the fastest
// neighbor is exactly the behavior Theorem 8's induction exploits: around
// the ring each node believes its predecessor is ahead, and the
// accumulated lead blows through the upper envelope.
type chaseDevice struct {
	l     clockfn.Fn
	ahead *big.Rat
	tmp   big.Rat // per-message parse/lead scratch
	eff   big.Rat // corrected-reading scratch
	scr   clockfn.RatScratch
}

var _ timedsim.Device = (*chaseDevice)(nil)

// NewChaseMax returns a builder for chase-the-fastest devices.
func NewChaseMax(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		return &chaseDevice{l: l}
	}
}

func (d *chaseDevice) Init(self string, neighbors []string) {
	d.ahead = new(big.Rat)
}

func (d *chaseDevice) Tick(k int, hw *big.Rat, inbox []timedsim.Message, out []string) {
	for _, m := range inbox {
		reported, ok := d.tmp.SetString(m.Payload)
		if !ok {
			continue
		}
		// The neighbor's reading was taken at its send time, which is
		// earlier than now; treating it as current only underestimates
		// the lead, keeping the device conservative.
		lead := reported.Sub(reported, hw)
		if d.scr.Cmp(lead, d.ahead) > 0 {
			d.ahead.Set(lead)
		}
	}
	d.eff.Add(hw, d.ahead)
	broadcast(out, d.eff.RatString())
}

func (d *chaseDevice) Logical(hw *big.Rat) float64 {
	d.eff.Add(hw, d.ahead)
	f, _ := d.eff.Float64()
	return d.l.At(f)
}

func (d *chaseDevice) Snapshot() string {
	return fmt.Sprintf("chase(ahead=%s)", d.ahead.RatString())
}

// broadcast sends one payload to every neighbor.
func broadcast(out []string, payload string) {
	for i := range out {
		out[i] = payload
	}
}

// readings keeps the last clock reading heard in each neighbor slot;
// nil means nothing has been heard there yet. The averaging devices
// share it.
type readings struct {
	nbs  []string
	last []*big.Rat
	tmp  big.Rat // per-message parse scratch
}

func (r *readings) init(neighbors []string) {
	r.nbs = neighbors
	r.last = make([]*big.Rat, len(neighbors))
}

// absorb records every parsable reading of the inbox.
func (r *readings) absorb(inbox []timedsim.Message) {
	for _, m := range inbox {
		if reported, ok := r.tmp.SetString(m.Payload); ok {
			if v := r.last[m.From]; v != nil {
				v.Set(reported)
			} else {
				r.last[m.From] = new(big.Rat).Set(reported)
			}
		}
	}
}

// snapshot appends "|name=reading" for every neighbor heard, in name
// order.
func (r *readings) snapshot(s string) string {
	for i, v := range r.last {
		if v != nil {
			s += "|" + r.nbs[i] + "=" + v.RatString()
		}
	}
	return s
}

// trimmedDevice is the fault-tolerant variant: it moves its correction
// halfway toward the MEDIAN of its neighbors' last readings after
// discarding the f most extreme on each side, so up to f Byzantine
// neighbors cannot drag it outside the correct readings' range. On
// adequate graphs this beats the trivial l(q)-l(p) synchronization —
// which Theorem 8 only forbids on inadequate ones.
type trimmedDevice struct {
	readings
	l      clockfn.Fn
	f      int
	corr   *big.Rat
	own    big.Rat // corrected-reading scratch
	adj    big.Rat // correction-step scratch
	scr    clockfn.RatScratch
	sorted []*big.Rat // reused per-tick sort buffer
}

var _ timedsim.Device = (*trimmedDevice)(nil)

// NewTrimmedMidpoint returns a builder for trimmed-median averaging
// devices tolerating f Byzantine neighbors.
func NewTrimmedMidpoint(l clockfn.Fn, f int) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		return &trimmedDevice{l: l, f: f}
	}
}

func (d *trimmedDevice) Init(self string, neighbors []string) {
	d.init(neighbors)
	d.corr = new(big.Rat)
}

func (d *trimmedDevice) Tick(k int, hw *big.Rat, inbox []timedsim.Message, out []string) {
	d.absorb(inbox)
	sorted := d.sorted[:0]
	for _, v := range d.last {
		if v != nil {
			sorted = append(sorted, v)
		}
	}
	d.sorted = sorted
	if len(sorted) > 2*d.f {
		// Stable insertion sort: neighbor fan-in is small and equal
		// readings yield the same median value either way.
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && d.scr.Cmp(sorted[j], sorted[j-1]) < 0; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		trimmed := sorted[d.f : len(sorted)-d.f]
		median := trimmed[len(trimmed)/2]
		own := d.own.Add(hw, d.corr)
		adj := d.adj.Sub(median, own)
		adj.Quo(adj, ratTwo)
		d.corr.Add(d.corr, adj)
	}
	d.own.Add(hw, d.corr)
	broadcast(out, d.own.RatString())
}

func (d *trimmedDevice) Logical(hw *big.Rat) float64 {
	d.own.Add(hw, d.corr)
	f, _ := d.own.Float64()
	return d.l.At(f)
}

func (d *trimmedDevice) Snapshot() string {
	return d.snapshot(fmt.Sprintf("trim(f=%d,corr=%s)", d.f, d.corr.RatString()))
}

// midpointDevice averages: it broadcasts its corrected reading each tick
// and moves its correction halfway toward the midpoint of the extreme
// neighbor readings.
type midpointDevice struct {
	readings
	l    clockfn.Fn
	corr *big.Rat
	own  big.Rat // corrected-reading scratch
	mid  big.Rat // midpoint scratch
	adj  big.Rat // correction-step scratch
	scr  clockfn.RatScratch
}

var _ timedsim.Device = (*midpointDevice)(nil)

// NewMidpoint returns a builder for midpoint-averaging devices.
func NewMidpoint(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		return &midpointDevice{l: l}
	}
}

func (d *midpointDevice) Init(self string, neighbors []string) {
	d.init(neighbors)
	d.corr = new(big.Rat)
}

func (d *midpointDevice) Tick(k int, hw *big.Rat, inbox []timedsim.Message, out []string) {
	d.absorb(inbox)
	lo, hi := (*big.Rat)(nil), (*big.Rat)(nil)
	for _, v := range d.last {
		if v == nil {
			continue
		}
		if lo == nil || d.scr.Cmp(v, lo) < 0 {
			lo = v
		}
		if hi == nil || d.scr.Cmp(v, hi) > 0 {
			hi = v
		}
	}
	if lo != nil {
		own := d.own.Add(hw, d.corr)
		mid := d.mid.Add(lo, hi)
		mid.Quo(mid, ratTwo)
		adj := d.adj.Sub(mid, own)
		adj.Quo(adj, ratTwo)
		d.corr.Add(d.corr, adj)
	}
	d.own.Add(hw, d.corr)
	broadcast(out, d.own.RatString())
}

func (d *midpointDevice) Logical(hw *big.Rat) float64 {
	d.own.Add(hw, d.corr)
	f, _ := d.own.Float64()
	return d.l.At(f)
}

func (d *midpointDevice) Snapshot() string {
	return d.snapshot(fmt.Sprintf("mid(corr=%s)", d.corr.RatString()))
}
