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

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// Builder constructs a fresh synchronization device for a named node.
type Builder func(self string, neighbors []string) timedsim.Device

// half is the averaging devices' step: each tick they move their
// correction halfway toward the target.
var half = clockfn.NewQ(1, 2)

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

func (d *trivialDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {}

func (d *trivialDevice) Logical(hw clockfn.Q) float64 { return d.l.At(hw.Float64()) }

func (d *trivialDevice) Snapshot() string { return "trivial" }

// chaseDevice broadcasts its hardware reading at every tick and keeps its
// logical clock at l(hw + ahead), where ahead is the largest lead it has
// ever observed a neighbor to have. Synchronizing with the fastest
// neighbor is exactly the behavior Theorem 8's induction exploits: around
// the ring each node believes its predecessor is ahead, and the
// accumulated lead blows through the upper envelope.
type chaseDevice struct {
	l     clockfn.Fn
	ahead clockfn.Q
}

var _ timedsim.Device = (*chaseDevice)(nil)

// NewChaseMax returns a builder for chase-the-fastest devices.
func NewChaseMax(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		return &chaseDevice{l: l}
	}
}

func (d *chaseDevice) Init(self string, neighbors []string) {
	d.ahead = clockfn.Q{}
}

func (d *chaseDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {
	for _, m := range inbox {
		reported, ok := clockfn.ParseQ(m.Payload)
		if !ok {
			continue
		}
		// The neighbor's reading was taken at its send time, which is
		// earlier than now; treating it as current only underestimates
		// the lead, keeping the device conservative.
		if lead := reported.Sub(hw); lead.Cmp(d.ahead) > 0 {
			d.ahead = lead
		}
	}
	broadcast(out, hw.Add(d.ahead).String())
}

func (d *chaseDevice) Logical(hw clockfn.Q) float64 {
	return d.l.At(hw.Add(d.ahead).Float64())
}

func (d *chaseDevice) Snapshot() string {
	return fmt.Sprintf("chase(ahead=%s)", d.ahead)
}

// broadcast sends one payload to every neighbor.
func broadcast(out []string, payload string) {
	for i := range out {
		out[i] = payload
	}
}

// readings keeps the last clock reading heard in each neighbor slot;
// heard[i] reports whether anything has been heard there yet. The
// averaging devices share it.
type readings struct {
	nbs   []string
	last  []clockfn.Q
	heard []bool
}

func (r *readings) init(neighbors []string) {
	r.nbs = neighbors
	r.last = make([]clockfn.Q, len(neighbors))
	r.heard = make([]bool, len(neighbors))
}

// absorb records every parsable reading of the inbox.
func (r *readings) absorb(inbox []timedsim.Message) {
	for _, m := range inbox {
		if reported, ok := clockfn.ParseQ(m.Payload); ok {
			r.last[m.From], r.heard[m.From] = reported, true
		}
	}
}

// snapshot appends "|name=reading" for every neighbor heard, in name
// order.
func (r *readings) snapshot(s string) string {
	for i, v := range r.last {
		if r.heard[i] {
			s += "|" + r.nbs[i] + "=" + v.String()
		}
	}
	return s
}

// correction is an averaging device's correction to its hardware
// reading, with the corrected reading own = hw + corr of its latest
// tick. The executor asks for Logical at that tick's reading right
// after the tick, and own answers it without recomputing the sum, which
// is a math/big sum once the correction's denominator has outgrown
// int64.
type correction struct {
	corr, hw, own clockfn.Q
}

// at returns the corrected reading hw + corr.
func (c *correction) at(hw clockfn.Q) clockfn.Q {
	if hw.Cmp(c.hw) == 0 {
		return c.own
	}
	return hw.Add(c.corr)
}

// moveTo ends a tick at hardware reading hw: it sets the corrected
// reading to own (and the correction to own - hw when it moved) and
// returns the reading to broadcast.
func (c *correction) moveTo(hw, own clockfn.Q, moved bool) string {
	if moved {
		c.corr = own.Sub(hw)
	}
	c.hw, c.own = hw, own
	return own.String()
}

// trimmedDevice is the fault-tolerant variant: it moves its correction
// halfway toward the MEDIAN of its neighbors' last readings after
// discarding the f most extreme on each side, so up to f Byzantine
// neighbors cannot drag it outside the correct readings' range. On
// adequate graphs this beats the trivial l(q)-l(p) synchronization —
// which Theorem 8 only forbids on inadequate ones.
type trimmedDevice struct {
	readings
	correction
	l      clockfn.Fn
	f      int
	sorted []clockfn.Q // reused per-tick sort buffer
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
	d.correction = correction{}
}

func (d *trimmedDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {
	d.absorb(inbox)
	sorted := d.sorted[:0]
	for i, v := range d.last {
		if d.heard[i] {
			sorted = append(sorted, v)
		}
	}
	d.sorted = sorted
	own := d.at(hw)
	moved := len(sorted) > 2*d.f
	if moved {
		// Stable insertion sort: neighbor fan-in is small and equal
		// readings yield the same median value either way.
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Cmp(sorted[j-1]) < 0; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		trimmed := sorted[d.f : len(sorted)-d.f]
		median := trimmed[len(trimmed)/2]
		// Halfway to the median: own + (median - own)/2.
		own = own.Add(median).Mul(half)
	}
	broadcast(out, d.moveTo(hw, own, moved))
}

func (d *trimmedDevice) Logical(hw clockfn.Q) float64 {
	return d.l.At(d.at(hw).Float64())
}

func (d *trimmedDevice) Snapshot() string {
	return d.snapshot(fmt.Sprintf("trim(f=%d,corr=%s)", d.f, d.corr))
}

// midpointDevice averages: it broadcasts its corrected reading each tick
// and moves its correction halfway toward the midpoint of the extreme
// neighbor readings.
type midpointDevice struct {
	readings
	correction
	l clockfn.Fn
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
	d.correction = correction{}
}

func (d *midpointDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {
	d.absorb(inbox)
	var lo, hi clockfn.Q
	found := false
	for i, v := range d.last {
		if !d.heard[i] {
			continue
		}
		if !found || v.Cmp(lo) < 0 {
			lo = v
		}
		if !found || v.Cmp(hi) > 0 {
			hi = v
		}
		found = true
	}
	own := d.at(hw)
	if found {
		// Halfway to the midpoint: own + ((lo + hi)/2 - own)/2.
		own = own.Add(lo.Add(hi).Mul(half)).Mul(half)
	}
	broadcast(out, d.moveTo(hw, own, found))
}

func (d *midpointDevice) Logical(hw clockfn.Q) float64 {
	return d.l.At(d.at(hw).Float64())
}

func (d *midpointDevice) Snapshot() string {
	return d.snapshot(fmt.Sprintf("mid(corr=%s)", d.corr))
}
