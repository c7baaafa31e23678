// Package timedsim (the fixture, not the real one) mirrors the
// production device idioms from internal/timedsim and
// internal/byzantine/eigflat.go at a determinism-gated import path. The
// whole suite must report nothing here: this is the no-false-positive
// baseline for device-owned reusable buffers, memoized fingerprints,
// kept exact-rational readings, and collect-then-sort map drains.
package timedsim

import (
	"fmt"
	"math/big"
	"sort"
)

// Q mirrors clockfn.Q: an immutable exact rational passed by value,
// holding a *big.Rat only when the value outgrows int64.
type Q struct {
	n, d int64
	r    *big.Rat
}

type Message struct {
	From   int
	Body   string
	SentAt Q
}

// eigDevice reuses its own scratch across ticks — vals is a
// device-owned buffer — keeps the last hardware reading, and memoizes
// its fingerprint. It writes its sends into the executor's out slots
// without keeping them. None of that may be flagged.
type eigDevice struct {
	n, f int
	fp   string
	vals []string
	last Q
}

func (d *eigDevice) DeviceFingerprint() string {
	if d.fp == "" {
		d.fp = fmt.Sprintf("eig:%d:%d", d.n, d.f)
	}
	return d.fp
}

func (d *eigDevice) Tick(k int, hw Q, inbox []Message, out []string) {
	d.last = hw // hw is an immutable value, not an executor buffer: ok
	d.vals = d.vals[:0]
	for _, m := range inbox {
		d.vals = append(d.vals, m.Body) // string copy, not an alias: ok
	}
	sort.Strings(d.vals)
	for i := range out {
		out[i] = d.fp // writing a slot: ok
	}
}

// merge drains a map into a slice and sorts it with a deterministic
// tie-break — the sanctioned collect-then-sort idiom.
func merge(rounds map[int][]Message) []Message {
	var out []Message
	for _, ms := range rounds {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Body < out[j].Body
	})
	return out
}
