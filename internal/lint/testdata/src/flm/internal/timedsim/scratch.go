// Package timedsim (the fixture, not the real one) mirrors the
// production arena/scratch idioms from internal/timedsim and
// internal/byzantine/eigflat.go at a determinism-gated import path. The
// whole suite must report nothing here: this is the no-false-positive
// baseline for device-owned reusable buffers, memoized fingerprints,
// arena scratch registers, and collect-then-sort map drains.
package timedsim

import (
	"fmt"
	"math/big"
	"sort"
)

type Message struct {
	From   int
	Body   string
	SentAt *big.Rat
}

// eigDevice reuses its own scratch across ticks — vals is a
// device-owned arena, tmp is a local big.Rat register — and memoizes
// its fingerprint. It writes its sends into the executor's out slots
// without keeping them. None of that may be flagged.
type eigDevice struct {
	n, f int
	fp   string
	vals []string
	tmp  big.Rat
}

func (d *eigDevice) DeviceFingerprint() string {
	if d.fp == "" {
		d.fp = fmt.Sprintf("eig:%d:%d", d.n, d.f)
	}
	return d.fp
}

func (d *eigDevice) Tick(k int, hw *big.Rat, inbox []Message, out []string) {
	d.tmp.Set(hw) // copying out of the scratch register: ok
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
