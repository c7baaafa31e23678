// Package aliasfix exercises flmalias: Step/Tick implementations must
// not retain executor-owned buffers past the call.
package aliasfix

import "math/big"

// Q mirrors clockfn.Q: an immutable exact rational passed by value.
type Q struct {
	n, d int64
	r    *big.Rat
}

type Message struct {
	From    string
	Payload string
	SentAt  Q
}

var sink []string

type keeper struct {
	saved []string
	names []string
	first *string
}

func (k *keeper) Step(round int, in, out []string) {
	k.saved = in      // want `keeper\.Step retains the executor-owned slot buffer \(in\)`
	sink = out        // want `keeper\.Step retains the executor-owned slot buffer \(out\)`
	k.saved = out[1:] // want `slot buffer \(out\)`
	k.first = &in[0]  // want `slot buffer \(in\)`
	tmp := in
	k.saved = tmp // want `slot buffer \(via local alias\)`
	for _, p := range in {
		k.names = append(k.names, p) // append copies the string: ok
	}
	k.names = append(k.names[:0], out...) // copying the elements: ok
	v := in[0]                            // a string value cannot alias the slice: ok
	out[0] = v                            // writing a slot is the point: ok
}

type ticker struct {
	frozen []Message
	first  *Message
	hw     Q
	bodies []string
	kept   []string
}

func (t *ticker) Tick(k int, hw Q, inbox []Message, out []string) {
	t.frozen = inbox     // want `ticker\.Tick retains the executor-owned inbox slice`
	t.frozen = inbox[1:] // want `inbox slice`
	t.first = &inbox[0]  // want `inbox slice`
	t.kept = out         // want `ticker\.Tick retains the executor-owned slot buffer \(out\)`

	// Values and copies are not executor buffers: none of these are
	// findings.
	t.hw = hw // hw is a value parameter, not a slice
	t.bodies = t.bodies[:0]
	for _, m := range inbox {
		t.bodies = append(t.bodies, m.Payload)
	}
	_ = inbox // blank assignment does not escape
	for i := range out {
		out[i] = "tick" // writing a slot is the point: ok
	}
}
