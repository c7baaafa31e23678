package sim

import (
	"fmt"
	"strings"
)

// ReplayDevice is the executable form of the paper's Fault axiom device
// F_A(E_1,...,E_d): installed at a node, it ignores everything it
// receives and plays a prerecorded payload sequence on each outedge
// independently. The recorded sequences may come from different system
// behaviors — that is the masquerading power the axiom grants to faulty
// nodes.
type ReplayDevice struct {
	named   map[string][]Payload // constructor scripts by neighbor name; Init resolves them into slots
	nbs     []string             // neighbor names (slot order), set by Init
	scripts [][]Payload          // scripts[i] plays toward nbs[i]; nil = silent
	round   int
}

var _ Device = (*ReplayDevice)(nil)
var _ Fingerprinter = (*ReplayDevice)(nil)

// NewReplayDevice builds the Fault-axiom device from per-neighbor payload
// scripts. Missing neighbors stay silent.
//
// The payload slices are shared with the caller, not copied: scripts
// come from recorded runs, runs are immutable once executed, and the
// device only ever reads them. Splice-heavy chains build thousands of
// replay devices from the same covering run, so the sharing is a
// measurable allocation win; TestReplayScriptsNotAliased pins the
// read-only guarantee.
func NewReplayDevice(scripts map[string][]Payload) *ReplayDevice {
	return &ReplayDevice{named: scripts}
}

// Builder returns a Builder producing replay devices with the given
// scripts, for installation through NewSystem.
func ReplayBuilder(scripts map[string][]Payload) Builder {
	return func(self string, neighbors []string, input Input) Device {
		d := NewReplayDevice(scripts)
		d.Init(self, neighbors, input)
		return d
	}
}

// Init resolves the named scripts into neighbor slots. Scripts addressed
// to non-neighbors are dropped, mirroring how a faulty node can only
// exhibit behavior on its actual outedges.
func (d *ReplayDevice) Init(self string, neighbors []string, input Input) {
	d.nbs = neighbors
	d.scripts = make([][]Payload, len(neighbors))
	for i, nb := range neighbors {
		if seq, ok := d.named[nb]; ok {
			if seq == nil {
				seq = []Payload{} // present but empty, unlike a silent slot
			}
			d.scripts[i] = seq
		}
	}
	d.named = nil
}

// Step plays round r of every script, ignoring what arrives.
func (d *ReplayDevice) Step(round int, in, out []Payload) {
	for i, seq := range d.scripts {
		if round < len(seq) {
			out[i] = seq[round]
		}
	}
	d.round = round + 1
}

// Snapshot encodes the replay position and the scripted neighbors.
func (d *ReplayDevice) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay@%d", d.round)
	for i, seq := range d.scripts {
		if seq != nil {
			fmt.Fprintf(&b, ";%s", d.nbs[i])
		}
	}
	return b.String()
}

// Output never decides: a faulty node's "choice" is irrelevant to every
// correctness condition.
func (d *ReplayDevice) Output() (Decision, bool) { return Decision{}, false }

// DeviceFingerprint canonically encodes the post-Init scripts — a replay
// device's behavior is its script content, nothing else — making spliced
// G-systems content-addressable.
func (d *ReplayDevice) DeviceFingerprint() string {
	total := 0
	for i, seq := range d.scripts {
		if seq != nil {
			total += len(d.nbs[i]) + 8
			for _, p := range seq {
				total += len(p) + 8
			}
		}
	}
	var b strings.Builder
	b.Grow(len("replay") + total)
	b.WriteString("replay")
	for i, seq := range d.scripts {
		if seq == nil {
			continue
		}
		nb := d.nbs[i]
		fmt.Fprintf(&b, "|%d:%s:%d", len(nb), nb, len(seq))
		for _, p := range seq {
			fmt.Fprintf(&b, ",%d:%s", len(p), p)
		}
	}
	return b.String()
}
