// Package core is the FLM85 impossibility engine — the paper's primary
// contribution made executable. Given any deterministic devices that
// claim to solve a consensus problem on an inadequate graph G, the engine
//
//  1. installs the devices on a covering graph S of G (install.go),
//  2. runs S and splices scenarios of the covering run into correct
//     behaviors of G using the Locality and Fault axioms (splice.go),
//  3. evaluates the problem's correctness conditions on each behavior in
//     the chain and reports the condition that breaks (chain.go and the
//     per-theorem files).
//
// At least one condition must break — that is the theorem — and the
// engine fails loudly if its axiom self-checks or the chain logic ever
// find otherwise.
package core

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/graph"
	"flm/internal/sim"
)

// renamedDevice makes a device built for a node of G run at a node of S:
// it translates neighbor names in both directions, so the inner device
// observes exactly the local world it would see in G. Phi preserves
// neighborhoods, so the translation is a bijection on the node's edges.
type renamedDevice struct {
	inner sim.Device
	gName string            // the inner device's G-identity
	toG   map[string]string // S-neighbor name -> G-neighbor name
	//flmlint:allow flmfingerprint inverse of toG, which the fingerprint hashes in full
	toS map[string]string // G-neighbor name -> S-neighbor name

	// Translation buffers reused across Steps (the executor owns the
	// S-inbox and we own the returned S-outbox per the Device contract,
	// so neither is retained by anyone between rounds).
	gInbox sim.Inbox
	out    sim.Outbox
}

var _ sim.Device = (*renamedDevice)(nil)
var _ sim.Fingerprinter = (*renamedDevice)(nil)

func (d *renamedDevice) Init(self string, neighbors []string, input sim.Input) {
	// The inner device was initialized with its G-identity at build time.
}

func (d *renamedDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if d.gInbox == nil {
		d.gInbox = make(sim.Inbox, len(d.toG))
	} else {
		clear(d.gInbox)
	}
	for from, p := range inbox {
		gFrom, ok := d.toG[from]
		if !ok {
			continue // cannot happen on a verified cover
		}
		d.gInbox[gFrom] = p
	}
	gOut := d.inner.Step(round, d.gInbox)
	if d.out == nil {
		d.out = make(sim.Outbox, len(gOut))
	} else {
		clear(d.out)
	}
	for gTo, p := range gOut {
		sTo, ok := d.toS[gTo]
		if !ok {
			// The inner device addressed a G-node with no local image;
			// drop it (NewSystem would reject the unknown name). A
			// correct cover gives every G-neighbor an image.
			continue
		}
		d.out[sTo] = p
	}
	return d.out
}

// DeviceFingerprint is the inner device's fingerprint qualified by the
// G-identity and the neighbor renaming. The inner fingerprint covers
// type and constructor parameters; gName and the toG map pin down the
// (self, neighbors) the inner device was actually built with, which for
// an installed device differ from the S-node the executor keys on.
func (d *renamedDevice) DeviceFingerprint() string {
	inner := sim.FingerprintOf(d.inner)
	if inner == "" {
		return ""
	}
	pairs := make([]string, 0, len(d.toG))
	for sNb, gNb := range d.toG {
		pairs = append(pairs, sNb+">"+gNb)
	}
	sort.Strings(pairs)
	return "renamed:" + d.gName + "[" + strings.Join(pairs, ",") + "]|" + inner
}

// Snapshot is the inner device's snapshot: the installed node is
// behaviorally indistinguishable from its G counterpart, which is the
// whole point of the covering construction.
func (d *renamedDevice) Snapshot() string { return d.inner.Snapshot() }

func (d *renamedDevice) Output() (sim.Decision, bool) { return d.inner.Output() }

// Installation is a covering system: the cover, the installed protocol,
// and the inputs that were assigned to each S-node. Execute instantiates
// fresh devices each time, so an Installation can be run repeatedly.
type Installation struct {
	Cover    *graph.Cover
	Protocol sim.Protocol
	Inputs   map[string]sim.Input // by S-node name
}

// InstallCover assigns to every S-node the device of its G-image (built
// fresh per fiber member, with neighbor names translated) and the given
// per-S-node input. builders is keyed by G-node name, inputs by S-node
// name.
func InstallCover(cover *graph.Cover, builders map[string]sim.Builder, inputs map[string]sim.Input) (*Installation, error) {
	if err := cover.Verify(); err != nil {
		return nil, fmt.Errorf("core: refusing to install on an invalid cover: %w", err)
	}
	s, g := cover.S, cover.G
	p := sim.Protocol{
		Builders: make(map[string]sim.Builder, s.N()),
		Inputs:   make(map[string]sim.Input, s.N()),
	}
	for sn := 0; sn < s.N(); sn++ {
		sName := s.Name(sn)
		gNode := cover.Phi[sn]
		gName := g.Name(gNode)
		builder, ok := builders[gName]
		if !ok {
			return nil, fmt.Errorf("core: no builder for G-node %q (image of %q)", gName, sName)
		}
		input, ok := inputs[sName]
		if !ok {
			return nil, fmt.Errorf("core: no input for S-node %q", sName)
		}
		p.Inputs[sName] = input

		toG := make(map[string]string, s.Degree(sn))
		toS := make(map[string]string, s.Degree(sn))
		for _, nb := range s.Neighbors(sn) {
			sNb, gNb := s.Name(nb), g.Name(cover.Phi[nb])
			toG[sNb] = gNb
			toS[gNb] = sNb
		}
		gNeighbors := make([]string, 0, len(toS))
		for gNb := range toS {
			gNeighbors = append(gNeighbors, gNb)
		}
		sort.Strings(gNeighbors)
		// Capture loop variables for the closure.
		b, in, gn := builder, input, gName
		p.Builders[sName] = func(self string, neighbors []string, _ sim.Input) sim.Device {
			return &renamedDevice{inner: b(gn, gNeighbors, in), gName: gn, toG: toG, toS: toS}
		}
	}
	inputsCopy := make(map[string]sim.Input, len(p.Inputs))
	for k, v := range p.Inputs {
		inputsCopy[k] = v
	}
	return &Installation{Cover: cover, Protocol: p, Inputs: inputsCopy}, nil
}

// Execute instantiates the installed devices and runs the covering system
// for the given number of rounds.
func (inst *Installation) Execute(rounds int) (*sim.Run, error) {
	sys, err := sim.NewSystem(inst.Cover.S, inst.Protocol)
	if err != nil {
		return nil, err
	}
	return sim.Execute(sys, rounds)
}
