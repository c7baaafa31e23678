// Package core is the FLM85 impossibility engine — the paper's primary
// contribution made executable. Given any deterministic devices that
// claim to solve a consensus problem on an inadequate graph G, the engine
//
//  1. installs the devices on a covering graph S of G (install.go),
//  2. runs S and splices scenarios of the covering run into correct
//     behaviors of G using the Locality and Fault axioms (splice.go),
//  3. evaluates the problem's correctness conditions on each behavior in
//     the chain and reports the condition that breaks (chain.go).
//
// chain.go holds the one driver every theorem shares. The theorem files
// only choose a layout — a cover and its ordered scenarios, built from
// graph's checked partitions and cuts — and a problem's conditions:
// theorem1.go the two-copy argument of Theorems 1 and 5, theorem24.go
// the ring argument of Theorems 2 and 4, theorem56.go Theorem 5's
// conditions and Theorem 6.
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

// renamedDevice makes a device built for a node of G run at a node of S.
// Phi preserves neighborhoods, so it is a bijection between the S-node's
// edges and its G-image's: in slot terms, a permutation. The inner device
// observes exactly the local world it would see in G.
type renamedDevice struct {
	inner sim.Device
	ren   *renaming // shared by every build of the same S-node

	// The inner device's buffers, in G-slot order. As the inner device's
	// executor, Step clears gOut before each call.
	gIn, gOut []sim.Payload
}

// renaming is the neighborhood bijection of one S-node, fixed at install
// time: S-slot i holds the G-neighbor in G-slot perm[i].
type renaming struct {
	perm []int
	fp   string // "renamed:<gName>[sNb>gNb,...]|", the fingerprint prefix
}

var _ sim.Device = (*renamedDevice)(nil)
var _ sim.Fingerprinter = (*renamedDevice)(nil)

func (d *renamedDevice) Init(self string, neighbors []string, input sim.Input) {
	// The inner device was initialized with its G-identity at build time.
}

func (d *renamedDevice) Step(round int, in, out []sim.Payload) {
	perm := d.ren.perm
	if d.gIn == nil {
		d.gIn = make([]sim.Payload, len(perm))
		d.gOut = make([]sim.Payload, len(perm))
	}
	for i, g := range perm {
		d.gIn[g] = in[i]
	}
	clear(d.gOut)
	d.inner.Step(round, d.gIn, d.gOut)
	for i, g := range perm {
		out[i] = d.gOut[g]
	}
}

// DeviceFingerprint is the inner device's fingerprint qualified by the
// G-identity and the neighbor renaming. The inner fingerprint covers
// type and constructor parameters; the renaming pins down the (self,
// neighbors) the inner device was actually built with, which for an
// installed device differ from the S-node the executor keys on.
func (d *renamedDevice) DeviceFingerprint() string {
	inner := sim.FingerprintOf(d.inner)
	if inner == "" {
		return ""
	}
	return d.ren.fp + inner
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
	sPorts, gPorts := s.Ports(), g.Ports()
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

		nbs := sPorts.Nbrs[sn]
		pairs := make([]string, len(nbs))
		for i, nb := range nbs {
			pairs[i] = s.Name(nb) + ">" + g.Name(cover.Phi[nb])
		}
		sort.Strings(pairs)
		gNeighbors := make([]string, len(nbs))
		for i, gv := range gPorts.Nbrs[gNode] {
			gNeighbors[i] = g.Name(gv)
		}
		ren := &renaming{
			perm: cover.SlotPerm(sn, sPorts, gPorts),
			fp:   "renamed:" + gName + "[" + strings.Join(pairs, ",") + "]|",
		}
		// Capture loop variables for the closure.
		b, in, gn := builder, input, gName
		p.Builders[sName] = func(self string, neighbors []string, _ sim.Input) sim.Device {
			return &renamedDevice{inner: b(gn, gNeighbors, in), ren: ren}
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
