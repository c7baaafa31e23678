// Package sim is the synchronous message-passing execution model on which
// the FLM85 reproduction runs. It makes the paper's abstract notions
// concrete:
//
//   - a Device is a deterministic round-based automaton that reads and
//     writes one buffer slot per neighbor, in neighbor-name order;
//   - a node behavior is the sequence of device state snapshots;
//   - an edge behavior is the sequence of payloads carried by a directed
//     edge, one per round;
//   - a system behavior (a Run) is the tuple of all node and edge
//     behaviors.
//
// The model satisfies the paper's Locality axiom by construction (a
// device's next state depends only on its own state and what arrives on
// its own edges), and CheckLocality verifies it on concrete runs. It
// also satisfies the Bounded-Delay Locality axiom with delta equal to
// one round, because a message sent in round r is delivered in round r+1.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/runcache"
)

// Payload is the content of one message. The empty payload means "no
// message this round"; edge behaviors are sequences of payloads, so two
// edge behaviors are equal exactly when the same bytes flowed in the same
// rounds.
type Payload string

// None is the absent message.
const None Payload = ""

// Input is a node's problem input, canonically encoded (see EncodeBool
// and EncodeReal in codec.go).
type Input string

// Decision is a device's irrevocable output value, canonically encoded.
type Decision struct {
	Value string // chosen value; "" while undecided
	Round int    // round at which the choice was made
}

// Device is a deterministic consensus device. The executor drives it
// with:
//
//	Init(self, neighbors, input)        // once, before round 0
//	for r := 0; r < rounds; r++ {
//	    Step(r, in, out)                // in: round r-1 sends
//	}
//
// neighbors is sorted by name and read-only (a device may keep it), and
// slot i of in and out belongs to neighbors[i]: in[i] is what
// neighbors[i] sent last round (None for silence) and the device sends
// out[i] to it (None sends nothing). Both slices are owned by the
// executor, which clears out to None before each call and reuses both
// buffers between rounds: a device reads and writes them during Step and
// retains neither, nor any sub-slice of them. A device can address
// nothing but its own edges.
//
// Snapshot must canonically encode the full device state so that two
// devices are behaving identically iff their snapshot sequences are
// equal. Output reports the device's choice once made; it must never
// change after it is first reported (the executor enforces this).
//
// Devices must be deterministic: identical Init arguments and in
// sequences must yield identical sends, snapshots, and outputs. This
// is the paper's base model; seeded pseudo-randomness is permitted
// because the seed is part of the device, making the composite
// deterministic (the Section 3 nondeterminism remark is exercised this
// way).
type Device interface {
	Init(self string, neighbors []string, input Input)
	Step(round int, in, out []Payload)
	Snapshot() string
	Output() (Decision, bool)
}

// Slot returns the slot of name in a sorted neighbor list — the index of
// its entries in Step's in and out — or -1 when name is not a neighbor.
func Slot(neighbors []string, name string) int {
	i := sort.SearchStrings(neighbors, name)
	if i < len(neighbors) && neighbors[i] == name {
		return i
	}
	return -1
}

// Builder constructs a fresh device instance for a named node. Installing
// a protocol on a covering graph instantiates the same builder at every
// node of the fiber, which is exactly the paper's "assign devices to
// nodes of S according to their corresponding node in G".
type Builder func(self string, neighbors []string, input Input) Device

// Protocol assigns a device builder and an input to every node of a
// graph.
type Protocol struct {
	Builders map[string]Builder
	Inputs   map[string]Input
}

// System is a communication graph with a device and input assigned to
// every node — the paper's "system".
type System struct {
	G       *graph.Graph
	Devices []Device // indexed by node
	Inputs  []Input  // indexed by node
}

// NewSystem instantiates a protocol on a graph. Every node must have a
// builder and an input.
func NewSystem(g *graph.Graph, p Protocol) (*System, error) {
	sys := &System{
		G:       g,
		Devices: make([]Device, g.N()),
		Inputs:  make([]Input, g.N()),
	}
	ports := g.Ports()
	for u := 0; u < g.N(); u++ {
		name := g.Name(u)
		b, ok := p.Builders[name]
		if !ok {
			return nil, fmt.Errorf("sim: no device builder for node %q", name)
		}
		input, ok := p.Inputs[name]
		if !ok {
			return nil, fmt.Errorf("sim: no input for node %q", name)
		}
		sys.Inputs[u] = input
		nbs := make([]string, len(ports.Nbrs[u]))
		for i, v := range ports.Nbrs[u] {
			nbs[i] = g.Name(v)
		}
		dev, fault := safeBuild(b, name, nbs, input)
		if fault != nil {
			return nil, fault
		}
		sys.Devices[u] = dev
	}
	return sys, nil
}

// Run is a recorded system behavior: every node behavior (snapshot
// sequence and decision) and every edge behavior (payload per round).
//
// A Run is immutable once ExecuteCtx returns it. The run cache depends
// on this: cached runs are shared between callers (including across
// goroutines under parallel sweeps), never copied, so consumers must
// treat every field — Snapshots, Edges and the payload slices inside —
// as read-only.
type Run struct {
	G         *graph.Graph
	Rounds    int
	Inputs    []Input
	Snapshots [][]string  // Snapshots[u][r] = state of node u after round r
	Edges     [][]Payload // Edges[id][r] = payload carried in round r by directed edge id (see graph.Ports)
	Decisions []Decision  // zero Value when the node never decided

	fp string // cache key of the producing execution; "" when not content-addressed
}

// Fingerprint returns the content-addressed key under which this run was
// cached (or would have been), or "" when the producing system was not
// fingerprintable or the run cache was disabled. Runs with equal
// fingerprints are byte-identical.
func (r *Run) Fingerprint() string { return r.fp }

// ExecuteOpts selects what ExecuteWith records and under which delivery
// model the system runs. The zero value is the fast mode: only decisions
// are tracked, synchronous delivery. Axiom verification (CheckLocality
// and every Prove* chain) requires full recording; decision-only sweeps
// (attack panels, tightness censuses) use the fast mode.
type ExecuteOpts struct {
	RecordSnapshots bool // populate Run.Snapshots (one string per node per round)
	RecordEdges     bool // populate Run.Edges (payload sequences per directed edge)

	// Delays switches the execution into the adversarial asynchronous
	// delivery mode (see async.go): matching messages are held back
	// extra rounds, deliveries past the horizon are lost. nil (or an
	// empty schedule) is the synchronous model. Edge behaviors still
	// record payloads at their send round — the wire history — so async
	// runs must not be fed to CheckLocality or the splice engine.
	Delays *DelaySchedule
}

// FullRecording records everything — the behavior of Execute, and the
// mode required wherever runs feed the Locality/Fault axiom machinery.
var FullRecording = ExecuteOpts{RecordSnapshots: true, RecordEdges: true}

// Execute runs the system for the given number of rounds and records the
// complete behavior. Messages sent in round r are delivered in round r+1;
// nothing arrives in round 0.
//
// On an execution error (a changed decision or a device fault),
// Execute finishes recording the failing round for every node and returns
// the partial Run alongside the error, so the state that produced the
// error is diagnosable. The partial Run must not be treated as a system
// behavior — the error is authoritative.
func Execute(sys *System, rounds int) (*Run, error) {
	return ExecuteWith(sys, rounds, FullRecording)
}

// ExecuteWith is Execute with explicit recording options. Runs produced
// in fast mode carry nil Snapshots/Edges; only Inputs and Decisions are
// usable. Fast and full runs of the same system are otherwise identical:
// recording never feeds back into device execution.
func ExecuteWith(sys *System, rounds int, opts ExecuteOpts) (*Run, error) {
	return ExecuteCtx(context.Background(), sys, rounds, opts)
}

// ExecuteCtx is ExecuteWith with a cancellation/deadline path: the
// context is checked at every round boundary, and a done context stops
// the execution with a typed *ExecError wrapping ctx.Err() (plus the
// partial run recorded so far). The round count remains the execution's
// hard budget; the context bounds wall time across rounds. A device that
// loops forever *inside a single Step* cannot be interrupted here — Go
// cannot preempt a goroutine — so wall-clock watchdogs live one layer up,
// in the sweep engine's Isolated pool.
//
// Device panics in any entry point (Step, Snapshot, Output) are caught
// and returned as a *DeviceFault error attributing the panic to its node,
// round, and operation; the rest of the failing round still executes (and
// is recorded in full mode) so the partial run is diagnosable.
//
// When every device is fingerprintable (see Fingerprinter) and the run
// cache is enabled, the execution is memoized: a repeat of the same
// (graph, devices, inputs, rounds, opts) returns the previously recorded
// Run without stepping any device, and concurrent repeats share a single
// in-flight execution. When a tracer is installed (internal/obs), each
// execution is additionally wrapped in a "sim.execute" span recording
// the system shape, how the cache served it, and the run's traffic
// totals — see trace.go. Two consequences follow. First, the system must
// be freshly built — NewSystem-fresh devices that have never stepped —
// since the key cannot see accumulated device state; every call site in
// the engine already works this way (re-executing a stepped system was
// never meaningful). Second, cancellable contexts bypass the cache, so
// one caller's cancellation can never be replayed to another.
func ExecuteCtx(ctx context.Context, sys *System, rounds int, opts ExecuteOpts) (*Run, error) {
	if obs.Enabled() {
		return executeCtxTraced(ctx, sys, rounds, opts)
	}
	run, _, err := executeCached(ctx, sys, rounds, opts)
	return run, err
}

// executeCached is ExecuteCtx's one cache dispatch: it serves the
// execution from the run cache when the context cannot be cancelled, the
// cache is enabled and every device is fingerprintable, and runs it
// directly otherwise. served names how: a runcache.How ("miss", "hit",
// "wait", "disk"), "bypass" (cancellable context or cache disabled) or
// "uncacheable" (some device opted out of fingerprinting).
func executeCached(ctx context.Context, sys *System, rounds int, opts ExecuteOpts) (run *Run, served string, err error) {
	if ctx.Done() != nil || !runcache.Enabled() {
		run, err = executeCore(ctx, sys, rounds, opts, "")
		return run, "bypass", err
	}
	key, ok := systemKey(sys, rounds, opts)
	if !ok {
		run, err = executeCore(ctx, sys, rounds, opts, "")
		return run, "uncacheable", err
	}
	v, how, err := runCache.Do(key, func() (any, error) {
		return executeCore(ctx, sys, rounds, opts, key)
	})
	run, _ = v.(*Run)
	return run, how.String(), err
}

// executeCore is the actual executor; key (possibly empty) becomes the
// run's fingerprint.
func executeCore(ctx context.Context, sys *System, rounds int, opts ExecuteOpts, key string) (*Run, error) {
	g := sys.G
	n := g.N()
	run := &Run{
		G:         g,
		Rounds:    rounds,
		Inputs:    append([]Input(nil), sys.Inputs...),
		Decisions: make([]Decision, n),
		fp:        key,
	}
	if opts.RecordSnapshots {
		run.Snapshots = make([][]string, n)
		snapBuf := make([]string, n*rounds)
		for u := 0; u < n; u++ {
			run.Snapshots[u] = snapBuf[u*rounds : (u+1)*rounds : (u+1)*rounds]
		}
	}
	if opts.RecordEdges {
		ne := 2 * g.NumEdges()
		run.Edges = make([][]Payload, ne)
		edgeBuf := make([]Payload, ne*rounds)
		for e := range run.Edges {
			run.Edges[e] = edgeBuf[e*rounds : (e+1)*rounds : (e+1)*rounds]
		}
	}

	// Mailboxes and outboxes live in flat buffers laid out by directed-edge
	// id: node u's slots are ids [base[u], base[u]+deg(u)), its out-edges
	// in slot order. Slot i of u's mailbox holds what neighbor i sent on
	// the reverse of edge base[u]+i, so a send on edge id lands at
	// mailbox index rev[id].
	ports := g.Ports()
	base, rev := ports.Out, ports.Rev
	totalDeg := len(rev)

	// A ring of reusable mailbox buffers, one per delivery round.
	// Synchronous delivery needs a window of 2 (the classic current/next
	// double buffer); a delay schedule widens the window to maxExtra+2 so
	// a message sent in round r with extra delay e <= maxExtra lands in
	// buffer (r+1+e) mod window — always a future buffer distinct from
	// the one being read, and read exactly once, at round r+1+e. Buffers
	// are wiped right after their read round, so one observed at round d
	// holds exactly the sends targeted at d.
	delays, maxExtra := opts.Delays.compile(g, ports, rounds)
	window := maxExtra + 2
	// Async message accounting (sim.async.* counters): only ever non-nil
	// for a traced delay-schedule execution, so the synchronous hot path
	// pays one nil check per dispatch and nothing else.
	var acct *asyncAcct
	if delays != nil && obs.Enabled() {
		acct = &asyncAcct{}
		defer acct.flush()
	}
	ring := make([]Payload, window*totalDeg)
	outBuf := make([]Payload, totalDeg)

	// Per-execution intern tables for the retained strings of a full
	// recording. Devices re-emit equal payloads and snapshots round after
	// round (a decided device's state stops changing; broadcasts repeat);
	// interning makes the recorded Run retain one canonical copy of each
	// distinct string so the duplicates become garbage within the round
	// that produced them instead of living as long as the run does —
	// which, with the run cache, is the life of the process. Fast mode
	// retains neither, and uncacheable runs (key == "") die with their
	// caller, so only cached full recordings pay the table's hash costs —
	// for large payloads (signature chains) those are O(bytes) per
	// delivery and would otherwise tax runs that gain nothing from them.
	var internSnap map[string]string
	var internPay map[Payload]Payload
	if key != "" {
		if opts.RecordSnapshots {
			internSnap = make(map[string]string, 2*n)
		}
		if opts.RecordEdges {
			internPay = make(map[Payload]Payload, 4*n)
		}
	}

	for r := 0; r < rounds; r++ {
		if cancelErr := cancelCheck(ctx, r); cancelErr != nil {
			return run, cancelErr
		}
		var roundErr error
		cur := ring[(r%window)*totalDeg : (r%window+1)*totalDeg]
		for u := 0; u < n; u++ {
			lo, hi := base[u], base[u]+len(ports.Nbrs[u])
			in, out := cur[lo:hi:hi], outBuf[lo:hi:hi]
			if acct != nil {
				for _, p := range in {
					if p != None {
						acct.delivered++
					}
				}
			}
			clear(out)
			if fault := safeStep(sys.Devices[u], g.Name(u), r, in, out); fault != nil {
				// A panicking device sends nothing in the failing round.
				if roundErr == nil {
					roundErr = fault
				}
			} else {
				for i, payload := range out {
					if payload == None {
						continue
					}
					e := lo + i
					if run.Edges != nil {
						if internPay != nil {
							if c, ok := internPay[payload]; ok {
								payload = c
							} else {
								internPay[payload] = payload
							}
						}
						run.Edges[e][r] = payload
					}
					deliver := r + 1
					if delays != nil {
						extra := delays[e*rounds+r]
						deliver += extra
						if acct != nil {
							acct.sent++
							if extra > 0 {
								acct.delayed++
							}
							switch {
							case deliver >= rounds:
								acct.lost++
							case ring[(deliver%window)*totalDeg+rev[e]] != None:
								// This send lands on a slot still holding an
								// undelivered earlier message on the same
								// edge: the overwritten one is the casualty.
								acct.collided++
							}
						}
					}
					if deliver < rounds {
						ring[(deliver%window)*totalDeg+rev[e]] = payload
					}
				}
			}
			if opts.RecordSnapshots {
				snap, snapFault := safeSnapshot(sys.Devices[u], g.Name(u), r)
				if snapFault != nil && roundErr == nil {
					roundErr = snapFault
				}
				if internSnap != nil {
					if c, ok := internSnap[snap]; ok {
						snap = c
					} else {
						internSnap[snap] = snap
					}
				}
				run.Snapshots[u][r] = snap
			}
			d, ok, outFault := safeOutput(sys.Devices[u], g.Name(u), r)
			if outFault != nil && roundErr == nil {
				roundErr = outFault
			}
			if ok {
				if run.Decisions[u].Value != "" && run.Decisions[u].Value != d.Value {
					if roundErr == nil {
						roundErr = execRuleError(g.Name(u), r,
							"sim: node %s changed its decision from %q to %q",
							g.Name(u), run.Decisions[u].Value, d.Value)
					}
				} else if run.Decisions[u].Value == "" {
					run.Decisions[u] = Decision{Value: d.Value, Round: r}
				}
			}
		}
		if roundErr != nil {
			// Every node of the failing round has stepped and (in full
			// mode) been snapshotted; return the diagnosable partial run.
			return run, roundErr
		}
		// The buffer just read becomes the one for round r+window; wipe
		// it so stale payloads never resurface.
		clear(cur)
	}
	return run, nil
}

// MustExecute is Execute for known-good systems; it panics on error. The
// panic value is always a *ExecError carrying node/round context, so a
// recovery layer (e.g. the sweep engine's Isolated pool) can tell an
// engine-reported failure apart from an arbitrary device panic: device
// faults remain reachable through errors.As as a *DeviceFault cause.
func MustExecute(sys *System, rounds int) *Run {
	run, err := Execute(sys, rounds)
	if err != nil {
		var ee *ExecError
		if errors.As(err, &ee) {
			panic(ee)
		}
		var df *DeviceFault
		if errors.As(err, &df) {
			panic(&ExecError{Node: df.Node, Round: df.Round, Err: df})
		}
		panic(&ExecError{Round: -1, Err: err})
	}
	return run
}

// EdgeBehavior returns the payload sequence carried by the directed edge,
// or an error if the edge does not exist in the run's graph.
func (r *Run) EdgeBehavior(from, to string) ([]Payload, error) {
	id, ok := r.G.EdgeID(from, to)
	if !ok {
		return nil, fmt.Errorf("sim: run has no edge %s->%s", from, to)
	}
	if r.Edges == nil {
		return nil, fmt.Errorf("sim: run recorded no edges (fast mode)")
	}
	return r.Edges[id], nil
}

// DecisionOf returns the decision of the named node.
func (r *Run) DecisionOf(name string) (Decision, error) {
	u, ok := r.G.Index(name)
	if !ok {
		return Decision{}, fmt.Errorf("sim: run has no node %q", name)
	}
	return r.Decisions[u], nil
}

// SnapshotsOf returns the snapshot sequence of the named node.
func (r *Run) SnapshotsOf(name string) ([]string, error) {
	u, ok := r.G.Index(name)
	if !ok {
		return nil, fmt.Errorf("sim: run has no node %q", name)
	}
	if r.Snapshots == nil {
		return nil, fmt.Errorf("sim: run recorded no snapshots (fast mode)")
	}
	return r.Snapshots[u], nil
}

// String summarizes decisions, for debugging and reports.
func (r *Run) String() string {
	var b strings.Builder
	for u := 0; u < r.G.N(); u++ {
		d := r.Decisions[u]
		if d.Value == "" {
			fmt.Fprintf(&b, "%s: undecided\n", r.G.Name(u))
		} else {
			fmt.Fprintf(&b, "%s: %s @r%d\n", r.G.Name(u), d.Value, d.Round)
		}
	}
	return b.String()
}
