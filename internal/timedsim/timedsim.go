// Package timedsim is the continuous-time execution model for the FLM85
// clock synchronization results (Section 7). Nodes carry hardware clocks
// (exact rational affine functions of real time) and act only at hardware
// ticks — real times t with D(t) = kΔ — so every aspect of timing derives
// from hardware clock states. Messages are delivered instantly but are
// consumable only at receiver ticks strictly later than the send time.
//
// Because all scheduling is exact rational arithmetic and all behavior is
// clock-driven, the model satisfies the paper's Scaling axiom exactly:
// composing every hardware clock with an increasing affine h reparametrizes
// all event times by h⁻¹ and changes no tick's observable state. The
// Locality and Fault axioms hold as in the synchronous model: state
// updates depend only on local inbox contents, and scripted senders can
// replay any recorded edge behavior.
package timedsim

import (
	"fmt"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/obs"
)

// Message is a delivered payload with its exact send time. From is the
// receiver's slot of the sender (see Device).
type Message struct {
	From    int
	Payload string
	SentAt  clockfn.Q
}

// Device is a clock-synchronization device: it acts at hardware ticks and
// exposes a logical clock that is a function of its state and the current
// hardware reading.
//
// Init is called once, before the first tick, with the node's name and
// its neighbors sorted by name; the list is read-only and a device may
// keep it. Slot i belongs to neighbors[i], as in the synchronous model
// (see graph.Ports).
type Device interface {
	Init(self string, neighbors []string)
	// Tick is invoked at the device's k-th hardware tick with the exact
	// hardware reading and the messages that became consumable since the
	// previous tick (sorted by send time, then sender slot). The device
	// sends out[i] to neighbors[i]; "" sends nothing. Both slices are
	// owned by the executor, which clears out before each tick and
	// reuses both buffers: a device reads and writes them during Tick
	// and retains neither.
	Tick(k int, hw clockfn.Q, inbox []Message, out []string)
	// Logical returns the logical clock value for a given hardware
	// reading, using the device's current correction state.
	Logical(hw clockfn.Q) float64
	// Snapshot canonically encodes the device state.
	Snapshot() string
}

// ScriptedSend is one replayed transmission of a faulty node to the
// neighbor in its slot To.
type ScriptedSend struct {
	At      clockfn.Q
	To      int
	Payload string
}

// Node configures one node: either a Device (correct) or a Script
// (faulty replay, the Fault axiom device for the timed model). Every node
// has a hardware clock.
type Node struct {
	Device Device
	Script []ScriptedSend
	Clock  clockfn.RatLinear
}

// System is a communication graph with timed nodes and a tick spacing
// Delta (in hardware-clock units). RealDelay, when positive, imposes a
// minimum REAL-TIME transmission delay on every message. The paper's
// Scaling axiom then fails — real-time delays do not scale with the
// hardware clocks — which is exactly the weakening FLM85 names as
// making clock synchronization potentially possible on inadequate
// graphs; TestScalingAxiomBrokenByRealDelay demonstrates the failure.
type System struct {
	G         *graph.Graph
	Nodes     []Node
	Delta     clockfn.Q
	RealDelay clockfn.Q
}

// TickRecord is one observed tick of one node.
type TickRecord struct {
	Index    int
	Time     clockfn.Q // real time
	HW       clockfn.Q // hardware reading (= Index * Delta)
	Snapshot string
	Logical  float64
}

// SendRecord is one observed transmission on a directed edge.
type SendRecord struct {
	At      clockfn.Q
	Payload string
}

// Run is a recorded timed system behavior.
type Run struct {
	G            *graph.Graph
	Until        clockfn.Q
	Ticks        [][]TickRecord
	Sends        [][]SendRecord // Sends[id]: the sends on directed edge id (see graph.Ports)
	FinalLogical []float64      // logical clocks evaluated at time Until
	FinalHW      []clockfn.Q    // hardware readings at time Until
}

// Execute runs the system from real time 0 through real time until
// (inclusive) and records the behavior.
func Execute(sys *System, until clockfn.Q) (*Run, error) {
	g := sys.G
	if len(sys.Nodes) != g.N() {
		return nil, fmt.Errorf("timedsim: %d nodes configured for %d-node graph", len(sys.Nodes), g.N())
	}
	if sys.Delta.Sign() <= 0 {
		return nil, fmt.Errorf("timedsim: tick spacing must be positive")
	}
	ports := g.Ports()
	run := &Run{
		G:            g,
		Until:        until,
		Ticks:        make([][]TickRecord, g.N()),
		Sends:        make([][]SendRecord, len(ports.Rev)),
		FinalLogical: make([]float64, g.N()),
		FinalHW:      make([]clockfn.Q, g.N()),
	}
	pending := make([][]Message, g.N())
	next := make([]clockfn.Q, g.N()) // real time of each device node's next tick
	nextTick := make([]int64, g.N()) // next tick index of each device node
	scriptPos := make([]int, g.N())
	var inboxBuf []Message
	maxDeg := 0
	for _, nbs := range ports.Nbrs {
		maxDeg = max(maxDeg, len(nbs))
	}
	outBuf := make([]string, maxDeg)
	// sendCap[id] bounds the sends on directed edge id: the sender's
	// tick count for a device, its scripted sends on the edge for a
	// script. An edge's records are sized to it at the first send, so
	// the run's records never regrow.
	sendCap := make([]int, len(ports.Rev))
	// deliver records a send on u's edge in slot i and queues it at the
	// receiver, where it arrives in the receiver's slot of u.
	deliver := func(u, i int, payload string, at clockfn.Q) {
		id := ports.Out[u] + i
		v := ports.Nbrs[u][i]
		pending[v] = append(pending[v], Message{From: ports.Rev[id] - ports.Out[v], Payload: payload, SentAt: at})
		if run.Sends[id] == nil {
			run.Sends[id] = make([]SendRecord, 0, sendCap[id])
		}
		run.Sends[id] = append(run.Sends[id], SendRecord{At: at, Payload: payload})
	}
	for u := 0; u < g.N(); u++ {
		node := sys.Nodes[u]
		if node.Clock.Rate.Sign() <= 0 {
			return nil, fmt.Errorf("timedsim: node %s lacks an increasing hardware clock", g.Name(u))
		}
		if node.Device != nil {
			nbs := make([]string, len(ports.Nbrs[u]))
			for i, v := range ports.Nbrs[u] {
				nbs[i] = g.Name(v)
			}
			node.Device.Init(g.Name(u), nbs)
			// Devices begin at hardware clock 0: tick k happens when the
			// hardware reads k*Delta, wherever that falls in (possibly
			// negative) real time. Anchoring to hardware rather than
			// real time is what makes the Scaling axiom hold exactly —
			// real time is unobservable in this model.
			next[u] = node.Clock.Inv(clockfn.Q{})
			ticks := tickCount(node.Clock.At(until), sys.Delta)
			run.Ticks[u] = make([]TickRecord, 0, ticks)
			for i := range ports.Nbrs[u] {
				sendCap[ports.Out[u]+i] = ticks
			}
		} else {
			// Scripts must be sorted by time for deterministic replay.
			script := node.Script
			for i, sc := range script {
				if sc.To < 0 || sc.To >= len(ports.Nbrs[u]) {
					return nil, fmt.Errorf("timedsim: script for node %s sends to slot %d of %d", g.Name(u), sc.To, len(ports.Nbrs[u]))
				}
				if i > 0 && sc.At.Cmp(script[i-1].At) < 0 {
					return nil, fmt.Errorf("timedsim: script for node %s not sorted by time", g.Name(u))
				}
				if sc.At.Cmp(until) <= 0 {
					sendCap[ports.Out[u]+sc.To]++
				}
			}
		}
	}

	realDelay := sys.RealDelay.Sign() > 0
	for {
		// Find the earliest event: a device tick or a scripted send.
		bestNode, bestIsTick := -1, false
		var best clockfn.Q
		for u := 0; u < g.N(); u++ {
			node := &sys.Nodes[u]
			var t clockfn.Q
			if node.Device != nil {
				t = next[u]
			} else if scriptPos[u] < len(node.Script) {
				t = node.Script[scriptPos[u]].At
			} else {
				continue
			}
			if t.Cmp(until) > 0 {
				continue
			}
			if bestNode < 0 || t.Cmp(best) < 0 {
				best, bestNode, bestIsTick = t, u, node.Device != nil
			}
		}
		if bestNode < 0 {
			break
		}
		u := bestNode
		node := sys.Nodes[u]
		if !bestIsTick {
			sc := node.Script[scriptPos[u]]
			scriptPos[u]++
			deliver(u, sc.To, sc.Payload, sc.At)
			continue
		}
		k := nextTick[u]
		hw := clockfn.NewQ(k, 1).Mul(sys.Delta)
		now := best
		// Split the consumable messages off pending[u] in place and sort
		// them into the reused inbox buffer. Pending append order is
		// non-decreasing in send time, so the stable insertion sort is
		// near-linear and byte-identical to the specified (send time,
		// sender, payload) stable order.
		cut := now
		if realDelay {
			cut = now.Sub(sys.RealDelay)
		}
		inbox := inboxBuf[:0]
		rest := pending[u][:0]
		for _, m := range pending[u] {
			if m.SentAt.Cmp(cut) < 0 {
				inbox = append(inbox, m)
			} else {
				rest = append(rest, m)
			}
		}
		pending[u] = rest
		for i := 1; i < len(inbox); i++ {
			for j := i; j > 0 && msgLess(&inbox[j], &inbox[j-1]); j-- {
				inbox[j], inbox[j-1] = inbox[j-1], inbox[j]
			}
		}
		inboxBuf = inbox[:0]
		out := outBuf[:len(ports.Nbrs[u])]
		clear(out)
		node.Device.Tick(int(k), hw, inbox, out)
		for i, payload := range out {
			if payload != "" {
				deliver(u, i, payload, now)
			}
		}
		run.Ticks[u] = append(run.Ticks[u], TickRecord{
			Index:    int(k),
			Time:     now,
			HW:       hw,
			Snapshot: node.Device.Snapshot(),
			Logical:  node.Device.Logical(hw),
		})
		nextTick[u] = k + 1
		next[u] = node.Clock.Inv(clockfn.NewQ(k+1, 1).Mul(sys.Delta))
	}

	for u := 0; u < g.N(); u++ {
		node := sys.Nodes[u]
		run.FinalHW[u] = node.Clock.At(until)
		if node.Device != nil {
			run.FinalLogical[u] = node.Device.Logical(run.FinalHW[u])
		}
	}
	if obs.Enabled() {
		countRun(run)
	}
	return run, nil
}

// tickCount returns the number of ticks k >= 0 with k*delta <= hw, or
// one more: the count is only a capacity, so float rounding may
// overshoot it by one but never undershoots it.
func tickCount(hw, delta clockfn.Q) int {
	if hw.Sign() < 0 {
		return 0
	}
	return int(min(hw.Quo(delta).Float64(), 1<<20)) + 1
}

// msgLess is the deterministic inbox order: send time, then sender slot
// (that is, sender name), then payload.
func msgLess(a, b *Message) bool {
	if c := a.SentAt.Cmp(b.SentAt); c != 0 {
		return c < 0
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Payload < b.Payload
}

// TicksOf returns the tick records of the named node.
func (r *Run) TicksOf(name string) ([]TickRecord, error) {
	u, ok := r.G.Index(name)
	if !ok {
		return nil, fmt.Errorf("timedsim: run has no node %q", name)
	}
	return r.Ticks[u], nil
}

// LogicalOf returns the named node's logical clock value at time Until.
func (r *Run) LogicalOf(name string) (float64, error) {
	u, ok := r.G.Index(name)
	if !ok {
		return 0, fmt.Errorf("timedsim: run has no node %q", name)
	}
	return r.FinalLogical[u], nil
}
