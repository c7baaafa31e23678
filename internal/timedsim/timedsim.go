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
	"math/big"

	"flm/internal/clockfn"
	"flm/internal/graph"
)

// Message is a delivered payload with its exact send time. From is the
// receiver's slot of the sender (see Device). SentAt may be shared
// between every message of one send event and the corresponding records
// of the Run; it must be treated as immutable.
type Message struct {
	From    int
	Payload string
	SentAt  *big.Rat
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
	Tick(k int, hw *big.Rat, inbox []Message, out []string)
	// Logical returns the logical clock value for a given hardware
	// reading, using the device's current correction state.
	Logical(hw *big.Rat) float64
	// Snapshot canonically encodes the device state.
	Snapshot() string
}

// ScriptedSend is one replayed transmission of a faulty node to the
// neighbor in its slot To.
type ScriptedSend struct {
	At      *big.Rat
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
// Delta (in hardware-clock units). RealDelay, when non-nil and positive,
// imposes a minimum REAL-TIME transmission delay on every message. The
// paper's Scaling axiom then fails — real-time delays do not scale with
// the hardware clocks — which is exactly the weakening FLM85 names as
// making clock synchronization potentially possible on inadequate
// graphs; TestScalingAxiomBrokenByRealDelay demonstrates the failure.
type System struct {
	G         *graph.Graph
	Nodes     []Node
	Delta     *big.Rat
	RealDelay *big.Rat
}

// TickRecord is one observed tick of one node.
type TickRecord struct {
	Index    int
	Time     *big.Rat // real time
	HW       *big.Rat // hardware reading (= Index * Delta)
	Snapshot string
	Logical  float64
}

// SendRecord is one observed transmission on a directed edge.
type SendRecord struct {
	At      *big.Rat
	Payload string
}

// Run is a recorded timed system behavior. Its rationals live in a
// per-execution arena and may be aliased between records of the same
// event (a tick's Time is the SentAt of every message it sent); they
// must be treated as immutable.
type Run struct {
	G            *graph.Graph
	Until        *big.Rat
	Ticks        [][]TickRecord
	Sends        [][]SendRecord // Sends[id]: the sends on directed edge id (see graph.Ports)
	FinalLogical []float64      // logical clocks evaluated at time Until
	FinalHW      []*big.Rat     // hardware readings at time Until
}

// tickSched is one device node's tick schedule as an exact integer
// fraction: with tick spacing Δ = dn/dd and hardware clock
// (rn/rd)·t + (on/od), tick k happens at real time
// (k·dn·od·rd − on·dd·rd) / (dd·od·rn). The denominator is positive and
// fixed, so advancing to the next tick is a single in-place big.Int add
// and the event scan compares fractions without allocating.
type tickSched struct {
	num, den, step big.Int
}

// Execute runs the system from real time 0 through real time until
// (inclusive) and records the behavior.
func Execute(sys *System, until *big.Rat) (*Run, error) {
	g := sys.G
	if len(sys.Nodes) != g.N() {
		return nil, fmt.Errorf("timedsim: %d nodes configured for %d-node graph", len(sys.Nodes), g.N())
	}
	if sys.Delta == nil || sys.Delta.Sign() <= 0 {
		return nil, fmt.Errorf("timedsim: tick spacing must be positive")
	}
	ports := g.Ports()
	run := &Run{
		G:            g,
		Until:        new(big.Rat).Set(until),
		Ticks:        make([][]TickRecord, g.N()),
		Sends:        make([][]SendRecord, len(ports.Rev)),
		FinalLogical: make([]float64, g.N()),
		FinalHW:      make([]*big.Rat, g.N()),
	}
	var (
		scr   clockfn.RatScratch
		arena ratArena
	)
	// Local copies of the shared parameters before any denominator is
	// read: accessing a big.Rat's denominator materializes it in place,
	// and the caller's Delta/clock rationals may be shared with systems
	// executing concurrently (a prepared grid sweep).
	delta := new(big.Rat).Set(sys.Delta)
	dn, dd := delta.Num(), delta.Denom()
	untilN, untilD := run.Until.Num(), run.Until.Denom()

	pending := make([][]Message, g.N())
	sched := make([]tickSched, g.N())
	nextTick := make([]int64, g.N()) // next tick index for device nodes; -1 for scripts
	scriptPos := make([]int, g.N())
	var inboxBuf []Message
	maxDeg := 0
	for _, nbs := range ports.Nbrs {
		maxDeg = max(maxDeg, len(nbs))
	}
	outBuf := make([]string, maxDeg)
	// deliver records a send on u's edge in slot i and queues it at the
	// receiver, where it arrives in the receiver's slot of u.
	deliver := func(u, i int, payload string, at *big.Rat) {
		id := ports.Out[u] + i
		v := ports.Nbrs[u][i]
		pending[v] = append(pending[v], Message{From: ports.Rev[id] - ports.Out[v], Payload: payload, SentAt: at})
		run.Sends[id] = append(run.Sends[id], SendRecord{At: at, Payload: payload})
	}
	for u := 0; u < g.N(); u++ {
		node := sys.Nodes[u]
		if node.Clock.Rate == nil || node.Clock.Rate.Sign() <= 0 {
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
			nextTick[u] = 0
			var rate, off big.Rat
			rate.Set(node.Clock.Rate)
			off.Set(node.Clock.Off)
			rn, rd := rate.Num(), rate.Denom()
			on, od := off.Num(), off.Denom()
			s := &sched[u]
			s.den.Mul(dd, od)
			s.den.Mul(&s.den, rn)
			s.step.Mul(dn, od)
			s.step.Mul(&s.step, rd)
			s.num.Mul(on, dd)
			s.num.Mul(&s.num, rd)
			s.num.Neg(&s.num)
		} else {
			nextTick[u] = -1
			// Scripts must be sorted by time for deterministic replay.
			script := node.Script
			for i, sc := range script {
				if sc.To < 0 || sc.To >= len(ports.Nbrs[u]) {
					return nil, fmt.Errorf("timedsim: script for node %s sends to slot %d of %d", g.Name(u), sc.To, len(ports.Nbrs[u]))
				}
				if i > 0 && scr.Cmp(sc.At, script[i-1].At) < 0 {
					return nil, fmt.Errorf("timedsim: script for node %s not sorted by time", g.Name(u))
				}
			}
		}
	}

	var lim *big.Rat // scratch for the real-delay consumability cutoff
	if sys.RealDelay != nil && sys.RealDelay.Sign() > 0 {
		lim = new(big.Rat)
	}
	for {
		// Find the earliest event: a device tick or a scripted send. The
		// best candidate is tracked as a fraction bestN/bestD (bestD > 0)
		// pointing into a schedule or a script time, so the whole scan is
		// scratch comparisons.
		bestNode, bestIsTick := -1, false
		var bestN, bestD *big.Int
		for u := 0; u < g.N(); u++ {
			node := &sys.Nodes[u]
			if node.Device != nil {
				s := &sched[u]
				if scr.CmpFrac(&s.num, &s.den, untilN, untilD) > 0 {
					continue
				}
				if bestNode < 0 || scr.CmpFrac(&s.num, &s.den, bestN, bestD) < 0 {
					bestN, bestD, bestNode, bestIsTick = &s.num, &s.den, u, true
				}
			} else if scriptPos[u] < len(node.Script) {
				t := node.Script[scriptPos[u]].At
				if scr.CmpFracRat(untilN, untilD, t) < 0 {
					continue
				}
				if bestNode < 0 || scr.CmpFrac(t.Num(), t.Denom(), bestN, bestD) < 0 {
					bestN, bestD, bestNode, bestIsTick = t.Num(), t.Denom(), u, false
				}
			}
		}
		if bestNode < 0 {
			break
		}
		u := bestNode
		node := sys.Nodes[u]
		if bestIsTick {
			k := nextTick[u]
			s := &sched[u]
			hw := arena.next()
			hw.SetInt64(k)
			hw.Mul(hw, delta)
			now := arena.next().SetFrac(&s.num, &s.den)
			// Split the consumable messages off pending[u] in place and
			// sort them into the reused inbox buffer. Pending append
			// order is non-decreasing in send time, so the stable
			// insertion sort is near-linear and byte-identical to the
			// specified (send time, sender, payload) stable order.
			cutN, cutD := now.Num(), now.Denom()
			if lim != nil {
				lim.Sub(now, sys.RealDelay)
				cutN, cutD = lim.Num(), lim.Denom()
			}
			inbox := inboxBuf[:0]
			rest := pending[u][:0]
			for _, m := range pending[u] {
				if scr.CmpFracRat(cutN, cutD, m.SentAt) > 0 {
					inbox = append(inbox, m)
				} else {
					rest = append(rest, m)
				}
			}
			pending[u] = rest
			for i := 1; i < len(inbox); i++ {
				for j := i; j > 0 && msgLess(&scr, &inbox[j], &inbox[j-1]); j-- {
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
			s.num.Add(&s.num, &s.step)
		} else {
			sc := node.Script[scriptPos[u]]
			scriptPos[u]++
			deliver(u, sc.To, sc.Payload, arena.next().Set(sc.At))
		}
	}

	for u := 0; u < g.N(); u++ {
		node := sys.Nodes[u]
		run.FinalHW[u] = node.Clock.At(until)
		if node.Device != nil {
			run.FinalLogical[u] = node.Device.Logical(run.FinalHW[u])
		}
	}
	return run, nil
}

// msgLess is the deterministic inbox order: send time, then sender slot
// (that is, sender name), then payload.
func msgLess(scr *clockfn.RatScratch, a, b *Message) bool {
	if c := scr.Cmp(a.SentAt, b.SentAt); c != 0 {
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
