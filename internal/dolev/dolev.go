// Package dolev implements reliable point-to-point communication over
// incomplete graphs in the presence of Byzantine nodes, following Dolev's
// "The Byzantine Generals Strike Again": a message from u to v is sent
// along 2f+1 vertex-disjoint paths, so at most f copies pass through
// faulty relays and the majority of path copies is authentic. An overlay
// adapter runs any complete-graph agreement device (EIG, phase king, ...)
// on top, which is how the 2f+1 connectivity bound of FLM85 is matched
// from above.
//
// Wire format. One copy of an inner message on one path is a piece: a
// header of six minimally encoded uvarints (origin index, dest index,
// path index, hop, inner round, body length) followed by the raw inner
// payload. A simulator payload is the pieces for that edge concatenated.
//
// Validation. Every hop decodes the framing and the header and checks
// its own position on the claimed path: it must be path[hop], fed by
// path[hop-1]. A relay then re-appends the body untouched; it never
// copies or inspects it. Only the destination applies the rest: it
// keeps a piece only for the inner round in flight, keeps the first copy
// per path, and hands the inner device a non-empty body that a majority
// (f+1) of the 2f+1 paths agree on.
package dolev

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"flm/internal/graph"
	"flm/internal/sim"
)

// Router holds the vertex-disjoint path tables for a graph and fault
// bound. It is immutable after construction and shared by all overlay
// devices.
type Router struct {
	g       *graph.Graph
	f       int
	paths   [][][]int // paths[origin*n+dest]: the 2f+1 disjoint paths, nil when origin == dest
	maxHops int
	byName  []int // node indices in name order: the slot order of peer lists
}

// NewRouter computes 2f+1 vertex-disjoint paths for every ordered pair of
// nodes. It fails if the graph's connectivity is below 2f+1 (Dolev's
// requirement, and FLM85's lower bound).
func NewRouter(g *graph.Graph, f int) (*Router, error) {
	need := 2*f + 1
	if conn := g.VertexConnectivity(); conn < need {
		return nil, fmt.Errorf("dolev: connectivity %d < 2f+1 = %d", conn, need)
	}
	n := g.N()
	r := &Router{g: g, f: f, paths: make([][][]int, n*n)}
	r.byName = make([]int, n)
	for i := range r.byName {
		r.byName[i] = i
	}
	sort.Slice(r.byName, func(i, j int) bool { return g.Name(r.byName[i]) < g.Name(r.byName[j]) })
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			paths, err := g.VertexDisjointPaths(u, v, need)
			if err != nil {
				return nil, err
			}
			if len(paths) < need {
				return nil, fmt.Errorf("dolev: only %d disjoint paths between %s and %s",
					len(paths), g.Name(u), g.Name(v))
			}
			paths = paths[:need]
			r.paths[u*n+v] = paths
			reversed := make([][]int, len(paths))
			for i, p := range paths {
				rp := make([]int, len(p))
				for j, x := range p {
					rp[len(p)-1-j] = x
				}
				reversed[i] = rp
			}
			r.paths[v*n+u] = reversed
			for _, p := range paths {
				if len(p)-1 > r.maxHops {
					r.maxHops = len(p) - 1
				}
			}
		}
	}
	return r, nil
}

// StretchFactor returns P, the number of simulator rounds one overlay
// round occupies (the longest routing path in hops).
func (r *Router) StretchFactor() int { return r.maxHops }

// Path returns the idx-th disjoint path from origin to dest (as node
// indices), or nil if out of range.
func (r *Router) Path(origin, dest, idx int) []int {
	n := r.g.N()
	if origin < 0 || origin >= n || dest < 0 || dest >= n {
		return nil
	}
	paths := r.paths[origin*n+dest]
	if idx < 0 || idx >= len(paths) {
		return nil
	}
	return paths[idx]
}

// NumPaths returns the number of disjoint paths used per pair (2f+1).
func (r *Router) NumPaths() int { return 2*r.f + 1 }

// piece is one routed fragment: a copy of an overlay message traveling
// along one path.
type piece struct {
	origin, dest int
	pathIdx      int
	hop          int // position of the current holder on the path
	innerRound   int
	body         string // the raw inner payload
}

func (p piece) encode() string {
	return string(p.appendEncode(nil))
}

// appendEncode appends the wire form of p to b: the six header uvarints,
// then the body.
func (p piece) appendEncode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(p.origin))
	b = binary.AppendUvarint(b, uint64(p.dest))
	b = binary.AppendUvarint(b, uint64(p.pathIdx))
	b = binary.AppendUvarint(b, uint64(p.hop))
	b = binary.AppendUvarint(b, uint64(p.innerRound))
	b = binary.AppendUvarint(b, uint64(len(p.body)))
	return append(b, p.body...)
}

// uvarint reads a uvarint no larger than max from the front of s and
// returns it with the bytes after it. It accepts only the minimal
// encoding, the one binary.AppendUvarint writes, so a decoded piece
// re-encodes to the bytes it came from.
func uvarint(s string, max uint64) (v uint64, rest string, ok bool) {
	// Nine 7-bit groups hold every value up to math.MaxInt64, no less than
	// any max a caller passes, so the shift never overflows.
	for i, shift := 0, uint(0); i < len(s) && shift < 63; i, shift = i+1, shift+7 {
		c := s[i]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, s, false // a trailing zero group: not minimal
			}
			return v, s[i+1:], v <= max
		}
	}
	return 0, s, false
}

// decodePiece decodes the piece at the front of s and returns it with
// the bytes after it. It checks framing only: origin and dest name nodes
// of the router's graph and the body fits in s. The body is a substring
// of s, not a copy.
func decodePiece(r *Router, s string) (p piece, rest string, ok bool) {
	node, anyInt := uint64(r.g.N()-1), uint64(math.MaxInt)
	origin, rest, ok1 := uvarint(s, node)
	dest, rest, ok2 := uvarint(rest, node)
	pathIdx, rest, ok3 := uvarint(rest, anyInt)
	hop, rest, ok4 := uvarint(rest, anyInt)
	innerRound, rest, ok5 := uvarint(rest, anyInt)
	n, rest, ok6 := uvarint(rest, anyInt)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) || n > uint64(len(rest)) {
		return piece{}, s, false
	}
	p = piece{origin: int(origin), dest: int(dest), pathIdx: int(pathIdx), hop: int(hop), innerRound: int(innerRound), body: rest[:n]}
	return p, rest[n:], true
}

// overlayDevice runs an inner complete-graph device over Dolev routing.
type overlayDevice struct {
	router   *Router
	inner    sim.Device
	self     int
	selfRank int      // self's position in router.byName
	nbIdx    []int    // node index of each neighbor slot
	slotOf   []int    // node index -> neighbor slot, -1 for non-neighbors
	outbox   []queued // pieces to transmit next round

	// arrived[origin*NumPaths+pathIdx] is the first copy of the in-flight
	// inner round's message from origin on that path. stepInner consumes
	// and resets it.
	arrived  []arrival
	inflight int // the inner round whose pieces are in flight

	// Reusable per-step scratch. The overlay steps every simulator round
	// for every node, so transient maps and slices here would otherwise
	// dominate the sweep allocator profile.
	innerIn, innerOut []sim.Payload // the inner device's buffers, by peer slot (stepInner)
	tallyVals         []string      // distinct copies seen on the paths (stepInner)
	tallyCnts         []int         // matching counts (stepInner)
	wire              [][]byte      // this round's payload, by out slot (flush)
}

// queued is a piece in the outbox, with the out slot of its next hop.
type queued struct {
	piece
	slot int
}

type arrival struct {
	body string
	ok   bool
}

var _ sim.Device = (*overlayDevice)(nil)

// Overlay wraps an inner builder so the resulting devices run on the
// router's (possibly sparse) graph. The inner device is built believing
// it sits on the complete graph over all node names; each of its rounds
// occupies StretchFactor() simulator rounds.
func Overlay(router *Router, inner sim.Builder) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		g := router.g
		u := g.MustIndex(self)
		d := &overlayDevice{
			router:   router,
			self:     u,
			nbIdx:    make([]int, len(neighbors)),
			slotOf:   make([]int, g.N()),
			arrived:  make([]arrival, g.N()*router.NumPaths()),
			outbox:   make([]queued, 0, (g.N()-1)*router.NumPaths()),
			innerIn:  make([]sim.Payload, g.N()-1),
			innerOut: make([]sim.Payload, g.N()-1),
		}
		peers := make([]string, 0, g.N()-1)
		for i, v := range router.byName {
			if v == u {
				d.selfRank = i
			} else {
				peers = append(peers, g.Name(v))
			}
		}
		d.inner = inner(self, peers, input)
		for v := range d.slotOf {
			d.slotOf[v] = -1
		}
		for i, nb := range neighbors {
			d.nbIdx[i] = g.MustIndex(nb)
			d.slotOf[d.nbIdx[i]] = i
		}
		return d
	}
}

// peer returns the node index of the inner device's peer slot i: the
// nodes in name order, self skipped.
func (d *overlayDevice) peer(i int) int {
	if i >= d.selfRank {
		i++
	}
	return d.router.byName[i]
}

func (d *overlayDevice) Init(self string, neighbors []string, input sim.Input) {
	// The inner device was built with its complete-graph view.
}

func (d *overlayDevice) Step(round int, in, out []sim.Payload) {
	p := d.router.StretchFactor()
	// An honest piece of inner round r leaves its origin at simulator
	// round r*P and takes 1..P hops, so it arrives in (r*P, r*P+P].
	if round > 0 {
		d.inflight = (round - 1) / p
	}
	d.ingest(in)
	if round%p == 0 {
		d.stepInner(round / p)
	}
	d.flush(out)
}

// ingest checks and routes incoming pieces: recording copies addressed to
// us, forwarding the rest one hop. A payload whose framing breaks is
// dropped from that point on: only a faulty neighbor sends one.
func (d *overlayDevice) ingest(in []sim.Payload) {
	k := d.router.NumPaths()
	for slot, p := range in {
		fromIdx := d.nbIdx[slot]
		for rest := string(p); rest != ""; {
			pc, next, ok := decodePiece(d.router, rest)
			if !ok {
				break
			}
			rest = next
			path := d.router.Path(pc.origin, pc.dest, pc.pathIdx)
			if path == nil || pc.hop <= 0 || pc.hop >= len(path) {
				continue
			}
			// We must be the node at position hop, fed by position hop-1.
			if path[pc.hop] != d.self || path[pc.hop-1] != fromIdx {
				continue
			}
			if pc.hop < len(path)-1 {
				pc.hop++
				d.outbox = append(d.outbox, queued{pc, d.slotOf[path[pc.hop]]})
				continue
			}
			// We are the destination: record the first copy per path of
			// the inner round in flight.
			if pc.innerRound != d.inflight {
				continue
			}
			if a := &d.arrived[pc.origin*k+pc.pathIdx]; !a.ok {
				*a = arrival{body: pc.body, ok: true}
			}
		}
	}
}

// stepInner decodes the majority inbox for the inner round and launches
// the inner device's new messages along all disjoint paths.
func (d *overlayDevice) stepInner(innerRound int) {
	k := d.router.NumPaths()
	clear(d.innerIn)
	if innerRound > 0 {
		for slot := range d.innerIn {
			origin := d.peer(slot)
			// Tally the ≤ 2f+1 path copies in small parallel slices; a map
			// plus a sorted key slice per origin per round is allocator
			// noise for a population this size. Ties break toward the
			// bytewise smallest copy.
			vals, cnts := d.tallyVals[:0], d.tallyCnts[:0]
			for _, a := range d.arrived[origin*k : origin*k+k] {
				if !a.ok {
					continue
				}
				seen := false
				for i, v := range vals {
					if v == a.body {
						cnts[i]++
						seen = true
						break
					}
				}
				if !seen {
					vals = append(vals, a.body)
					cnts = append(cnts, 1)
				}
			}
			d.tallyVals, d.tallyCnts = vals, cnts
			best, bestN := "", 0
			for i, v := range vals {
				if cnts[i] > bestN || (cnts[i] == bestN && v < best) {
					best, bestN = v, cnts[i]
				}
			}
			// Authentic iff a majority of the 2f+1 paths agree.
			if bestN >= d.router.f+1 && best != "" {
				d.innerIn[slot] = sim.Payload(best)
			}
		}
	}
	clear(d.arrived)
	clear(d.innerOut)
	d.inner.Step(innerRound, d.innerIn, d.innerOut)
	for slot, payload := range d.innerOut {
		if payload == sim.None {
			continue
		}
		dest := d.peer(slot)
		for idx := 0; idx < k; idx++ {
			d.outbox = append(d.outbox, queued{piece{
				origin: d.self, dest: dest, pathIdx: idx, hop: 1,
				innerRound: innerRound, body: string(payload),
			}, d.slotOf[d.router.Path(d.self, dest, idx)[1]]})
		}
	}
}

// flush sends the queued pieces, one payload per next-hop neighbor:
// each piece is appended to its slot's reused buffer, and each non-empty
// buffer is converted once.
func (d *overlayDevice) flush(out []sim.Payload) {
	if d.wire == nil {
		d.wire = make([][]byte, len(out))
	}
	for _, q := range d.outbox {
		d.wire[q.slot] = q.appendEncode(d.wire[q.slot])
	}
	d.outbox = d.outbox[:0]
	for slot, b := range d.wire {
		if len(b) > 0 {
			out[slot] = sim.Payload(b)
			d.wire[slot] = b[:0]
		}
	}
}

// Snapshot lists the arrived copies as origin.innerRound.pathIdx=hex(body).
func (d *overlayDevice) Snapshot() string {
	k := d.router.NumPaths()
	var b strings.Builder
	b.WriteString("dolev|")
	b.WriteString(d.inner.Snapshot())
	for i, a := range d.arrived {
		if a.ok {
			fmt.Fprintf(&b, "|%d.%d.%d=%x", i/k, d.inflight, i%k, a.body)
		}
	}
	return b.String()
}

func (d *overlayDevice) Output() (sim.Decision, bool) { return d.inner.Output() }

// Rounds converts inner-device rounds to overlay simulator rounds.
func (r *Router) Rounds(innerRounds int) int {
	return innerRounds*r.StretchFactor() + 1
}
