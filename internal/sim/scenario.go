package sim

import (
	"fmt"
	"sort"

	"flm/internal/graph"
)

// Scenario is the restriction of a system behavior to a subgraph: the
// node behaviors of the chosen nodes, the traffic on edges between them,
// and the traffic on the inedge border (what the rest of the system
// showed them). Two scenarios being equal (up to node renaming) is the
// conclusion of the paper's Locality axiom.
type Scenario struct {
	Nodes     []string            // sorted node names
	Snapshots map[string][]string // per node state sequence
	Decisions map[string]Decision // per node decision
	Internal  []EdgeTraffic       // edges with both endpoints inside
	Border    []EdgeTraffic       // inedge border traffic
}

// EdgeTraffic is the edge behavior of one directed edge. A scenario lists
// its edges in directed-edge order and shares the sequences with the
// (immutable) run they came from.
type EdgeTraffic struct {
	graph.Edge
	Seq []Payload
}

// Extract returns the scenario of the named nodes in the run. The run
// must have been produced with full recording (Execute, not fast-mode
// ExecuteWith): scenarios are made of snapshots and edge behaviors.
func Extract(run *Run, nodes []string) (*Scenario, error) {
	if run.Snapshots == nil || run.Edges == nil {
		return nil, fmt.Errorf("sim: cannot extract a scenario from a fast-mode run (no snapshots/edges recorded)")
	}
	idx := make([]int, 0, len(nodes))
	inSet := make(map[string]bool, len(nodes))
	for _, name := range nodes {
		u, ok := run.G.Index(name)
		if !ok {
			return nil, fmt.Errorf("sim: scenario node %q not in run", name)
		}
		if inSet[name] {
			return nil, fmt.Errorf("sim: scenario node %q listed twice", name)
		}
		inSet[name] = true
		idx = append(idx, u)
	}
	sc := &Scenario{
		Nodes:     append([]string(nil), nodes...),
		Snapshots: make(map[string][]string, len(nodes)),
		Decisions: make(map[string]Decision, len(nodes)),
	}
	sort.Strings(sc.Nodes)
	for _, u := range idx {
		name := run.G.Name(u)
		sc.Snapshots[name] = append([]string(nil), run.Snapshots[u]...)
		sc.Decisions[name] = run.Decisions[u]
	}
	for id, e := range run.G.DirectedEdges() {
		switch {
		case inSet[e.From] && inSet[e.To]:
			sc.Internal = append(sc.Internal, EdgeTraffic{e, run.Edges[id]})
		case inSet[e.To]:
			sc.Border = append(sc.Border, EdgeTraffic{e, run.Edges[id]})
		}
	}
	return sc, nil
}

// EqualUnder compares this scenario with another under a node renaming
// (rename maps this scenario's names to the other's). It checks node
// snapshot sequences, decisions, and internal edge traffic; border
// traffic is compared only when compareBorder is set (splice checks know
// the borders differ because the faulty senders differ in identity even
// though their exhibited payloads agree).
func (sc *Scenario) EqualUnder(other *Scenario, rename map[string]string, compareBorder bool) error {
	if len(sc.Nodes) != len(other.Nodes) {
		return fmt.Errorf("sim: scenario sizes differ: %d vs %d", len(sc.Nodes), len(other.Nodes))
	}
	mapped := func(name string) string {
		if to, ok := rename[name]; ok {
			return to
		}
		return name
	}
	for _, name := range sc.Nodes {
		target := mapped(name)
		otherSnaps, ok := other.Snapshots[target]
		if !ok {
			return fmt.Errorf("sim: node %s (as %s) missing from other scenario", name, target)
		}
		snaps := sc.Snapshots[name]
		if len(snaps) != len(otherSnaps) {
			return fmt.Errorf("sim: node %s snapshot length %d vs %d", name, len(snaps), len(otherSnaps))
		}
		for r := range snaps {
			if snaps[r] != otherSnaps[r] {
				return fmt.Errorf("sim: node %s diverges at round %d: %q vs %q",
					name, r, snaps[r], otherSnaps[r])
			}
		}
		if d, o := sc.Decisions[name], other.Decisions[target]; d != o {
			return fmt.Errorf("sim: node %s decisions differ: %+v vs %+v", name, d, o)
		}
	}
	if err := equalTraffic("internal", sc.Internal, other.Internal, mapped); err != nil {
		return err
	}
	if compareBorder {
		if len(sc.Border) != len(other.Border) {
			return fmt.Errorf("sim: border sizes differ: %d vs %d", len(sc.Border), len(other.Border))
		}
		if err := equalTraffic("border", sc.Border, other.Border, mapped); err != nil {
			return err
		}
	}
	return nil
}

// equalTraffic checks that every edge of mine, renamed, carries the same
// payloads in theirs.
func equalTraffic(kind string, mine, theirs []EdgeTraffic, mapped func(string) string) error {
	at := make(map[graph.Edge]int, len(theirs))
	for i, t := range theirs {
		at[t.Edge] = i
	}
	for _, t := range mine {
		te := graph.Edge{From: mapped(t.From), To: mapped(t.To)}
		i, ok := at[te]
		if !ok {
			return fmt.Errorf("sim: %s edge %v (as %v) missing", kind, t.Edge, te)
		}
		if err := equalPayloads(t.Seq, theirs[i].Seq); err != nil {
			return fmt.Errorf("sim: %s edge %v: %w", kind, t.Edge, err)
		}
	}
	return nil
}

func equalPayloads(a, b []Payload) error {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	get := func(s []Payload, i int) Payload {
		if i < len(s) {
			return s[i]
		}
		return None
	}
	for i := 0; i < n; i++ {
		if get(a, i) != get(b, i) {
			return fmt.Errorf("payloads differ at round %d: %q vs %q", i, get(a, i), get(b, i))
		}
	}
	return nil
}

// PrefixEqual reports up to which round (exclusive) the snapshot
// sequences of the named nodes in the two runs agree; used to verify the
// paper's Lemma 3 (information propagates at most one edge per round).
func PrefixEqual(a *Run, aName string, b *Run, bName string) (int, error) {
	sa, err := a.SnapshotsOf(aName)
	if err != nil {
		return 0, err
	}
	sb, err := b.SnapshotsOf(bName)
	if err != nil {
		return 0, err
	}
	n := len(sa)
	if len(sb) < n {
		n = len(sb)
	}
	for r := 0; r < n; r++ {
		if sa[r] != sb[r] {
			return r, nil
		}
	}
	return n, nil
}
