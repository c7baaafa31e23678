package sim

import (
	"fmt"
	"strings"
)

// Stats summarizes the communication cost of a run — the data behind the
// message-complexity comparisons (EIG's exponential blowup versus phase
// king's polynomial traffic).
type Stats struct {
	Rounds        int
	Messages      int   // non-empty payload transmissions
	Bytes         int   // total payload bytes
	MaxPayload    int   // largest single payload
	PerRoundMsgs  []int // messages per round
	PerRoundBytes []int // bytes per round
}

// CollectStats tallies the communication cost of a run.
func CollectStats(run *Run) Stats {
	st := Stats{
		Rounds:        run.Rounds,
		PerRoundMsgs:  make([]int, run.Rounds),
		PerRoundBytes: make([]int, run.Rounds),
	}
	for _, seq := range run.Edges {
		for r, p := range seq {
			if p == None {
				continue
			}
			st.Messages++
			st.Bytes += len(p)
			st.PerRoundMsgs[r]++
			st.PerRoundBytes[r] += len(p)
			if len(p) > st.MaxPayload {
				st.MaxPayload = len(p)
			}
		}
	}
	return st
}

// String renders the totals.
func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d messages=%d bytes=%d maxPayload=%d",
		s.Rounds, s.Messages, s.Bytes, s.MaxPayload)
}

// Trace renders a round-by-round view of all edge traffic in a run, for
// debugging covering arguments. Payloads longer than width are truncated.
func Trace(run *Run, width int) string {
	var b strings.Builder
	edges := run.G.DirectedEdges()
	for r := 0; r < run.Rounds; r++ {
		fmt.Fprintf(&b, "round %d:\n", r)
		for id, e := range edges {
			p := run.Edges[id][r]
			if p == None {
				continue
			}
			s := string(p)
			if width > 0 && len(s) > width {
				s = s[:width] + "…"
			}
			fmt.Fprintf(&b, "  %-12s %s\n", e.String()+":", s)
		}
	}
	return b.String()
}
