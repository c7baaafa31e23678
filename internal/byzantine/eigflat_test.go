package byzantine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flm/internal/graph"
	"flm/internal/sim"
)

// randomClaimPayload builds a random round payload: claims over random
// label sequences (valid relays, duplicate names, unknown names, wrong
// lengths, malformed separators) with values drawn from valid and
// delimiter-smuggling alphabets. This deliberately exercises every skip
// branch of absorb.
func randomClaimPayload(rng *rand.Rand, peers []string) sim.Payload {
	values := []string{"0", "1", "7", "x", "", "a=b", "a/b", "a;b", "-"}
	nClaims := rng.Intn(4)
	payload := ""
	for c := 0; c < nClaims; c++ {
		if c > 0 {
			payload += ";"
		}
		if rng.Intn(8) == 0 {
			payload += "-" // no '=': skipped like the silence marker
			continue
		}
		label := ""
		for l, ln := 0, rng.Intn(3); l < ln; l++ {
			if l > 0 {
				label += "/"
			}
			switch rng.Intn(5) {
			case 0:
				label += "zz" // unknown name
			case 1:
				label += "" // empty component
			default:
				label += peers[rng.Intn(len(peers))]
			}
		}
		payload += label + "=" + values[rng.Intn(len(values))]
	}
	return sim.Payload(payload)
}

// TestFlatEIGMatchesMapReference drives the flat device and the retained
// map-based reference through identical randomized schedules — random
// inputs, random Byzantine inboxes including non-peer senders — and
// requires identical payloads, snapshots, decisions, and fingerprints at
// every step.
func TestFlatEIGMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(4)
		f := 1 + rng.Intn(2)
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("p%d", i)
		}
		self := peers[rng.Intn(n)]
		input := []string{"0", "1", "5", "", "a;b"}[rng.Intn(5)]

		fp := fmt.Sprintf("byz/eig:f=%d,peers=%s", f, joinPeers(peers))
		shape, err := eigShapeFor(f, append([]string(nil), peers...), fp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The neighbors are the other peers plus one outsider, a legal
		// Byzantine sender the flat slot space cannot index.
		nbs := []string{"outsider"}
		for _, p := range peers {
			if p != self {
				nbs = append(nbs, p)
			}
		}
		sort.Strings(nbs)
		flat := &eigFlatDevice{shape: shape}
		flat.Init(self, nbs, sim.Input(input))
		ref := &eigMapDevice{f: f, peers: append([]string(nil), peers...)}
		ref.Init(self, nbs, sim.Input(input))

		if flat.DeviceFingerprint() != ref.DeviceFingerprint() {
			t.Fatalf("trial %d: fingerprints differ: %q vs %q", trial, flat.DeviceFingerprint(), ref.DeviceFingerprint())
		}
		for round := 0; round < EIGRounds(f)+1; round++ {
			in := make([]sim.Payload, len(nbs))
			for i, nb := range nbs {
				if nb == "outsider" && rng.Intn(3) != 0 || nb != "outsider" && rng.Intn(4) == 0 {
					continue // silent neighbor
				}
				in[i] = randomClaimPayload(rng, peers)
			}
			outFlat, outRef := make([]sim.Payload, len(nbs)), make([]sim.Payload, len(nbs))
			flat.Step(round, in, outFlat)
			ref.Step(round, in, outRef)
			for i, p := range outRef {
				if outFlat[i] != p {
					t.Fatalf("trial %d round %d: payload to %s differs:\nflat: %q\nref:  %q", trial, round, nbs[i], outFlat[i], p)
				}
			}
			if sf, sr := flat.Snapshot(), ref.Snapshot(); sf != sr {
				t.Fatalf("trial %d round %d: snapshots differ:\nflat: %s\nref:  %s", trial, round, sf, sr)
			}
			df, okf := flat.Output()
			dr, okr := ref.Output()
			if okf != okr || df != dr {
				t.Fatalf("trial %d round %d: outputs differ: (%v,%v) vs (%v,%v)", trial, round, df, okf, dr, okr)
			}
		}
	}
}

func joinPeers(sorted []string) string {
	out := ""
	for i, p := range sorted {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// mustPanic runs fn and returns the message it panicked with, failing
// the test if it returned normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("call returned normally, want a panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// TestEIGBuilderRejectsOutsiderSelf: a builder asked for a node outside
// its peer set panics, and the simulator reports that as a typed device
// fault of the offending node.
func TestEIGBuilderRejectsOutsiderSelf(t *testing.T) {
	peers := []string{"a", "b", "c", "d"}
	b := NewEIG(1, peers)
	msg := mustPanic(t, func() { b("zz", peers, "1") })
	if !strings.Contains(msg, `"zz"`) || !strings.Contains(msg, "peer set") {
		t.Fatalf("panic %q does not name the outsider and the peer set", msg)
	}

	g := graph.Triangle()
	p := sim.Protocol{Builders: map[string]sim.Builder{}, Inputs: map[string]sim.Input{}}
	for _, name := range g.Names() {
		p.Builders[name] = NewEIG(1, []string{"a", "b", "q"})
		p.Inputs[name] = "1"
	}
	_, err := sim.NewSystem(g, p)
	var df *sim.DeviceFault
	if !errors.As(err, &df) {
		t.Fatalf("NewSystem with an outsider EIG node: err = %v, want a *sim.DeviceFault", err)
	}
}

// TestNewEIGRejectsUnindexablePeers: every peer set the flat shape
// cannot index makes NewEIG panic with a message naming the limit.
func TestNewEIGRejectsUnindexablePeers(t *testing.T) {
	big := make([]string, 70)
	for i := range big {
		big[i] = fmt.Sprintf("q%02d", i)
	}
	for _, c := range []struct {
		name  string
		f     int
		peers []string
		want  string
	}{
		{"too many peers", 1, big, "1 to 64 peers, got 70"},
		{"no peers", 1, nil, "1 to 64 peers, got 0"},
		{"negative f", -1, []string{"a", "b"}, "f=-1 is negative"},
		{"empty name", 1, []string{"a", ""}, "non-empty"},
		{"semicolon", 1, []string{"a", "b;c"}, `"b;c" contains a claim delimiter`},
		{"equals", 1, []string{"a", "b=c"}, `"b=c" contains a claim delimiter`},
		{"slash", 1, []string{"a", "b/c"}, `"b/c" contains a claim delimiter`},
		{"duplicate", 1, []string{"a", "b", "a"}, `"a" appears twice`},
		{"slot space", 4, big[:64], "exceeds 1048576 slots"},
	} {
		msg := mustPanic(t, func() { NewEIG(c.f, c.peers) })
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want it to contain %q", c.name, msg, c.want)
		}
	}
}

// TestNewEIGUsesFlatDevice pins that the builder constructs the flat
// implementation for ordinary peer sets.
func TestNewEIGUsesFlatDevice(t *testing.T) {
	d := NewEIG(1, []string{"a", "b", "c", "d"})("a", []string{"b", "c", "d"}, "1")
	if _, ok := d.(*eigFlatDevice); !ok {
		t.Fatalf("builder returned %T, want *eigFlatDevice", d)
	}
}
