package clocksync

import (
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// countingDevice is a trivial device that counts its Init calls and
// checks it is initialized before every tick.
type countingDevice struct {
	trivialDevice
	inits, badTicks int
}

func (d *countingDevice) Init(self string, neighbors []string) { d.inits++ }

func (d *countingDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {
	if d.inits != 1 {
		d.badTicks++
	}
}

// TestInitOncePerExecution: every device a prover or MeasureAdequateSync
// builds is initialized exactly once, by the executor, before its first
// tick — in the covering run and in every self-check run alike.
func TestInitOncePerExecution(t *testing.T) {
	params := stdParams(1.5)
	var built []*countingDevice
	counting := func(self string, neighbors []string) timedsim.Device {
		d := &countingDevice{trivialDevice: trivialDevice{l: params.L}}
		built = append(built, d)
		return d
	}
	k4 := graph.Complete(4)
	clocks := []clockfn.RatLinear{clockfn.RatIdentity(), clockfn.RatIdentity(), clockfn.RatIdentity(), clockfn.RatIdentity()}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Theorem8", func() error {
			_, err := Theorem8(params, uniformBuilders(graph.Triangle(), counting))
			return err
		}},
		{"Theorem8Nodes", func() error {
			k6 := graph.Complete(6)
			_, err := Theorem8Nodes(params, k6, []int{0, 1}, []int{2, 3}, []int{4, 5}, 2, uniformBuilders(k6, counting))
			return err
		}},
		{"Theorem8Connectivity", func() error {
			dia := graph.Diamond()
			_, err := Theorem8Connectivity(params, dia, []int{1}, []int{3}, 0, 2, 1, uniformBuilders(dia, counting))
			return err
		}},
		{"MeasureAdequateSync", func() error {
			_, err := MeasureAdequateSync(params, k4, clocks, uniformBuilders(k4, counting), "p3",
				mustClockLiar(k4, "p3", 8), []clockfn.Q{clockfn.NewQ(4, 1), clockfn.NewQ(8, 1)})
			return err
		}},
	} {
		built = nil
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(built) == 0 {
			t.Fatalf("%s built no devices", tc.name)
		}
		for i, d := range built {
			if d.inits != 1 || d.badTicks != 0 {
				t.Errorf("%s: device %d initialized %d times, ticked %d times while not initialized once",
					tc.name, i, d.inits, d.badTicks)
			}
		}
	}
}

// TestRenamedDeviceTranslates: the installed device sees its G
// neighborhood — G identity at Init, G slots in its inbox — and its
// sends leave through the matching S slots.
func TestRenamedDeviceTranslates(t *testing.T) {
	rec := &recordingDevice{}
	d := &renamedDevice{inner: rec, self: "g", nbs: []string{"x", "y"}, perm: []int{1, 0}}
	d.Init("s", []string{"s0", "s1"})
	out := make([]string, 2)
	d.Tick(0, clockfn.NewQ(0, 1), []timedsim.Message{{From: 0, Payload: "p", SentAt: clockfn.NewQ(0, 1)}}, out)
	if rec.self != "g" || len(rec.nbs) != 2 || rec.nbs[1] != "y" {
		t.Errorf("inner initialized as %q %v, want the G identity g [x y]", rec.self, rec.nbs)
	}
	if len(rec.from) != 1 || rec.from[0] != 1 {
		t.Errorf("inner inbox slots %v, want [1]", rec.from)
	}
	if out[0] != "" || out[1] != "to-x" {
		t.Errorf("out = %q, want G-slot 0's send in S-slot 1 only", out)
	}
}

// recordingDevice records its identity and inbox slots, and sends only
// to its G-slot 0.
type recordingDevice struct {
	trivialDevice
	self string
	nbs  []string
	from []int
}

func (d *recordingDevice) Init(self string, neighbors []string) { d.self, d.nbs = self, neighbors }

func (d *recordingDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message, out []string) {
	for _, m := range inbox {
		d.from = append(d.from, m.From)
	}
	out[0] = "to-" + d.nbs[0]
}
