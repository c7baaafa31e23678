package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/runcache"
	"flm/internal/sim"
)

// The run cache's keys and disk blobs outlive the process: a key or blob
// that moves silently strands every cached run. These tests pin, as
// literal hex, the run-cache key (sim's systemKey, surfaced as
// Run.Fingerprint) and the sha256 of the RunCodec blob for a spread of
// systems: E1's covering run, one of its spliced G-runs, a delay-schedule
// run and the adversary panel. A change to any device fingerprint, to the
// key derivation or to the blob frame fails here.

func keyHex(r *sim.Run) string { return hex.EncodeToString([]byte(r.Fingerprint())) }

func blobDigest(t *testing.T, r *sim.Run) string {
	t.Helper()
	b, ok := sim.RunCodec{}.Encode(r.Fingerprint(), r)
	if !ok {
		t.Fatal("run did not encode")
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkPinned(t *testing.T, what string, r *sim.Run, key, blob string) {
	t.Helper()
	if got := keyHex(r); got != key {
		t.Errorf("%s: run-cache key moved:\n got %s\nwant %s", what, got, key)
	}
	if got := blobDigest(t, r); got != blob {
		t.Errorf("%s: blob digest moved:\n got %s\nwant %s", what, got, blob)
	}
}

func TestRunCacheKeysAndBlobsPinned(t *testing.T) {
	defer runcache.SetEnabled(true)()

	tri := graph.Triangle()
	cr, err := ByzantineTriangle(uniformBuilders(tri, byzantine.NewEIG(1, tri.Names())), "eig", 8)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "E1 covering run", cr.RunS,
		"da9ff52cea0a5a019eab99945a1603cfe2af4b428dbd7d807d542a7c53dba247",
		"61989782e3b1e24bf8c28a15077212a762b3c5a69960c2520fc226e8f5cf24de")
	checkPinned(t, "E1 spliced run E2", cr.Links[1].Splice.Run,
		"47341bb954f909ffcf91bd5176609e1eb9ec0a85f58f85715b95534b7f9d2e1e",
		"c24beda52b3c7a6ff55cf505cef783a259e69285dce36a1342ab2a5623dc4902")

	k4 := graph.Complete(4)
	p := sim.Protocol{Builders: map[string]sim.Builder{}, Inputs: map[string]sim.Input{}}
	for i, name := range k4.Names() {
		p.Builders[name] = byzantine.NewEIG(1, k4.Names())
		p.Inputs[name] = sim.BoolInput(i%2 == 0)
	}
	sys, err := sim.NewSystem(k4, p)
	if err != nil {
		t.Fatal(err)
	}
	rounds := byzantine.EIGRounds(1) + 2
	opts := sim.FullRecording
	opts.Delays = sim.SeededDelays(7, k4.Names(), rounds, 2)
	run, err := sim.ExecuteWith(sys, rounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "delay-schedule run", run,
		"54992f497b48848a484bc0607f5e2e2af8d76062918f4ffc7aab70ba0d365b20",
		"ab66d88db9a0968ff577dc92e4ec3d8beaa2d5dda7710df822682687883bc9a1")
}

func TestAdversaryPanelKeysAndBlobsPinned(t *testing.T) {
	defer runcache.SetEnabled(true)()
	want := map[string][2]string{
		"silent":     {"effa732e40da279546fd7289117e57b0daac5e9a5ba5d583188c11de97079269", "97b333ac40238cce5cece43e4efbd1b3d2ec407023882a50316eea0feaf257c9"},
		"crash@1":    {"291c06c99441cac3cbe54d2ad263c51a20d2fcf5d95289eba32343ff8c0a3d98", "baaacac7bf6adfe002b641e763c3b90ff4700e43d2d9ce29f953da4fbc19b1b1"},
		"crash@2":    {"74f7a4161b2a9803b5b6734d550758d540f80e08015f5634a209c0f149e7aca9", "585995b20fbe3cccc8676af80eeefa6174c1d16fc5a0221e229c09ce0b4d99f4"},
		"omit-half":  {"ae42b559e92c5561f568e1195b52833d3fa5944fba25361ebcd8eeb4e8361ebe", "d31a2feba7f17c5e5457820a56b08ec47d81c11a2e1678d32ade20d9bf8f0a56"},
		"equivocate": {"a00921dcba169eda166ce87d1526554ec8011644f39b9397c8fd3cb6f7fb5ead", "0f2de9483db5d17fd5ff010e81a0b108413b8d854dc713377867c57fb8cb7618"},
		"noise":      {"431dcf7a9bb929fe2f5e1e6288a4f3e94d70f5216924fc2f646666d18bc8ce97", "6bd82f2dabe4f207539918b2b7f3e4c13e3b0a9fca7eeaed1b46f206593c1d2f"},
		"mirror":     {"ea521d33c904a0e95c1110f10200ca3f41ddfed7fdab14a71945142925efa7b4", "fcf05f2f749607d3e6025527a497ccdd7feb1fbe7edddd87d4971d9888f8cabf"},
	}
	k4 := graph.Complete(4)
	for _, st := range adversary.Panel(3) {
		p := sim.Protocol{Builders: map[string]sim.Builder{}, Inputs: map[string]sim.Input{}}
		for i, name := range k4.Names() {
			b := byzantine.NewEIG(1, k4.Names())
			if i == 3 {
				b = st.Corrupt(b)
			}
			p.Builders[name] = b
			p.Inputs[name] = sim.BoolInput(i%2 == 0)
		}
		sys, err := sim.NewSystem(k4, p)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sim.Execute(sys, byzantine.EIGRounds(1))
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[st.Name]
		if !ok {
			t.Errorf("strategy %s has no pinned key", st.Name)
			continue
		}
		checkPinned(t, st.Name, run, w[0], w[1])
	}
}
