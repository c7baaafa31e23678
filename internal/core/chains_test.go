package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/weak"
)

var updateChains = flag.Bool("update", false, "rewrite testdata/chains.golden")

// goldenChain is one exported prover run on one fixed panel device.
type goldenChain struct {
	driver string
	run    func() (*ChainResult, error)
}

// goldenChains runs each of the fifteen Prove* drivers exported by the
// flm package once. The devices are chosen so that most chains break in
// their spliced links rather than in a base run, and the general-case
// drivers use uneven blocks or a multi-node cut.
func goldenChains() []goldenChain {
	tri, dia, k5, k6 := graph.Triangle(), graph.Diamond(), graph.Complete(5), graph.Complete(6)
	circ := graph.Circulant(10, 1, 2)
	edg := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	return []goldenChain{
		{"ByzantineNodes", func() (*ChainResult, error) {
			return ByzantineNodes(k5, 2, []int{0, 1}, []int{2, 3}, []int{4},
				uniformBuilders(k5, byzantine.NewMajority(2)), "majority", 8)
		}},
		{"ByzantineTriangle", func() (*ChainResult, error) {
			return ByzantineTriangle(uniformBuilders(tri, byzantine.NewEIG(1, tri.Names())), "eig", 8)
		}},
		{"ByzantineConnectivity", func() (*ChainResult, error) {
			return ByzantineConnectivity(circ, 2, []int{1, 9}, []int{2, 8}, 0, 5,
				uniformBuilders(circ, byzantine.NewMajority(3)), "majority", 10)
		}},
		{"ByzantineDiamond", func() (*ChainResult, error) {
			return ByzantineDiamond(uniformBuilders(dia, byzantine.NewOwnInput(3)), "own-input", 10)
		}},
		{"WeakAgreementRing", func() (*ChainResult, error) {
			return WeakAgreementRing(uniformBuilders(tri, weak.NewDetectDefault(3)), "detect-default", 16)
		}},
		{"WeakAgreementCutRing", func() (*ChainResult, error) {
			return WeakAgreementCutRing(dia, 1, []int{1}, []int{3}, 0, 2,
				uniformBuilders(dia, weak.NewDetectDefault(4)), "detect-default", 20)
		}},
		{"WeakAgreementNodesRing", func() (*ChainResult, error) {
			return WeakAgreementNodesRing(k5, 2, []int{0, 1}, []int{2, 3}, []int{4},
				uniformBuilders(k5, byzantine.NewMajority(3)), "majority", 16)
		}},
		{"FiringSquadNodesRing", func() (*ChainResult, error) {
			return FiringSquadNodesRing(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
				uniformBuilders(k6, firingsquad.NewCountdown(2)), "countdown-2", 24)
		}},
		{"FiringSquadRing", func() (*ChainResult, error) {
			return FiringSquadRing(uniformBuilders(tri, firingsquad.NewCountdown(2)), "countdown-2", 20)
		}},
		{"FiringSquadCutRing", func() (*ChainResult, error) {
			return FiringSquadCutRing(dia, 1, []int{1}, []int{3}, 0, 2,
				uniformBuilders(dia, firingsquad.NewCountdown(2)), "countdown-2", 30)
		}},
		{"SimpleApproxTriangle", func() (*ChainResult, error) {
			return SimpleApproxTriangle(uniformBuilders(tri, approx.NewDLPSW(1, tri.Names(), 2)), "dlpsw-2", 12)
		}},
		{"SimpleApproxConnectivity", func() (*ChainResult, error) {
			return SimpleApproxConnectivity(dia, 1, []int{1}, []int{3}, 0, 2,
				uniformBuilders(dia, approx.NewMedian(3)), "median", 12)
		}},
		{"EpsilonDeltaGamma", func() (*ChainResult, error) {
			return EpsilonDeltaGamma(edg, uniformBuilders(tri, approx.NewMedian(2)), "median", 10)
		}},
		{"EpsilonDeltaGammaNodes", func() (*ChainResult, error) {
			return EpsilonDeltaGammaNodes(edg, k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
				uniformBuilders(k6, approx.NewDLPSW(2, k6.Names(), 4)), "dlpsw", 10)
		}},
		{"EpsilonDeltaGammaConnectivity", func() (*ChainResult, error) {
			return EpsilonDeltaGammaConnectivity(edg, dia, 1, []int{1}, []int{3}, 0, 2,
				uniformBuilders(dia, approx.NewMedian(2)), "median", 10)
		}},
	}
}

// TestChainsGolden pins every chain the provers build: each link's
// name, expect text and correct/faulty sets, the spliced S-nodes, and
// every violation in order (report.txt shows only the first). Run with
// -update to rewrite testdata/chains.golden after an intended change.
func TestChainsGolden(t *testing.T) {
	var b strings.Builder
	for _, gc := range goldenChains() {
		cr, err := gc.run()
		if err != nil {
			t.Fatalf("%s: %v", gc.driver, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", gc.driver, cr)
		for _, l := range cr.Links {
			if l.Splice != nil && l.Splice.UNodes != nil {
				fmt.Fprintf(&b, "  %s spliced {%s}\n", l.Name, strings.Join(l.Splice.UNodes, ","))
			}
		}
	}
	path := filepath.Join("testdata", "chains.golden")
	if *updateChains {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("chains differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("chains differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
