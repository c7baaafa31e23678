package lint

import "testing"

func TestAliasFixture(t *testing.T) {
	runFixture(t, "flm/internal/aliasfix", []*Analyzer{Alias})
}

// TestScratchIdiomsNoFalsePositives runs the entire suite over a
// fixture mirroring the production device patterns (reusable
// device-owned buffers, kept exact-rational readings, memoized
// fingerprints, collect-then-sort drains) at a determinism-gated import
// path. Nothing may be reported.
func TestScratchIdiomsNoFalsePositives(t *testing.T) {
	runFixture(t, "flm/internal/timedsim", All())
}
