package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFixture(entries ...BenchEntry) *BenchReport {
	return &BenchReport{Date: "2026-08-06", Entries: entries}
}

func TestCompareReportsDeltasAndGate(t *testing.T) {
	base := benchFixture(
		BenchEntry{ID: "E1", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
		BenchEntry{ID: "E2", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
		BenchEntry{ID: "gone", NsPerOp: 5, AllocsPerOp: 5, BytesPerOp: 5},
	)
	cur := benchFixture(
		BenchEntry{ID: "E1", NsPerOp: 500, AllocsPerOp: 30, BytesPerOp: 4000},    // improved
		BenchEntry{ID: "E2", NsPerOp: 1200, AllocsPerOp: 120, BytesPerOp: 10000}, // +20% ns and allocs
		BenchEntry{ID: "E18", NsPerOp: 7, AllocsPerOp: 7, BytesPerOp: 7},         // new, no baseline
	)

	var b strings.Builder
	if regressed := compareReports(&b, cur, base, "base.json", 0); regressed {
		t.Fatal("threshold 0 must be report-only, got a regression verdict")
	}
	out := b.String()
	for _, want := range []string{"E1", "-50.0%", "-70.0%", "-60.0%", "new entry", "present in baseline only"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("report-only mode flagged a regression:\n%s", out)
	}

	b.Reset()
	if regressed := compareReports(&b, cur, base, "base.json", 5); !regressed {
		t.Fatal("E2's +20%% allocs/op must trip a 5%% threshold")
	}
	if !strings.Contains(b.String(), "REGRESSION") {
		t.Fatalf("regressed entry not flagged:\n%s", b.String())
	}

	b.Reset()
	if regressed := compareReports(&b, cur, base, "base.json", 25); regressed {
		t.Fatal("a 25%% threshold must tolerate E2's +20%%")
	}

	// Wall-clock alone must not gate: ns/op is flagged for a human but
	// shared-machine scheduling noise cannot fail the build.
	nsOnly := benchFixture(
		BenchEntry{ID: "E2", NsPerOp: 1200, AllocsPerOp: 100, BytesPerOp: 10000}, // +20% ns only
	)
	b.Reset()
	if regressed := compareReports(&b, nsOnly, base, "base.json", 5); regressed {
		t.Fatalf("ns-only delta must not gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "ns regression (not gated)") {
		t.Fatalf("ns-only delta not flagged for review:\n%s", b.String())
	}
}

func TestPctDelta(t *testing.T) {
	cases := []struct{ cur, old, want float64 }{
		{150, 100, 50},
		{50, 100, -50},
		{0, 0, 0},
		{10, 0, 100},
	}
	for _, c := range cases {
		if got := pctDelta(c.cur, c.old); got != c.want {
			t.Fatalf("pctDelta(%v, %v) = %v, want %v", c.cur, c.old, got, c.want)
		}
	}
}

// TestBenchCompareCLI exercises the full flag path on one micro
// workload... too slow for unit tests; instead, verify the baseline
// loader and the exit-code plumbing with a crafted baseline that cannot
// regress (all zeros would read +100%, so use huge values).
func TestLoadBenchReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	r := benchFixture(BenchEntry{ID: "E1", NsPerOp: 1, AllocsPerOp: 1, BytesPerOp: 1})
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].ID != "E1" {
		t.Fatalf("loaded %+v, want the E1 fixture", got)
	}
	if _, err := loadBenchReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline must error")
	}
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchReport(path); err == nil {
		t.Fatal("malformed baseline must error")
	}
}
