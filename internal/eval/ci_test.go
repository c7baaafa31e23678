package eval

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"testing"

	"flm/internal/chaos"
)

// The chaos smoke commands are pinned in four places: the exported
// constants in internal/chaos, the E18/E20 experiments here, the CI
// workflow file, and the Makefile defaults. The chaos and eval sides
// are tied by construction (the consts alias chaos's); these tests
// parse the two config files so the remaining legs cannot drift
// silently either.

// chaosInvocation captures one `flm chaos` command line's pinned knobs.
type chaosInvocation struct {
	seed   int64
	trials int
	async  bool
}

// chaosCommands extracts every `flm chaos` invocation from a file. The
// seed/trials flags may appear in either order; -async marks the
// adversarial-asynchrony smoke.
func chaosCommands(t *testing.T, path string) []chaosInvocation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)flm chaos[^\n]*`)
	seedRe := regexp.MustCompile(`-seed\s+\$?\(?([A-Z_0-9]+\)?|\d+)`)
	trialsRe := regexp.MustCompile(`-trials\s+(\d+)`)
	seedNum := regexp.MustCompile(`-seed\s+(\d+)`)
	var out []chaosInvocation
	for _, cmd := range line.FindAllString(string(data), -1) {
		inv := chaosInvocation{async: regexp.MustCompile(`-async\b`).MatchString(cmd)}
		if m := seedNum.FindStringSubmatch(cmd); m != nil {
			n, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: bad seed in %q: %v", path, cmd, err)
			}
			inv.seed = n
		} else if seedRe.MatchString(cmd) {
			// Variable reference (Makefile recipe body) — resolved by
			// the caller against the file's defaults.
			inv.seed = -1
		} else {
			t.Fatalf("%s: chaos command without a -seed flag: %q", path, cmd)
		}
		if m := trialsRe.FindStringSubmatch(cmd); m != nil {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatalf("%s: bad trials in %q: %v", path, cmd, err)
			}
			inv.trials = n
		} else {
			inv.trials = -1
		}
		out = append(out, inv)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no `flm chaos` commands found", path)
	}
	return out
}

// TestCIChaosSmokePinned: the workflow's two chaos smoke runs use
// exactly the exported pinned pairs (and therefore exactly what E18 and
// E20 record).
func TestCIChaosSmokePinned(t *testing.T) {
	syncSeen, asyncSeen := false, false
	for _, inv := range chaosCommands(t, "../../.github/workflows/ci.yml") {
		if inv.async {
			asyncSeen = true
			if inv.seed != chaos.AsyncSmokeSeed || inv.trials != chaos.AsyncSmokeTrials {
				t.Errorf("CI async chaos smoke runs seed=%d trials=%d, pinned pair is seed=%d trials=%d",
					inv.seed, inv.trials, chaos.AsyncSmokeSeed, chaos.AsyncSmokeTrials)
			}
		} else {
			syncSeen = true
			if inv.seed != chaos.SmokeSeed || inv.trials != chaos.SmokeTrials {
				t.Errorf("CI chaos smoke runs seed=%d trials=%d, pinned pair is seed=%d trials=%d",
					inv.seed, inv.trials, chaos.SmokeSeed, chaos.SmokeTrials)
			}
		}
	}
	if !syncSeen {
		t.Error("CI workflow has no synchronous chaos smoke run")
	}
	if !asyncSeen {
		t.Error("CI workflow has no async chaos smoke run")
	}
}

// TestMakefileChaosDefaultsPinned: the Makefile's CHAOS_* and
// ASYNC_CHAOS_* defaults match the exported constants, so `make chaos`
// and `make chaos-async` reproduce CI bit for bit.
func TestMakefileChaosDefaultsPinned(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"CHAOS_SEED":         fmt.Sprint(chaos.SmokeSeed),
		"CHAOS_TRIALS":       fmt.Sprint(chaos.SmokeTrials),
		"ASYNC_CHAOS_SEED":   fmt.Sprint(chaos.AsyncSmokeSeed),
		"ASYNC_CHAOS_TRIALS": fmt.Sprint(chaos.AsyncSmokeTrials),
	}
	for name, val := range want {
		re := regexp.MustCompile(`(?m)^` + name + `\s*\?=\s*(\S+)`)
		m := re.FindStringSubmatch(string(data))
		if m == nil {
			t.Errorf("Makefile has no %s ?= default", name)
			continue
		}
		if m[1] != val {
			t.Errorf("Makefile %s ?= %s, pinned value is %s", name, m[1], val)
		}
	}
}

// TestCIObservabilitySmokePinned: the workflow's trace-smoke job runs
// all three observability legs — the stats summary, the trace-diff
// regression gate, and the live-endpoint smoke — so none of them can be
// dropped without this test noticing.
func TestCIObservabilitySmokePinned(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"make trace-smoke", "make trace-diff", "make obs-smoke"} {
		if !regexp.MustCompile(`(?m)run:\s+` + target + `\b`).Match(data) {
			t.Errorf("CI workflow no longer runs %q", target)
		}
	}
}

// TestCIPerfbenchPinned: the workflow builds, vets and tests the
// separate perfbench module and runs its catalog listing. Tier-1 never
// builds that module, so this job is the only thing that catches a
// library change breaking the benchmark.
func TestCIPerfbenchPinned(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^  perfbench:$`).Match(data) {
		t.Error("CI workflow has no perfbench job")
	}
	for _, cmd := range []string{
		`cd perfbench && go vet ./... && go test ./...`,
		`bash perfbench/run.sh --list`,
	} {
		if !regexp.MustCompile(`(?m)run:\s+` + regexp.QuoteMeta(cmd) + `$`).Match(data) {
			t.Errorf("CI workflow no longer runs %q", cmd)
		}
	}
}

// TestCIFuzzPinned: the workflow runs the time-boxed fuzzers, the
// Makefile target keeps its five targets (RunCodec, ParseBudget,
// DecodePiece, QArith, then ParseQ) and their time boxes, and the seed
// corpora tier-1 replays are committed.
func TestCIFuzzPinned(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^  fuzz:$`).Match(ci) || !regexp.MustCompile(`(?m)run:\s+make fuzz$`).Match(ci) {
		t.Error("CI workflow has no fuzz job running `make fuzz`")
	}
	if !regexp.MustCompile(`(?m)^    name: fuzz \(RunCodec, ParseBudget, DecodePiece, QArith, ParseQ; 10s each\)$`).Match(ci) {
		t.Error("CI fuzz job's name no longer lists its five targets")
	}
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := `(?m)^fuzz:\n` +
		`\t\$\(GO\) test ./internal/sim -run '\^\$\$' -fuzz '\^FuzzRunCodec\$\$' -fuzztime 10s\n` +
		`\t\$\(GO\) test ./internal/runcache -run '\^\$\$' -fuzz '\^FuzzParseBudget\$\$' -fuzztime 10s\n` +
		`\t\$\(GO\) test ./internal/dolev -run '\^\$\$' -fuzz '\^FuzzDecodePiece\$\$' -fuzztime 10s\n` +
		`\t\$\(GO\) test ./internal/clockfn -run '\^\$\$' -fuzz '\^FuzzQArith\$\$' -fuzztime 10s\n` +
		`\t\$\(GO\) test ./internal/clockfn -run '\^\$\$' -fuzz '\^FuzzParseQ\$\$' -fuzztime 10s$`
	if !regexp.MustCompile(recipe).Match(mk) {
		t.Error("Makefile fuzz target no longer runs FuzzRunCodec, FuzzParseBudget, FuzzDecodePiece, FuzzQArith and FuzzParseQ for 10s each")
	}
	for _, dir := range []string{
		"../sim/testdata/fuzz/FuzzRunCodec",
		"../runcache/testdata/fuzz/FuzzParseBudget",
		"../dolev/testdata/fuzz/FuzzDecodePiece",
		"../clockfn/testdata/fuzz/FuzzQArith",
		"../clockfn/testdata/fuzz/FuzzParseQ",
	} {
		corpus, err := os.ReadDir(dir)
		if err != nil || len(corpus) == 0 {
			t.Errorf("seed corpus %s missing (%v)", dir, err)
		}
	}
}

// TestMakefileLintGofmtPinned: `make lint` (which CI's lint job runs)
// runs the gofmt of the toolchain $(GO) names, fails if gofmt itself
// fails, and fails on any file gofmt -l lists, with only the flmlint
// analyzer fixtures under internal/lint/testdata excluded.
func TestMakefileLintGofmtPinned(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := `(?m)^lint:\n(?:\t.*\n)*` +
		`\t@listed=\$\$\("\$\$\(\$\(GO\) env GOROOT\)/bin/gofmt" -l \.\) \|\| exit 1; \\\n` +
		`\tunformatted=\$\$\(printf '%s\\n' "\$\$listed" \| grep -v '\^internal/lint/testdata/'\); \\\n` +
		`\ttest -z "\$\$unformatted" \|\| \{[^\n]*exit 1; \}$`
	if !regexp.MustCompile(recipe).Match(mk) {
		t.Error("Makefile lint target no longer fails when the toolchain's gofmt -l fails or lists a file outside internal/lint/testdata")
	}
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^  lint:$`).Match(ci) || !regexp.MustCompile(`(?m)run:\s+make lint$`).Match(ci) {
		t.Error("CI workflow has no lint job running `make lint`")
	}
}

// TestMakefileTraceDiffPinned: the trace-diff target keeps its three
// legs (self-diff, committed reference, injected regression expecting
// exit 3) against the committed fixtures, and the fixtures exist. The
// obs-smoke target keeps its three endpoint curls.
func TestMakefileTraceDiffPinned(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{
		"cmd/flm/testdata/e1_reference_trace.jsonl",
		"cmd/flm/testdata/e1_regressed_trace.jsonl",
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(fixture)).Match(data) {
			t.Errorf("Makefile no longer references the committed fixture %s", fixture)
		}
		if _, err := os.Stat("../../" + fixture); err != nil {
			t.Errorf("committed fixture missing: %v", err)
		}
	}
	for name, pattern := range map[string]string{
		"trace-diff self-diff":          `stats -diff \$\(TRACE_DIFF_FILE\) \$\(TRACE_DIFF_FILE\)`,
		"trace-diff reference leg":      `stats -diff -notiming -threshold \$\(TRACE_DIFF_THRESHOLD\) \$\(TRACE_REF\)`,
		"trace-diff exit-3 expectation": `test \$\$status -eq 3`,
		"obs-smoke healthz curl":        `/healthz`,
		"obs-smoke metrics curl":        `/metrics`,
		"obs-smoke progress curl":       `/progress`,
		"obs-smoke prometheus check":    `\^flm_`,
	} {
		if !regexp.MustCompile(pattern).Match(data) {
			t.Errorf("Makefile lost the %s leg (pattern %q)", name, pattern)
		}
	}
}

// TestMakefileCacheWarmPinned: the cache-warm target (which CI's
// cache-warm job runs) keeps its legs: a cold and a warm `flm all`
// against one FLM_CACHE_DIR with identical reports, a third run with
// both cache tiers off whose report matches the cold one, and the
// disk-rate gate on the warm run's trace.
func TestMakefileCacheWarmPinned(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := `(?m)^cache-warm:\n` +
		`\trm -rf \$\(CACHE_WARM_DIR\)\n` +
		`\tFLM_CACHE_DIR=\$\(CACHE_WARM_DIR\) \$\(GO\) run ./cmd/flm all > (\S+)\n` +
		`\tFLM_CACHE_DIR=\$\(CACHE_WARM_DIR\) \$\(GO\) run ./cmd/flm all -trace (\S+) > (\S+)\n` +
		`\tdiff (\S+) (\S+)\n` +
		`\tFLM_RUNCACHE=off FLM_CACHE_DIR=off \$\(GO\) run ./cmd/flm all > (\S+)\n` +
		`\tdiff (\S+) (\S+)\n` +
		`\t\$\(GO\) run ./cmd/flm stats -mindiskrate \$\(CACHE_WARM_MIN_RATE\) (\S+) `
	m := regexp.MustCompile(recipe).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile cache-warm target lost a leg: cold run, warm run, warm/cold diff, caches-off run, off/cold diff, disk-rate gate")
	}
	cold, trace, warm, off := string(m[1]), string(m[2]), string(m[3]), string(m[6])
	if string(m[4]) != cold || string(m[5]) != warm {
		t.Errorf("cache-warm diffs %s against %s, want the cold report %s against the warm one %s", m[4], m[5], cold, warm)
	}
	if string(m[7]) != cold || string(m[8]) != off {
		t.Errorf("cache-warm diffs %s against %s, want the cold report %s against the caches-off one %s", m[7], m[8], cold, off)
	}
	if string(m[9]) != trace {
		t.Errorf("cache-warm gates the disk rate of %s, want the warm run's trace %s", m[9], trace)
	}
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^  cache-warm:$`).Match(ci) || !regexp.MustCompile(`(?m)run:\s+make cache-warm\b`).Match(ci) {
		t.Error("CI workflow has no cache-warm job running `make cache-warm`")
	}
}

// TestExperimentConstsPinned: E18/E20 run the exact smoke pairs. The
// consts alias chaos's, so this is a tripwire against someone
// re-hardcoding them.
func TestExperimentConstsPinned(t *testing.T) {
	if e18Seed != chaos.SmokeSeed || e18Trials != chaos.SmokeTrials {
		t.Errorf("E18 uses seed=%d trials=%d, pinned pair is seed=%d trials=%d",
			e18Seed, e18Trials, chaos.SmokeSeed, chaos.SmokeTrials)
	}
	if e20Seed != chaos.AsyncSmokeSeed || e20Trials != chaos.AsyncSmokeTrials {
		t.Errorf("E20 uses seed=%d trials=%d, pinned pair is seed=%d trials=%d",
			e20Seed, e20Trials, chaos.AsyncSmokeSeed, chaos.AsyncSmokeTrials)
	}
}
