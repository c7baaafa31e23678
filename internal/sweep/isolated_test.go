package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkersEnvParsingTable pins the FLM_WORKERS fallback contract:
// empty and "0" are valid spellings of the GOMAXPROCS default (no
// warning), while malformed or negative values fall back with a one-time
// warning.
func TestWorkersEnvParsingTable(t *testing.T) {
	old := os.Getenv(WorkersEnv)
	defer os.Setenv(WorkersEnv, old)
	SetWorkers(0)

	def := runtime.GOMAXPROCS(0)
	cases := []struct {
		env  string
		want int
		warn bool
	}{
		{env: "", want: def, warn: false},
		{env: "0", want: def, warn: false},
		{env: "-3", want: def, warn: true},
		{env: "abc", want: def, warn: true},
		{env: "4", want: 4, warn: false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("env=%q", tc.env), func(t *testing.T) {
			var warned []string
			warnOnce = sync.Once{} // reset the one-time gate per case
			oldWarn := warnf
			warnf = func(format string, args ...any) {
				warned = append(warned, fmt.Sprintf(format, args...))
			}
			defer func() { warnf = oldWarn }()

			os.Setenv(WorkersEnv, tc.env)
			if got := Workers(); got != tc.want {
				t.Errorf("Workers() = %d, want %d", got, tc.want)
			}
			if tc.warn && len(warned) != 1 {
				t.Errorf("want exactly one warning, got %v", warned)
			}
			if !tc.warn && len(warned) != 0 {
				t.Errorf("unexpected warning %v", warned)
			}
			if tc.warn {
				if !strings.Contains(warned[0], tc.env) {
					t.Errorf("warning %q does not name the bad value %q", warned[0], tc.env)
				}
				// The warning must fire only once per process.
				Workers()
				if len(warned) != 1 {
					t.Errorf("warning repeated: %v", warned)
				}
			}
		})
	}
}

// TestIsolatedPanicIsolation: a panicking trial in a 64-trial sweep
// yields a structured *TrialFault for its own index while every other
// trial completes.
func TestIsolatedPanicIsolation(t *testing.T) {
	const n, bad = 64, 17
	var ran atomic.Int64
	results, errs := Isolated(context.Background(), n, Opts{Workers: 4}, func(i int) (int, error) {
		ran.Add(1)
		if i == bad {
			panic("deliberate chaos")
		}
		return i * 2, nil
	})
	if got := ran.Load(); got != n {
		t.Fatalf("only %d/%d trials ran; a panic cancelled the sweep", got, n)
	}
	for i := 0; i < n; i++ {
		if i == bad {
			var tf *TrialFault
			if !errors.As(errs[i], &tf) {
				t.Fatalf("trial %d error %v is not *TrialFault", i, errs[i])
			}
			if tf.Trial != bad || tf.Panic != "deliberate chaos" || len(tf.Stack) == 0 {
				t.Errorf("fault misattributed: %+v", tf)
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("healthy trial %d failed: %v", i, errs[i])
		}
		if results[i] != i*2 {
			t.Errorf("result[%d] = %d, want %d", i, results[i], i*2)
		}
	}
	if idx, err := FirstError(errs); idx != bad || err == nil {
		t.Errorf("FirstError = (%d, %v), want (%d, fault)", idx, err, bad)
	}
	if c := faultCount(errs); c != 1 {
		t.Errorf("faultCount = %d, want 1", c)
	}
}

// TestIsolatedTimeoutIsolation: an infinite-looping trial is abandoned at
// its budget with a Timeout fault; the other 63 trials complete.
func TestIsolatedTimeoutIsolation(t *testing.T) {
	const n, bad = 64, 5
	stop := make(chan struct{}) // lets the stray goroutine exit at test end
	defer close(stop)
	results, errs := Isolated(context.Background(), n, Opts{Workers: 4, Timeout: 50 * time.Millisecond},
		func(i int) (int, error) {
			if i == bad {
				<-stop // "infinite" loop: blocks far past the budget
			}
			return i + 1, nil
		})
	var tf *TrialFault
	if !errors.As(errs[bad], &tf) {
		t.Fatalf("looping trial error %v is not *TrialFault", errs[bad])
	}
	if !tf.Timeout || tf.Trial != bad || tf.Budget != 50*time.Millisecond {
		t.Errorf("fault = %+v, want timeout of trial %d", tf, bad)
	}
	for i := 0; i < n; i++ {
		if i == bad {
			continue
		}
		if errs[i] != nil || results[i] != i+1 {
			t.Errorf("healthy trial %d: result=%d err=%v", i, results[i], errs[i])
		}
	}
}

// TestIsolatedWrapsPlainErrors: ordinary trial errors come back as
// TrialFaults with the original error reachable via errors.Is.
func TestIsolatedWrapsPlainErrors(t *testing.T) {
	sentinel := errors.New("ordinary failure")
	_, errs := Isolated(context.Background(), 8, Opts{Workers: 2}, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(errs[3], sentinel) {
		t.Fatalf("trial error %v lost its cause", errs[3])
	}
	var tf *TrialFault
	if !errors.As(errs[3], &tf) || tf.Trial != 3 {
		t.Fatalf("trial error %v not attributed", errs[3])
	}
}

// TestIsolatedCancellation: a cancelled context stops new trials; the
// unstarted ones carry ctx-wrapped faults.
func TestIsolatedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1024)
	_, errs := Isolated(ctx, 1024, Opts{Workers: 2}, func(i int) (int, error) {
		started <- struct{}{}
		if i == 0 {
			cancel()
		}
		return i, nil
	})
	if len(started) == 1024 {
		t.Fatal("cancellation did not stop the sweep")
	}
	cancelled := 0
	for _, err := range errs {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no trial reported the cancellation")
	}
}

// TestIsolatedDeterministicResults: isolation must not perturb result
// ordering — same inputs, same outputs, any worker count.
func TestIsolatedDeterministicResults(t *testing.T) {
	run := func(workers int) []int {
		results, errs := Isolated(context.Background(), 100, Opts{Workers: workers},
			func(i int) (int, error) { return i * i, nil })
		if _, err := FirstError(errs); err != nil {
			t.Fatal(err)
		}
		return results
	}
	one, four := run(1), run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, one[i], four[i])
		}
	}
}
