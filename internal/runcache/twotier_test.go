package runcache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// strCost is the exact cost model used by the bound tests: value length,
// no overhead, so budget arithmetic in assertions is trivial.
func strCost(v any) int64 { return int64(len(v.(string))) }

// TestL1BudgetNeverExceeded is the provable-bound acceptance test:
// insertions far past the budget must never push retained bytes over
// the configured bound, at any point, not just at the end.
func TestL1BudgetNeverExceeded(t *testing.T) {
	const budget = 4096
	c := New(WithBudget(budget), WithCost(strCost))
	val := strings.Repeat("v", 100)
	for i := 0; i < 500; i++ {
		if _, _, err := c.Do(fmt.Sprintf("k%d", i), func() (any, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.BytesRetained > budget {
			t.Fatalf("after insert %d: retained %d bytes > budget %d", i, st.BytesRetained, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("500 x 100B inserts into a 4KiB cache evicted nothing: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatalf("eviction left the cache empty: %+v", st)
	}
}

// TestEvictedKeyRecomputes: with room for two entries, a third drops
// every finished entry, and a dropped key recomputes on its next lookup.
func TestEvictedKeyRecomputes(t *testing.T) {
	c := New(WithBudget(2), WithCost(strCost))
	calls := map[string]int{}
	do := func(key string) {
		t.Helper()
		v, _, err := c.Do(key, func() (any, error) { calls[key]++; return "x", nil })
		if err != nil || v != "x" {
			t.Fatalf("Do(%s) = (%v, %v)", key, v, err)
		}
	}
	do("a")
	do("b")
	do("a") // hit: a and b fill the budget
	do("c") // drops a and b, retains c
	do("a") // recomputed; a and c fill the budget
	do("b") // recomputed; drops c and a
	if calls["a"] != 2 || calls["b"] != 2 || calls["c"] != 1 {
		t.Fatalf("computes = %v, want a:2 b:2 c:1", calls)
	}
	if st := c.Stats(); st.Evictions != 4 || st.Entries != 1 || st.BytesRetained != 1 {
		t.Fatalf("stats = %+v, want 4 evictions and only b retained", st)
	}
}

// TestBudgetIsWhole: the budget bounds the cache as a whole, so a value
// within it is retained, and SetBudget's restore brings back the exact
// prior budget: two values that fill it to the byte stay retained.
func TestBudgetIsWhole(t *testing.T) {
	c := New(WithBudget(1000), WithCost(strCost))
	calls := 0
	for i := 0; i < 2; i++ {
		c.Do("half", func() (any, error) { calls++; return strings.Repeat("h", 500), nil })
	}
	if st := c.Stats(); calls != 1 || st.BytesRetained != 500 {
		t.Fatalf("500-byte value under a 1000-byte budget: %d computes, stats %+v; want 1 compute, 500 bytes retained", calls, st)
	}
	c.SetBudget(250)()
	c.Do("a", func() (any, error) { return strings.Repeat("a", 500), nil })
	c.Do("b", func() (any, error) { return strings.Repeat("b", 500), nil })
	if st := c.Stats(); st.BytesRetained != 1000 || st.Evictions != 1 {
		t.Fatalf("after restoring the 1000-byte budget, two 500-byte values: %+v; want 1000 bytes retained and only SetBudget(250)'s eviction", st)
	}
}

// TestDropKeepsInFlight: a budget drop removes only finished entries,
// so a flight still computing when the budget overflows keeps its
// waiters and later callers on the one computation.
func TestDropKeepsInFlight(t *testing.T) {
	c := New(WithBudget(2), WithCost(strCost))
	computing, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	compute := func() (any, error) {
		if calls.Add(1) == 1 {
			close(computing)
			<-release
		}
		return "k", nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do("k", compute)
	}()
	<-computing
	for _, key := range []string{"a", "b", "c"} {
		c.Do(key, func() (any, error) { return "x", nil }) // "c" drops a and b
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("stats = %+v, want a and b dropped", st)
	}
	var how How
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, how, _ = c.Do("k", compute)
	}()
	for c.Stats().Waits < 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 || how != Waited {
		t.Fatalf("after a drop: %d computes of the in-flight key, late caller served %v; want 1 compute, wait", n, how)
	}
}

// TestUnboundedNeverDrops: a negative budget retains every finished
// entry.
func TestUnboundedNeverDrops(t *testing.T) {
	c := New(WithBudget(-1), WithCost(strCost))
	for i := 0; i < 100; i++ {
		c.Do(fmt.Sprintf("k%d", i), func() (any, error) { return strings.Repeat("v", 100), nil })
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 100 || st.BytesRetained != 10000 {
		t.Fatalf("unbounded cache after 100 x 100B inserts: %+v, want all retained", st)
	}
}

// TestBudgetZeroRetainsNothing: budget 0 is the "cache off but still
// single-flight" mode — results identical to FLM_RUNCACHE=off (every
// lookup computes, nothing retained) while concurrent callers of one key
// still coalesce onto one computation.
func TestBudgetZeroRetainsNothing(t *testing.T) {
	c := New(WithBudget(0))
	calls := 0
	for i := 0; i < 3; i++ {
		v, _, err := c.Do("k", func() (any, error) { calls++; return fmt.Sprintf("v%d", calls), nil })
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d", i+1); v != want {
			t.Fatalf("call %d served %v, want fresh %s", i, v, want)
		}
		if st := c.Stats(); st.Entries != 0 || st.BytesRetained != 0 {
			t.Fatalf("budget-zero cache retained state: %+v", st)
		}
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times, want 3 (nothing retained)", calls)
	}

	// Single-flight must still hold.
	var inFlight atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("sf", func() (any, error) {
				inFlight.Add(1)
				<-release
				return "shared", nil
			})
			if err != nil || v != "shared" {
				t.Errorf("Do = (%v, %v)", v, err)
			}
		}()
	}
	for c.Stats().Waits < 7 {
		// Spin until every waiter has piled onto the flight; bounded by
		// the test timeout.
	}
	close(release)
	wg.Wait()
	if n := inFlight.Load(); n != 1 {
		t.Fatalf("budget-zero cache ran %d concurrent computes, want 1 (single flight)", n)
	}
}

// TestWaitersSurviveReset: a flight whose entry is removed (Reset, or
// equivalently eviction) while waiters are blocked on it must still
// deliver its value to every waiter, and the next lookup recomputes.
func TestWaitersSurviveReset(t *testing.T) {
	c := New()
	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do("k", func() (any, error) {
			close(computing)
			<-release
			return "first", nil
		})
		if err != nil || v != "first" {
			t.Errorf("owner Do = (%v, %v)", v, err)
		}
	}()
	<-computing

	const waiters = 4
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = c.Do("k", func() (any, error) { return "wrong-flight", nil })
		}(i)
	}
	for c.Stats().Waits < waiters {
		// Spin until all waiters hold the entry.
	}

	c.Reset() // rips the in-flight entry out of the map
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != "first" {
			t.Fatalf("waiter %d got %v after Reset, want the original flight's value", i, v)
		}
	}

	calls := 0
	if v, _, _ := c.Do("k", func() (any, error) { calls++; return "second", nil }); v != "second" || calls != 1 {
		t.Fatalf("post-Reset Do = %v (calls %d), want fresh second/1", v, calls)
	}
}

// TestOversizeValueNotRetained: a value larger than the whole budget is
// returned but never retained — and must not evict the entries that do
// fit.
func TestOversizeValueNotRetained(t *testing.T) {
	c := New(WithBudget(100), WithCost(strCost))
	c.Do("small", func() (any, error) { return "s", nil })
	v, _, err := c.Do("huge", func() (any, error) { return strings.Repeat("h", 1000), nil })
	if err != nil || len(v.(string)) != 1000 {
		t.Fatalf("oversize Do = (%d bytes, %v)", len(v.(string)), err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.BytesRetained != 1 {
		t.Fatalf("stats after oversize insert = %+v, want only the small entry resident", st)
	}
	calls := 0
	c.Do("small", func() (any, error) { calls++; return "s", nil })
	if calls != 0 {
		t.Fatal("oversize insert evicted the resident small entry")
	}
}

// TestSetBudgetEvictsAndRestores: shrinking the budget below the retained
// bytes evicts immediately; the restore function reinstates the old
// bound.
func TestSetBudgetEvictsAndRestores(t *testing.T) {
	c := New(WithBudget(1000), WithCost(strCost))
	for i := 0; i < 5; i++ {
		c.Do(fmt.Sprintf("k%d", i), func() (any, error) { return strings.Repeat("v", 100), nil })
	}
	if st := c.Stats(); st.BytesRetained != 500 {
		t.Fatalf("retained %d bytes, want 500", st.BytesRetained)
	}
	restore := c.SetBudget(250)
	if st := c.Stats(); st.BytesRetained > 250 {
		t.Fatalf("SetBudget(250) left %d bytes retained", st.BytesRetained)
	}
	restore()
	for i := 0; i < 5; i++ {
		c.Do(fmt.Sprintf("r%d", i), func() (any, error) { return strings.Repeat("w", 100), nil })
	}
	if st := c.Stats(); st.BytesRetained < 500 {
		t.Fatalf("restored budget retains only %d bytes, want >= 500", st.BytesRetained)
	}
}

// TestConcurrentEvictionSingleFlight is the -race stress test of the
// eviction/single-flight interaction: many goroutines over a key space
// far larger than a tiny budget, every lookup validating that it got its
// own key's value — never another flight's — while eviction churns
// constantly.
func TestConcurrentEvictionSingleFlight(t *testing.T) {
	c := New(WithBudget(256), WithCost(strCost))
	const (
		goroutines = 8
		iterations = 400
		keySpace   = 32
	)
	keys := make([]string, keySpace)
	vals := make(map[string]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		vals[keys[i]] = fmt.Sprintf("val-%d-%s", i, strings.Repeat("x", 16))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := keys[(g*31+i)%keySpace]
				v, _, err := c.Do(k, func() (any, error) { return vals[k], nil })
				if err != nil {
					t.Errorf("Do(%d): %v", i, err)
					return
				}
				if v != vals[k] {
					t.Errorf("Do returned another key's value: got %v want %v", v, vals[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesRetained > 256 {
		t.Fatalf("retained %d bytes > 256 budget after concurrent churn", st.BytesRetained)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under 32x%d-key churn against a 256B budget", goroutines)
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in    string
		bytes int64
		ok    bool
	}{
		{"", DefaultBudget, true},
		{"unbounded", -1, true},
		{"UNLIMITED", -1, true},
		{"-3", -1, true},
		{"0", 0, true},
		{"123", 123, true},
		{"64k", 64 << 10, true},
		{"64K", 64 << 10, true},
		{"64KiB", 64 << 10, true},
		{"10mb", 10 << 20, true},
		{"2G", 2 << 30, true},
		{" 5 MiB ", 5 << 20, true},
		{"nonsense", 0, false},
		{"12q", 0, false},
		{"8589934591g", 8589934591 << 30, true}, // the largest whole-GiB budget
		{"17179869184g", 0, false},              // 2^64 bytes: wrapped to 0
		{"8589934592g", 0, false},               // 2^63 bytes: wrapped to MinInt64
		{"9223372036854775807k", 0, false},      // wrapped to -1024, "unbounded"
	}
	for _, tc := range cases {
		got, ok := ParseBudget(tc.in)
		if got != tc.bytes || ok != tc.ok {
			t.Errorf("ParseBudget(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.bytes, tc.ok)
		}
	}
}
