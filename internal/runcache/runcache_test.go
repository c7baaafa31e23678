package runcache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCachesValues(t *testing.T) {
	c := New()
	calls := 0
	compute := func() (any, error) { calls++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, _, err := c.Do("k", compute)
		if err != nil || v != "v" {
			t.Fatalf("Do #%d = (%v, %v), want (v, nil)", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
}

func TestDoKeysAreIndependent(t *testing.T) {
	c := New()
	a, _, _ := c.Do("a", func() (any, error) { return 1, nil })
	b, _, _ := c.Do("b", func() (any, error) { return 2, nil })
	if a != 1 || b != 2 {
		t.Fatalf("Do(a)=%v Do(b)=%v, want 1 and 2", a, b)
	}
}

func TestDoErrorsAreNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	calls := 0
	v, _, err := c.Do("k", func() (any, error) { calls++; return "partial", boom })
	if !errors.Is(err, boom) || v != "partial" {
		t.Fatalf("first Do = (%v, %v), want (partial, boom)", v, err)
	}
	// The failed flight must not be retained: the next call recomputes.
	v, _, err = c.Do("k", func() (any, error) { calls++; return "good", nil })
	if err != nil || v != "good" {
		t.Fatalf("second Do = (%v, %v), want (good, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors retried)", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (only the successful flight retained)", st.Entries)
	}
}

func TestDoPanicsAreNotCached(t *testing.T) {
	c := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Do swallowed the compute panic")
			}
		}()
		c.Do("k", func() (any, error) { panic("kaboom") })
	}()
	v, _, err := c.Do("k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("Do after panic = (%v, %v), want (ok, nil)", v, err)
	}
}

// TestDoSingleFlight hammers one key from many goroutines and demands
// exactly one computation; run under -race this is also the publication
// safety check for the done-channel handoff.
func TestDoSingleFlight(t *testing.T) {
	c := New()
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() (any, error) {
				calls.Add(1)
				<-release // hold the flight open so everyone piles up
				return "shared", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("waiter %d got %v, want shared", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, waiters-1)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Do("k", func() (any, error) { return 1, nil })
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after Reset = %+v, want zeroes", st)
	}
	calls := 0
	c.Do("k", func() (any, error) { calls++; return 1, nil })
	if calls != 1 {
		t.Fatal("Reset did not drop the entry")
	}
}

func TestSetEnabled(t *testing.T) {
	restore := SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() = true after SetEnabled(false)")
	}
	inner := SetEnabled(true)
	if !Enabled() {
		t.Fatal("Enabled() = false after SetEnabled(true)")
	}
	inner()
	if Enabled() {
		t.Fatal("restore did not reinstate the outer override")
	}
	restore()
}

func TestHasherFieldBoundaries(t *testing.T) {
	// "ab"+"c" and "a"+"bc" must hash differently: fields are
	// length-delimited, not concatenated.
	h1 := NewHasher("t")
	h1.Field("ab")
	h1.Field("c")
	h2 := NewHasher("t")
	h2.Field("a")
	h2.Field("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("field boundaries are not part of the hash")
	}
	h3 := NewHasher("t")
	h3.Field("ab")
	h3.Field("c")
	if h1.Sum() != h3.Sum() {
		t.Fatal("identical field sequences hash differently")
	}
}

// TestDoHowOutcomes: the first lookup computes, the repeat is a hit that
// never runs compute, and the counters agree.
func TestDoHowOutcomes(t *testing.T) {
	c := New()
	v, how, err := c.Do("k", func() (any, error) { return 42, nil })
	if err != nil || v != 42 || how != Computed {
		t.Fatalf("first call: v=%v how=%v err=%v, want 42/miss/nil", v, how, err)
	}
	v, how, err = c.Do("k", func() (any, error) {
		t.Fatal("compute ran on a hit")
		return nil, nil
	})
	if err != nil || v != 42 || how != Hit {
		t.Fatalf("second call: v=%v how=%v err=%v, want 42/hit/nil", v, how, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Waits != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 waits", st)
	}
}

func TestDoHowErrorNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, how, err := c.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || how != Computed || v != "fresh" {
		t.Fatalf("after error: v=%v how=%v err=%v, want fresh recompute", v, how, err)
	}
}

// TestDoHowWaiters drives the single-flight path: concurrent callers of
// one key must all get the value, and the late ones must report Waited
// (they blocked on the in-flight compute). The compute holds until
// every goroutine has launched.
func TestDoHowWaiters(t *testing.T) {
	c := New()
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do("k", func() (any, error) {
			close(started)
			<-release
			return "v", nil
		})
	}()
	<-started

	const waiters = 4
	var wg sync.WaitGroup
	outcomes := make(chan How, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := c.Do("k", func() (any, error) {
				t.Error("compute ran twice for one key")
				return nil, nil
			})
			if err != nil || v != "v" {
				t.Errorf("waiter got v=%v err=%v", v, err)
			}
			outcomes <- how
		}()
	}
	// Do increments Waits before blocking on the in-flight compute,
	// so once the counter reaches the waiter count every waiter is
	// committed to the waited path; only then release the compute.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Waits < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: Waits = %d, want %d", c.Stats().Waits, waiters)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(outcomes)
	for how := range outcomes {
		if how != Waited {
			t.Errorf("a waiter reported %v despite blocking on the held compute", how)
		}
	}
	if got := c.Stats().Waits; got != waiters {
		t.Fatalf("Stats().Waits = %d, want %d", got, waiters)
	}
}

func TestStatsSinceAndHitRate(t *testing.T) {
	prev := Stats{Hits: 10, Misses: 4, Waits: 1, Entries: 4}
	cur := Stats{Hits: 25, Misses: 9, Waits: 3, Entries: 9}
	d := cur.Since(prev)
	if d.Hits != 15 || d.Misses != 5 || d.Waits != 2 {
		t.Fatalf("Since = %+v, want 15 hits / 5 misses / 2 waits", d)
	}
	if d.Entries != 9 {
		t.Fatalf("Since.Entries = %d, want current entry count 9 (entries are a level, not a flow)", d.Entries)
	}
	if got := d.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Fatalf("empty HitRate = %v, want 0", got)
	}
}

// TestSinceSurvivesReset is the per-command isolation contract: a
// snapshot taken before a Reset never makes later deltas go negative —
// callers snapshot after Reset, and Since of two post-Reset snapshots
// is exact.
func TestSinceSurvivesReset(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		_, _, _ = c.Do("a", func() (any, error) { return 1, nil })
	}
	c.Reset()
	base := c.Stats()
	if base.Hits != 0 || base.Misses != 0 || base.Waits != 0 {
		t.Fatalf("post-reset stats = %+v, want zeroes", base)
	}
	_, _, _ = c.Do("b", func() (any, error) { return 2, nil })
	_, _, _ = c.Do("b", func() (any, error) { return 2, nil })
	d := c.Stats().Since(base)
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("delta = %+v, want 1 hit / 1 miss", d)
	}
}
