package promod

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promonet/internal/obs"
)

func TestCoalescerSingleFlight(t *testing.T) {
	coalesced := obs.NewCounter()
	c := newCoalescer(16, coalesced)

	var computes atomic.Int32
	var wg sync.WaitGroup
	const workers = 10
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			v, err := c.do("k", func() (any, error) {
				computes.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the flight open for followers
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("do: v=%v err=%v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1 (single flight)", got)
	}
	if coalesced.Value() != workers-1 {
		t.Errorf("coalesced counter = %d, want %d", coalesced.Value(), workers-1)
	}
	// Completed flight must now serve from cache without recomputing.
	if _, err := c.do("k", func() (any, error) {
		computes.Add(1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Error("cached key recomputed")
	}
}

func TestCoalescerErrorsNotCached(t *testing.T) {
	c := newCoalescer(16, obs.NewCounter())
	boom := errors.New("boom")
	if _, err := c.do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := c.do("k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after error: v=%v err=%v (errors must not be cached)", v, err)
	}
}

func TestCoalescerEviction(t *testing.T) {
	c := newCoalescer(2, obs.NewCounter())
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.do(k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.size() != 2 {
		t.Errorf("cache size = %d, want 2 (FIFO eviction)", c.size())
	}
	// The oldest entry went first; the newest must still be cached.
	for _, tc := range []struct {
		key    string
		cached bool
	}{{"c", true}, {"a", false}} {
		recomputed := false
		if _, err := c.do(tc.key, func() (any, error) { recomputed = true; return nil, nil }); err != nil {
			t.Fatal(err)
		}
		if recomputed == tc.cached {
			t.Errorf("key %q: recomputed = %v, want cached = %v (FIFO order)", tc.key, recomputed, tc.cached)
		}
	}
}
