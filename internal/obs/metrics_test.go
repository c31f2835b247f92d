package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Set(0)
	if c.Value() != 0 {
		t.Fatalf("counter after Set(0) = %d", c.Value())
	}

	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

// TestCounterConcurrentAddValue races writers against readers on one
// Counter and one Gauge. Under -race it fails if any access to the
// metric word is not atomic, such as a plain read in Value.
func TestCounterConcurrentAddValue(t *testing.T) {
	const writers, rounds = 4, 1000
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	wg.Add(2 * writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Add(2)
				c.Inc()
				g.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = c.Value()
				_ = g.Value()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(3*writers*rounds); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), int64(writers*rounds); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{10 * time.Hour, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := histBucketIndex(tc.d); got != tc.want {
			t.Errorf("bucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
		h.Observe(tc.d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	var sum int64
	for _, tc := range cases {
		sum += int64(tc.d)
	}
	if s.SumNanos != sum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, sum)
	}
}

func TestBucketLabels(t *testing.T) {
	cases := map[int]string{
		0:               "1us",
		3:               "8us",
		10:              "1ms",
		20:              "1s",
		histBuckets - 1: "+inf",
	}
	for i, want := range cases {
		if got := BucketLabel(i); got != want {
			t.Errorf("BucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestRegistryIdempotentAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("engine.hits")
	c1.Add(3)
	if c2 := r.Counter("engine.hits"); c2 != c1 {
		t.Fatal("Counter lookup is not idempotent")
	}
	r.Gauge("pool.size").Set(4)
	r.Histogram("span.latency").Observe(5 * time.Microsecond)

	snap := r.Snapshot()
	if snap["engine.hits"] != uint64(3) {
		t.Fatalf("snapshot counter = %v", snap["engine.hits"])
	}
	if snap["pool.size"] != int64(4) {
		t.Fatalf("snapshot gauge = %v", snap["pool.size"])
	}
	hv, ok := snap["span.latency"].(map[string]any)
	if !ok || hv["count"] != uint64(1) {
		t.Fatalf("snapshot histogram = %v", snap["span.latency"])
	}

	names := r.Names()
	want := []string{"engine.hits", "pool.size", "span.latency"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestDefaultRegistryPublished(t *testing.T) {
	r := Default()
	if r == nil || Default() != r {
		t.Fatal("Default registry is not a stable singleton")
	}
	r.Counter("test.default.counter").Inc()
	if r.Counter("test.default.counter").Value() != 1 {
		t.Fatal("default registry counter lost its value")
	}
}
