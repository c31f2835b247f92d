package obs

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// withRecorder installs a fresh recorder for the test and removes it
// afterwards so the package-global state never leaks across tests.
func withRecorder(t *testing.T, capacity int) *Recorder {
	t.Helper()
	rec := NewRecorder(capacity)
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })
	return rec
}

func TestSpanDisabledIsNil(t *testing.T) {
	SetRecorder(nil)
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatal("disabled Start returned a non-nil span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled Start derived a new context")
	}
	// All of these must be safe no-ops on the nil span.
	sp.Int("n", 1)
	sp.Int64("m", 2)
	sp.Str("s", "v")
	sp.Float("f", 0.5)
	sp.End()
	if Enabled() {
		t.Fatal("Enabled() = true with no recorder")
	}
	// The calls above are the whole nil-safe surface: a new exported
	// method must be called on the nil span here before this passes.
	if n := reflect.TypeOf((*Span)(nil)).NumMethod(); n != 5 {
		t.Fatalf("*Span has %d exported methods, want 5 (Int, Int64, Str, Float, End)", n)
	}
}

func TestSpanDisabledZeroAlloc(t *testing.T) {
	SetRecorder(nil)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := Start(ctx, "bench/disabled")
		sp.Int("n", 42)
		sp.Str("measure", "closeness")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f times per op, want 0", allocs)
	}
}

func TestSpanRecordsHierarchyAndAttrs(t *testing.T) {
	rec := withRecorder(t, 16)
	ctx, root := Start(context.Background(), "parent")
	root.Int("n", 7)
	_, child := Start(ctx, "child")
	child.Str("k", "v")
	child.End()
	root.End()

	records := rec.Records()
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	// child ends first.
	c, p := records[0], records[1]
	if c.Name != "child" || p.Name != "parent" {
		t.Fatalf("record order = %q, %q", c.Name, p.Name)
	}
	if c.ParentID != p.ID {
		t.Fatalf("child.ParentID = %d, want parent ID %d", c.ParentID, p.ID)
	}
	if p.ParentID != 0 {
		t.Fatalf("root span has ParentID %d", p.ParentID)
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (Attr{Key: "k", Value: "v"}) {
		t.Fatalf("child attrs = %v", c.Attrs)
	}
	if len(p.Attrs) != 1 || p.Attrs[0] != (Attr{Key: "n", Value: "7"}) {
		t.Fatalf("parent attrs = %v", p.Attrs)
	}
}

func TestSpanAttrOverflowDropped(t *testing.T) {
	rec := withRecorder(t, 4)
	_, sp := Start(context.Background(), "many")
	for i := 0; i < maxSpanAttrs+3; i++ {
		sp.Int("k", i)
	}
	sp.End()
	records := rec.Records()
	if len(records) != 1 {
		t.Fatalf("got %d records", len(records))
	}
	if len(records[0].Attrs) != maxSpanAttrs {
		t.Fatalf("attrs = %d, want capped at %d", len(records[0].Attrs), maxSpanAttrs)
	}
}

func TestRecorderRingOverwrites(t *testing.T) {
	rec := withRecorder(t, 4)
	for i := 0; i < 10; i++ {
		_, sp := Start(context.Background(), "s")
		sp.End()
	}
	records := rec.Records()
	if len(records) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(records))
	}
	// Rollups keep counting past the ring capacity.
	rollups := rec.Rollups()
	if len(rollups) != 1 || rollups[0].Count != 10 {
		t.Fatalf("rollups = %+v, want one entry with count 10", rollups)
	}
}

func TestRollupAggregation(t *testing.T) {
	rec := NewRecorder(8)
	rec.record(&SpanRecord{Name: "b", Duration: 3 * time.Millisecond})
	rec.record(&SpanRecord{Name: "a", Duration: 2 * time.Millisecond})
	rec.record(&SpanRecord{Name: "a", Duration: 6 * time.Millisecond})

	rollups := rec.Rollups()
	if len(rollups) != 2 || rollups[0].Name != "a" || rollups[1].Name != "b" {
		t.Fatalf("rollups = %+v", rollups)
	}
	a := rollups[0]
	if a.Count != 2 || a.WallNanos != int64(8*time.Millisecond) {
		t.Fatalf("a = %+v", a)
	}
	if a.MinNanos != int64(2*time.Millisecond) || a.MaxNanos != int64(6*time.Millisecond) {
		t.Fatalf("a min/max = %d/%d", a.MinNanos, a.MaxNanos)
	}
	if a.Hist.Count != 2 {
		t.Fatalf("a hist count = %d", a.Hist.Count)
	}
}

func TestDiffRollups(t *testing.T) {
	rec := NewRecorder(8)
	rec.record(&SpanRecord{Name: "a", Duration: time.Millisecond})
	before := rec.Rollups()
	rec.record(&SpanRecord{Name: "a", Duration: 2 * time.Millisecond})
	rec.record(&SpanRecord{Name: "b", Duration: 4 * time.Millisecond})
	diff := DiffRollups(before, rec.Rollups())

	if len(diff) != 2 {
		t.Fatalf("diff = %+v", diff)
	}
	if diff[0].Name != "a" || diff[0].Count != 1 || diff[0].WallNanos != int64(2*time.Millisecond) {
		t.Fatalf("diff[a] = %+v", diff[0])
	}
	if diff[1].Name != "b" || diff[1].Count != 1 {
		t.Fatalf("diff[b] = %+v", diff[1])
	}
	// An unchanged snapshot diffs to nothing.
	if d := DiffRollups(rec.Rollups(), rec.Rollups()); len(d) != 0 {
		t.Fatalf("self-diff = %+v, want empty", d)
	}
}

func TestConcurrentSpans(t *testing.T) {
	rec := withRecorder(t, 64)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, sp := Start(context.Background(), "outer")
				_, inner := Start(ctx, "inner")
				inner.Int("i", i)
				inner.End()
				sp.End()
				_ = rec.Records()
				_ = rec.Rollups()
			}
		}()
	}
	wg.Wait()
	rollups := rec.Rollups()
	if len(rollups) != 2 {
		t.Fatalf("rollups = %+v", rollups)
	}
	for _, ru := range rollups {
		if ru.Count != workers*perWorker {
			t.Fatalf("%s count = %d, want %d", ru.Name, ru.Count, workers*perWorker)
		}
	}
}

// BenchmarkSpanDisabled is the contract the engine's hot path relies
// on: with no recorder installed, a start/annotate/end cycle performs
// zero allocations (the acceptance bar of ISSUE 4).
func BenchmarkSpanDisabled(b *testing.B) {
	SetRecorder(nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench/disabled")
		sp.Int("n", 42)
		sp.End()
	}
}

// BenchmarkSpanEnabled prices the enabled path (pooled span, ring
// store, rollup update) for comparison against the disabled one.
func BenchmarkSpanEnabled(b *testing.B) {
	rec := NewRecorder(1024)
	SetRecorder(rec)
	defer SetRecorder(nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench/enabled")
		sp.Int("n", 42)
		sp.End()
	}
}
