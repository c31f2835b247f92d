package lint

import (
	"strings"
	"testing"
)

// Fixtures for the value-flow analyzers (span-hygiene, hotpath-alloc).
// Each fixture package carries flagging and passing cases per rule; the
// obs stand-in mirrors the real Span API closely enough that the
// path-suffix-keyed analyzers engage exactly as on the real tree.

func valueFlowFixtureFiles() map[string]string {
	return map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",

		"internal/obs/obs.go": `package obs

import "context"

// ctxKey is the context key for the current span.
type ctxKey struct{}

// Span is a minimal stand-in for the real tracing span.
type Span struct {
	name string
	n    int
}

// Start begins a span, or returns a nil one when name is empty.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if name == "" {
		return ctx, nil
	}
	s := &Span{name: name}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// End finishes the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.n = -1
}

// Int annotates the span.
func (s *Span) Int(key string, v int) {
	if s == nil {
		return
	}
	s.n = v
}
`,

		// span-hygiene lifecycle cases.
		"internal/core/spans.go": `package core

import (
	"context"

	"fixturemod/internal/obs"
)

// GoodLinear starts, annotates, ends: no finding.
func GoodLinear(ctx context.Context) {
	_, sp := obs.Start(ctx, "a")
	sp.Int("k", 1)
	sp.End()
}

// GoodDefer ends through defer on every path: no finding.
func GoodDefer(ctx context.Context, cond bool) int {
	_, sp := obs.Start(ctx, "b")
	defer sp.End()
	if cond {
		return 1
	}
	return 0
}

// GoodEarlyReturn re-creates the promoter pattern: an explicit End
// before an early return, then a rebind whose End is deferred. The
// deferred End is registered after the early return, so neither a
// double End nor a rebind-leak may be reported.
func GoodEarlyReturn(ctx context.Context, cond bool) int {
	_, sp := obs.Start(ctx, "c1")
	sp.End()
	if cond {
		return 1
	}
	_, sp = obs.Start(ctx, "c2")
	defer sp.End()
	return 0
}

// BadLeakEarlyReturn leaks the span on the cond path: finding.
func BadLeakEarlyReturn(ctx context.Context, cond bool) int {
	_, sp := obs.Start(ctx, "d")
	if cond {
		return 1
	}
	sp.End()
	return 0
}

// BadDoubleEnd may End twice when cond holds: finding.
func BadDoubleEnd(ctx context.Context, cond bool) {
	_, sp := obs.Start(ctx, "e")
	if cond {
		sp.End()
	}
	sp.End()
}

// BadDeferDoubleEnd explicitly Ends a span whose End is already
// deferred on this path: finding.
func BadDeferDoubleEnd(ctx context.Context) {
	_, sp := obs.Start(ctx, "f")
	defer sp.End()
	sp.End()
}

// BadUseAfterEnd touches the span after End: finding.
func BadUseAfterEnd(ctx context.Context) {
	_, sp := obs.Start(ctx, "g")
	sp.End()
	sp.Int("k", 2)
}

// BadReassign rebinds a live span with no deferred End: finding.
func BadReassign(ctx context.Context) {
	_, sp := obs.Start(ctx, "h1")
	_, sp = obs.Start(ctx, "h2")
	sp.End()
}

// StartNamed returns the span, transferring ownership: no finding, and
// it becomes a span source for its callers.
func StartNamed(ctx context.Context, name string) *obs.Span {
	_, sp := obs.Start(ctx, name)
	return sp
}

// finish forwards its parameter to End: a span sink.
func finish(sp *obs.Span) {
	sp.End()
}

// GoodViaWrappers uses the wrapper source and sink: no finding.
func GoodViaWrappers(ctx context.Context) {
	sp := StartNamed(ctx, "i")
	finish(sp)
}

// BadWrapperLeak drops a wrapper-obtained span on the cond path:
// finding.
func BadWrapperLeak(ctx context.Context, cond bool) int {
	w := StartNamed(ctx, "j")
	if cond {
		return 1
	}
	finish(w)
	return 0
}
`,

		// hotpath-alloc in an error-severity scope.
		"internal/centrality/hot.go": `package centrality

// HotMarked grows a fresh slice inside a hot body: finding.
//
//promolint:hotpath
func HotMarked(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// HotAllowed reuses a scratch buffer; the append carries a justified
// allow: suppressed.
//
//promolint:hotpath
func HotAllowed(buf, xs []int) []int {
	buf = buf[:0]
	for _, x := range xs {
		buf = append(buf, x) //promolint:allow hotpath-alloc -- amortized: scratch reaches steady-state capacity
	}
	return buf
}

// ColdUnmarked allocates outside any hot marker: no finding.
func ColdUnmarked(n int) []int { return make([]int, n) }

// HotStatement marks only its loop; the setup make above the marker is
// cold, the append inside is a finding.
func HotStatement(n int) []int {
	out := make([]int, 0, 1)
	//promolint:hotpath
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// helperAlloc allocates, so callers inherit a may-allocate summary.
func helperAlloc(n int) []int { return make([]int, n) }

// HotCallsAllocator calls an in-package allocator from hot code:
// finding.
//
//promolint:hotpath
func HotCallsAllocator(n int) []int {
	return helperAlloc(n)
}

// HotNoBox stores a pointer into an interface, which is pointer-shaped
// and does not box: no finding.
//
//promolint:hotpath
func HotNoBox(p *int) interface{} {
	var i interface{} = p
	return i
}

// HotBoxes stores an int64 into an interface, which heap-boxes:
// finding.
//
//promolint:hotpath
func HotBoxes(v int64) interface{} {
	var i interface{} = v
	return i
}
`,

		// hotpath-alloc outside the performance scopes: warn severity.
		"internal/report/hot.go": `package report

//promolint:hotpath
func WarmMarked(n int) map[int]bool {
	return make(map[int]bool, n)
}
`,
	}
}

// lineFuncIn maps a diagnostic in the named fixture file to the
// enclosing function, or "" when the diagnostic is elsewhere.
func lineFuncIn(t *testing.T, files map[string]string, file string, d Diagnostic) string {
	t.Helper()
	if !strings.HasSuffix(d.Pos.Filename, file) {
		return ""
	}
	return fixtureLineFunc(t, files[file], d.Pos.Line)
}

// findingFuncs collects, per enclosing function of the named file, how
// many findings the analyzer produced there.
func findingFuncs(t *testing.T, diags []Diagnostic, files map[string]string, analyzer, file string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, d := range diags {
		if d.Analyzer != analyzer {
			continue
		}
		if fn := lineFuncIn(t, files, file, d); fn != "" {
			out[fn]++
		}
	}
	return out
}

func TestSpanHygieneFixture(t *testing.T) {
	files := valueFlowFixtureFiles()
	diags := runFixture(t, files)
	got := findingFuncs(t, diags, files, "span-hygiene", "internal/core/spans.go")
	want := map[string]int{
		"BadLeakEarlyReturn": 1,
		"BadDoubleEnd":       1,
		"BadDeferDoubleEnd":  1,
		"BadUseAfterEnd":     1,
		"BadReassign":        1,
		"BadWrapperLeak":     1,
	}
	for fn, n := range want {
		if got[fn] != n {
			t.Errorf("span-hygiene in %s: want %d finding(s), got %d\n%s", fn, n, got[fn], renderDiags(diags))
		}
	}
	for fn := range got {
		if want[fn] == 0 {
			t.Errorf("span-hygiene flagged %s, which must stay clean\n%s", fn, renderDiags(diags))
		}
	}
	want1 := func(substr string) {
		t.Helper()
		n := 0
		for _, d := range diags {
			if d.Analyzer == "span-hygiene" && strings.Contains(d.Message, substr) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("want exactly 1 span-hygiene finding containing %q, got %d", substr, n)
		}
	}
	want1("explicit End plus deferred End") // BadDeferDoubleEnd
	want1("used after End")                 // BadUseAfterEnd
	want1("rebound while still live")       // BadReassign
}

func TestHotpathAllocFixture(t *testing.T) {
	files := valueFlowFixtureFiles()
	diags := runFixture(t, files)

	got := findingFuncs(t, diags, files, "hotpath-alloc", "internal/centrality/hot.go")
	want := map[string]int{
		"HotMarked":         1, // the growing append (var out []int is not a site)
		"HotStatement":      1, // only the append inside the marked loop
		"HotCallsAllocator": 1, // in-package may-allocate call
		"HotBoxes":          1, // int64 → interface boxing
	}
	for fn, n := range want {
		if got[fn] != n {
			t.Errorf("hotpath-alloc in %s: want %d finding(s), got %d\n%s", fn, n, got[fn], renderDiags(diags))
		}
	}
	for fn := range got {
		if want[fn] == 0 {
			t.Errorf("hotpath-alloc flagged %s, which must stay clean\n%s", fn, renderDiags(diags))
		}
	}

	// Severity contract: errors inside the performance scopes, warnings
	// outside them.
	for _, d := range diags {
		if d.Analyzer != "hotpath-alloc" {
			continue
		}
		switch {
		case strings.HasSuffix(d.Pos.Filename, "internal/centrality/hot.go"):
			if d.Severity != SevError {
				t.Errorf("hotpath-alloc finding in centrality must be %s, got %s: %s", SevError, d.Severity, d)
			}
		case strings.HasSuffix(d.Pos.Filename, "internal/report/hot.go"):
			if d.Severity != SevWarn {
				t.Errorf("hotpath-alloc finding in report must be %s, got %s: %s", SevWarn, d.Severity, d)
			}
		}
	}
	warm := findingFuncs(t, diags, files, "hotpath-alloc", "internal/report/hot.go")
	if warm["WarmMarked"] != 1 {
		t.Errorf("hotpath-alloc: want 1 warn finding in WarmMarked, got %d\n%s", warm["WarmMarked"], renderDiags(diags))
	}
}

// TestRunSurfacesParseErrors is the lint-layer half of the robustness
// contract: an unparseable file is an error return, never a panic.
func TestRunSurfacesParseErrors(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod":    "module fixturemod\n\ngo 1.22\n",
		"broken.go": "package broken\n\nfunc Oops( {\n\tcase ???\n",
	})
	if _, err := Run(root, []string{"./..."}, Config{}); err == nil {
		t.Fatal("Run on an unparseable module must return an error, got nil")
	}
}
