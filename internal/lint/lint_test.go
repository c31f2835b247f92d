package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture materializes a file tree under a temp dir and returns
// its root.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// fixtureGraph is a minimal stand-in for internal/graph: the
// mutation-safety analyzer identifies the type by its package path
// suffix and name, so the fixture provides its own copy.
const fixtureGraph = `package graph

// Graph is a minimal mutable graph for analyzer fixtures.
type Graph struct{ edges [][2]int }

// AddEdge records an edge.
func (g *Graph) AddEdge(u, v int) bool { g.edges = append(g.edges, [2]int{u, v}); return true }

// RemoveEdge drops the last edge.
func (g *Graph) RemoveEdge(u, v int) bool { return false }

// AddNode is a mutator.
func (g *Graph) AddNode() int { return 0 }

// AddNodes is a mutator.
func (g *Graph) AddNodes(k int) int { return 0 }

// HasEdge is read-only.
func (g *Graph) HasEdge(u, v int) bool { return false }

// Clone copies the graph.
func (g *Graph) Clone() *Graph { return &Graph{edges: append([][2]int(nil), g.edges...)} }
`

func fixtureFiles() map[string]string {
	return map[string]string{
		"go.mod":                  "module fixturemod\n\ngo 1.22\n",
		"internal/graph/graph.go": fixtureGraph,

		// mutation-safety: positive (direct param mutation), negative
		// (mutating a clone), suppressed (allow annotation).
		"internal/centrality/mutation.go": `package centrality

import "fixturemod/internal/graph"

// BadMutate mutates its parameter: finding expected.
func BadMutate(g *graph.Graph) { g.AddEdge(0, 1) }

// GoodClone mutates a local clone: no finding.
func GoodClone(g *graph.Graph) {
	work := g.Clone()
	work.AddEdge(0, 1)
	work.RemoveEdge(0, 1)
}

// GoodRead only reads: no finding.
func GoodRead(g *graph.Graph) bool { return g.HasEdge(0, 1) }

// AllowedMutate is sanctioned strategy code.
//
//promolint:allow mutation-safety -- fixture strategy code
func AllowedMutate(g *graph.Graph) { g.AddNodes(3) }
`,

		// determinism: global rand positive, threaded rand negative,
		// unsorted map-range positive, sorted map-range negative.
		"internal/exp/det.go": `package exp

import (
	"math/rand"
	"sort"
)

// BadRand uses the global source: finding expected.
func BadRand() int { return rand.Intn(10) }

// GoodRand threads an explicit generator: no finding.
func GoodRand(r *rand.Rand) int { return r.Intn(10) }

// BadOrder returns map keys in iteration order: finding expected.
func BadOrder(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// GoodOrder sorts the collected keys: no finding.
func GoodOrder(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`,

		// ignored-errors: discarded Close positive, handled Close and
		// fmt.Println negatives.
		"cmd/tool/main.go": `package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Println("stdout prints are exempt")
	bad()
	if err := good(); err != nil {
		os.Exit(1)
	}
}

func bad() {
	f, err := os.Open("x")
	if err != nil {
		return
	}
	f.Close()
}

func good() error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	return f.Close()
}
`,

		// exported-docs: undocumented exported positives, documented and
		// unexported negatives.
		"internal/core/docs.go": `package core

// Documented has a doc comment: no finding.
func Documented() {}

func Undocumented() {}

type UndocType struct{}

// DocType is documented: no finding.
type DocType struct{}

var UndocVar = 1

// DocVar is documented: no finding.
var DocVar = 2

func unexported() {}
`,
	}
}

// runFixture lints the standard fixture once and caches nothing: each
// test builds its own tree, so findings can't leak between tests.
func runFixture(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	root := writeFixture(t, files)
	diags, err := Run(root, []string{"./..."}, Config{})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return diags
}

// want asserts exactly one finding from the analyzer whose message
// contains each of the substrings.
func want(t *testing.T, diags []Diagnostic, analyzer string, substrs ...string) {
	t.Helper()
	n := 0
	for _, d := range diags {
		if d.Analyzer != analyzer {
			continue
		}
		ok := true
		for _, s := range substrs {
			if !strings.Contains(d.Message, s) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 %s finding containing %q, got %d\nall findings:\n%s",
			analyzer, substrs, n, renderDiags(diags))
	}
}

// reject asserts no finding from the analyzer mentions the substring.
func reject(t *testing.T, diags []Diagnostic, analyzer, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			t.Errorf("unexpected %s finding mentioning %q: %s", analyzer, substr, d)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestMutationSafety(t *testing.T) {
	diags := runFixture(t, fixtureFiles())
	want(t, diags, "mutation-safety", "BadMutate", "AddEdge")
	reject(t, diags, "mutation-safety", "GoodClone")
	reject(t, diags, "mutation-safety", "GoodRead")
	reject(t, diags, "mutation-safety", "AllowedMutate") // suppressed by annotation
}

func TestDeterminism(t *testing.T) {
	diags := runFixture(t, fixtureFiles())
	want(t, diags, "determinism", "rand.Intn")
	want(t, diags, "determinism", "range over map", "keys")
	// GoodRand's r.Intn and GoodOrder's sorted collection are clean:
	// exactly the two findings above and no more.
	n := 0
	for _, d := range diags {
		if d.Analyzer == "determinism" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("want exactly 2 determinism findings, got %d\n%s", n, renderDiags(diags))
	}
}

func TestIgnoredErrors(t *testing.T) {
	diags := runFixture(t, fixtureFiles())
	want(t, diags, "ignored-errors", "f.Close")
	reject(t, diags, "ignored-errors", "fmt.Println")
	n := 0
	for _, d := range diags {
		if d.Analyzer == "ignored-errors" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 ignored-errors finding, got %d\n%s", n, renderDiags(diags))
	}
}

func TestExportedDocs(t *testing.T) {
	diags := runFixture(t, fixtureFiles())
	want(t, diags, "exported-docs", "function Undocumented")
	want(t, diags, "exported-docs", "type UndocType")
	want(t, diags, "exported-docs", "var UndocVar")
	reject(t, diags, "exported-docs", "Documented")
	reject(t, diags, "exported-docs", "DocType")
	reject(t, diags, "exported-docs", "DocVar")
	reject(t, diags, "exported-docs", "unexported")
}

func TestScopeRestriction(t *testing.T) {
	// The same mutation pattern outside the read-only packages (e.g. a
	// hypothetical internal/tools) must not be flagged: the black-box
	// contract binds measurement code, not graph-construction code.
	files := fixtureFiles()
	files["internal/tools/build.go"] = `package tools

import "fixturemod/internal/graph"

// Grow mutates its parameter, but this package is out of scope.
func Grow(g *graph.Graph) { g.AddEdge(1, 2) }
`
	diags := runFixture(t, files)
	reject(t, diags, "mutation-safety", "Grow")
}

func TestAnalyzerFilter(t *testing.T) {
	root := writeFixture(t, fixtureFiles())
	diags, err := Run(root, []string{"./..."}, Config{Enable: []string{"exported-docs"}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		if d.Analyzer != "exported-docs" {
			t.Errorf("analyzer filter leaked a %s finding: %s", d.Analyzer, d)
		}
	}
	if len(diags) == 0 {
		t.Error("filtered run found nothing; want the exported-docs findings")
	}
	if _, err := Run(root, nil, Config{Enable: []string{"no-such-analyzer"}}); err == nil {
		t.Error("unknown analyzer name should be an error")
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"//promolint:allow mutation-safety", []string{"mutation-safety"}},
		{"// promolint:allow determinism -- seeded elsewhere", []string{"determinism"}},
		{"//promolint:allow a,b", []string{"a", "b"}},
		{"// just a comment", nil},
		{"//promolint:allowx", nil},
	}
	for _, c := range cases {
		got := parseAllow(c.in)
		if len(got) != len(c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}
