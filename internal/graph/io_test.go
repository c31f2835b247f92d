package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
% another comment

0 1
1	2
2,3
3 0
0 1
1 1
`
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Errorf("n = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Errorf("m = %d, want 4 (duplicate and self-loop dropped)", g.M())
	}
	wantLabels := []int64{0, 1, 2, 3}
	for i, l := range wantLabels {
		if labels[i] != l {
			t.Fatalf("labels = %v, want %v", labels, wantLabels)
		}
	}
}

func TestReadEdgeListSparseLabels(t *testing.T) {
	in := "100 200\n200 4000000000\n"
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 3 2", g.N(), g.M())
	}
	if labels[2] != 4000000000 {
		t.Errorf("labels[2] = %d, want 4000000000", labels[2])
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"single field", "42\n"},
		{"non-numeric", "a b\n"},
		{"second field bad", "1 x\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadEdgeList(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, labels, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// ReadEdgeList compacts labels in order of first appearance, so map
	// back through the label vector before comparing edge sets.
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed size: %v -> %v", g, h)
	}
	h.Edges(func(u, v int) bool {
		ou, ov := int(labels[u]), int(labels[v])
		if !g.HasEdge(ou, ov) {
			t.Errorf("round trip invented edge (%d, %d)", ou, ov)
		}
		return true
	})
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err := SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	h, _, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("file round trip changed graph")
	}
}

// TestLabeledRoundTrip pins the regression where a labeled graph did
// not survive a save/load cycle: WriteEdgeList emits compact IDs, so
// saving a graph loaded from a SNAP file with sparse labels (100, 200,
// 4e9, ...) silently renamed every node. WriteEdgeListLabeled restores
// the original labels, so load → save-labeled → load is the identity
// on both structure and labels.
func TestLabeledRoundTrip(t *testing.T) {
	in := "100 200\n200 4000000000\n4000000000 7\n7 100\n"
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteEdgeListLabeled(&buf, g, labels); err != nil {
		t.Fatal(err)
	}
	h, labels2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("labeled round trip changed size: %v -> %v", g, h)
	}
	// Compare edge sets under original labels: every reloaded edge must
	// exist in the source file's label space and vice versa.
	byLabel := func(g *Graph, labels []int64) map[[2]int64]bool {
		set := make(map[[2]int64]bool)
		g.Edges(func(u, v int) bool {
			a, b := labels[u], labels[v]
			if a > b {
				a, b = b, a
			}
			set[[2]int64{a, b}] = true
			return true
		})
		return set
	}
	want, got := byLabel(g, labels), byLabel(h, labels2)
	for e := range want {
		if !got[e] {
			t.Errorf("labeled round trip lost edge %v", e)
		}
	}
	for e := range got {
		if !want[e] {
			t.Errorf("labeled round trip invented edge %v", e)
		}
	}

	// The unlabeled writer, by contrast, must NOT round-trip the labels
	// (that is the documented compaction) — this guards against someone
	// "fixing" WriteEdgeList itself and breaking its compact-ID contract.
	buf.Reset()
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	_, compact, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawOriginal := false
	for _, l := range compact {
		if l == 4000000000 {
			sawOriginal = true
		}
	}
	if sawOriginal {
		t.Error("WriteEdgeList preserved sparse labels; expected compact IDs")
	}
}

// TestSaveEdgeListLabeledFile covers the file-level labeled round trip.
func TestSaveEdgeListLabeledFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	g, labels, err := ReadEdgeList(strings.NewReader("10 20\n20 30\n30 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEdgeListLabeledFile(path, g, labels); err != nil {
		t.Fatal(err)
	}
	h, labels2, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("labeled file round trip changed structure")
	}
	for i := range labels {
		if labels[i] != labels2[i] {
			t.Fatalf("labels changed across round trip: %v -> %v", labels, labels2)
		}
	}
	// Wrong label-vector length is an error, not silent truncation.
	if err := WriteEdgeListLabeled(&bytes.Buffer{}, g, labels[:1]); err == nil {
		t.Error("short label vector accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := LoadEdgeListFile("/nonexistent/path/graph.txt"); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// TestLoadedRowsDoNotAlias guards the bulk loader's shared backing
// array: every adjacency row is a capped window of one slice, so
// growing a row must reallocate it rather than overwrite the row after
// it. A random mix of AddEdge and RemoveEdge on neighboring IDs runs on
// the loaded graph and on referenceReadEdgeList's graph of the same
// input; after every step both must be equal and well-formed.
func TestLoadedRowsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		u := rng.Intn(40)
		fmt.Fprintf(&sb, "%d %d\n", u, u+1+rng.Intn(3))
	}
	in := sb.String()
	for _, hint := range []int64{0, int64(len(in))} {
		g, _, err := readEdgeList(strings.NewReader(in), hint)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := referenceReadEdgeList(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2000; step++ {
			u := rng.Intn(g.N() - 1)
			v := u + 1 + rng.Intn(2)
			if v >= g.N() {
				v = u + 1
			}
			if rng.Intn(3) == 0 {
				if got, w := g.RemoveEdge(u, v), want.RemoveEdge(u, v); got != w {
					t.Fatalf("sizeHint %d step %d: RemoveEdge(%d, %d) = %v, reference %v", hint, step, u, v, got, w)
				}
			} else if got, w := g.AddEdge(u, v), want.AddEdge(u, v); got != w {
				t.Fatalf("sizeHint %d step %d: AddEdge(%d, %d) = %v, reference %v", hint, step, u, v, got, w)
			}
			if !g.Equal(want) {
				t.Fatalf("sizeHint %d step %d: loaded graph diverged from the reference", hint, step)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("sizeHint %d step %d: %v", hint, step, err)
			}
		}
	}
}
