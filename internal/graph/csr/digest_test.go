package csr_test

import (
	"math/rand"
	"testing"

	"promonet/internal/gen"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
)

// TestDigestGolden pins graph.Digest's byte stream: the hex digests
// below were computed by the unbuffered implementation (one h.Write per
// 8-byte word), so any change to how Digest stages its writes must
// reproduce them exactly. Run manifests and snapshot identities cite
// these digests, so a drift here silently orphans every recorded run.
// Each case is checked on all three backends: the mutable graph, its
// frozen snapshot, and an overlay that re-adds the graph's last edge
// over a snapshot frozen without it.
func TestDigestGolden(t *testing.T) {
	star := func(leaves int) *graph.Graph {
		edges := make([][2]int, leaves)
		for i := range edges {
			edges[i] = [2]int{0, i + 1}
		}
		return graph.FromEdges(leaves+1, edges)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"empty", graph.FromEdges(0, nil), "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{"isolated-3", graph.FromEdges(3, nil), "35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b"},
		{"edge", graph.FromEdges(2, [][2]int{{0, 1}}), "53afea624a503a0bf39e469e8979f67fcb1890ea0392adf9e155124f5ede9ebb"},
		{"triangle-dup-reversed", graph.FromEdges(4, [][2]int{{2, 0}, {1, 0}, {2, 1}, {0, 2}}), "c5a569f4a3fbadfb09963c9df636a3a86c1fe80438cb1f8ce1ea2da74c27e0ec"},
		{"wide-ids", graph.FromEdges(70000, [][2]int{{0, 69999}, {12345, 65536}, {256, 65535}}), "abd5dc2e2ab9a34231da59ea72032ff77ebb7aa3b3987b1147b59e8faa967b1d"},
		// 8 + 16·2047 bytes stays inside one 32 KiB staging buffer;
		// 2048 edges overflow it by 8 bytes.
		{"star-2047", star(2047), "1b0bd89198260fa102ca6b153e147d2f6da28643555bc52679eb8bd5047d95f3"},
		{"star-2048", star(2048), "a61943d236701a0965d14bdc0b4affec4337bf7013435c27e53126082019d368"},
		{"ba-1000-4", gen.BarabasiAlbert(rand.New(rand.NewSource(1)), 1000, 4), "c08daaa1d9a5beac0c2239a72046d202910f17560e8155ce7d3687deb0d56d33"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := graph.Digest(tc.g); got != tc.want {
				t.Errorf("graph.Digest(*Graph) = %s, want %s", got, tc.want)
			}
			if got := csr.Freeze(tc.g).Digest(); got != tc.want {
				t.Errorf("Snapshot.Digest() = %s, want %s", got, tc.want)
			}
			edges := tc.g.EdgeList()
			if len(edges) == 0 {
				return
			}
			last := edges[len(edges)-1]
			base := tc.g.Clone()
			base.RemoveEdge(last[0], last[1])
			ov := csr.NewOverlay(csr.Freeze(base))
			ov.AddEdge(last[0], last[1])
			if got := graph.Digest(ov); got != tc.want {
				t.Errorf("graph.Digest(*Overlay) = %s, want %s", got, tc.want)
			}
		})
	}
}
