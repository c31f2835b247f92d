package graph_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"promonet/internal/gen"
	"promonet/internal/graph"
)

// benchHost is the BA(5·10⁴, 10) host the layer benchmarks load and
// hash: about 5·10⁵ edges, a 5.4 MB edge-list file.
var benchHost = sync.OnceValue(func() *graph.Graph {
	return gen.BarabasiAlbert(rand.New(rand.NewSource(1)), 50_000, 10)
})

// benchFile writes benchHost to an edge-list file in b's temporary
// directory and returns its path.
func benchFile(b *testing.B) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "ba.txt")
	if err := graph.SaveEdgeListFile(path, benchHost()); err != nil {
		b.Fatal(err)
	}
	return path
}

var (
	sinkGraph  *graph.Graph
	sinkDigest string
)

// BenchmarkLoadEdgeListFile prices one host load: read, parse, label
// compaction and adjacency build.
func BenchmarkLoadEdgeListFile(b *testing.B) {
	path := benchFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := graph.LoadEdgeListFile(path)
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}

// BenchmarkDigest prices the canonical SHA-256 of the loaded host, the
// digest every snapshot install computes.
func BenchmarkDigest(b *testing.B) {
	g, _, err := graph.LoadEdgeListFile(benchFile(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = graph.Digest(g)
	}
}
