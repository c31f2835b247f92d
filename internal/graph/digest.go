package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest returns a hex SHA-256 digest of the graph's canonical form:
// the node count followed by every undirected edge (u, v) with u < v in
// lexicographic order. Two views have equal digests iff they have the
// same node count and edge set — independently of insertion order and
// of the backend (map graph, CSR snapshot, overlay) — so run manifests
// can cite the exact dataset a result was computed on and the
// round-trip suites in graph/csr can compare representations by digest.
func Digest(g View) string {
	h := sha256.New()
	// The stream is staged in a 32 KiB buffer and hashed one buffer at
	// a time: one h.Write per 2048 edges instead of two per edge. The
	// bytes hashed are the same, so the digest is too.
	buf := make([]byte, 0, 32<<10)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.N()))
	// Adjacency rows are sorted, so visiting (u, v) with u < v in
	// increasing u, and within one u in increasing v, is exactly
	// lexicographic order — no re-sorting needed.
	n := g.N()
	for u := 0; u < n; u++ {
		for _, v := range g.Adjacency(u) {
			if int32(u) < v {
				if len(buf)+16 > cap(buf) {
					h.Write(buf)
					buf = buf[:0]
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(u))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
