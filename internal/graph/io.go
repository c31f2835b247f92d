package graph

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"promonet/internal/obs"
)

// ReadEdgeList parses a SNAP-style edge list: one "u v" pair per line,
// whitespace separated (spaces, tabs, or commas), with '#' and '%'
// comment lines and blank lines ignored. Node labels may be arbitrary
// non-negative integers; they are compacted to contiguous IDs in order of
// first appearance. Self-loops and duplicate edges are dropped (the graph
// is simple and undirected). It returns the graph and the mapping from
// compact ID to original label. A line of 1 MiB or more, not counting
// its newline, fails with an error wrapping bufio.ErrTooLong.
//
// The input is read in bulk: lines are split as byte slices, plain
// ASCII digit labels are parsed in place (anything else — a sign, 19 or
// more digits, a byte of 0x80 or above — takes the strings.Fields and
// strconv.ParseInt path, so error text is unchanged), and the adjacency
// is built once at the end by two counting passes over the collected
// endpoint pairs. ReadEdgeList does not know the input size, so every
// label goes through a map. LoadEdgeListFile knows the file size and
// compacts labels in [0, size/8) through a dense table instead; a table
// of size/8 four-byte entries costs at most half the file's bytes.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) { return readEdgeList(r, 0) }

// maxLineBytes bounds a line's length, newline excluded. It is the
// 1 MiB token limit of the bufio.Scanner the reader was first built
// on, kept so the same files load and the same files fail.
const maxLineBytes = 1 << 20

// maxInlineDigits is the longest digit run parsed in place: 18 digits
// cannot overflow an int64, so no range check is needed.
const maxInlineDigits = 18

// readEdgeList is ReadEdgeList with the input's size in bytes, or 0
// when unknown. A positive sizeHint enables the dense label table for
// labels in [0, sizeHint/8).
func readEdgeList(r io.Reader, sizeHint int64) (*Graph, []int64, error) {
	l := edgeLoader{denseMax: sizeHint / 8}
	if sizeHint > 0 {
		// An edge line of two labels, a separator and a newline
		// rarely runs under 10 bytes; room for that many pairs spares
		// the growth copies of the largest slice the loader fills.
		l.ends = make([]int32, 0, sizeHint/5)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte // a line longer than br's buffer, reassembled
	lineNo := 0
	for {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long, chunk...)
			if len(long) >= maxLineBytes {
				return nil, nil, fmt.Errorf("graph: reading edge list: %w", bufio.ErrTooLong)
			}
			continue
		}
		line := chunk
		if len(long) > 0 {
			line = append(long, chunk...)
			long = long[:0]
		}
		if len(line) > 0 {
			lineNo++
			if line[len(line)-1] == '\n' {
				line = line[:len(line)-1]
			}
			if len(line) >= maxLineBytes {
				return nil, nil, fmt.Errorf("graph: reading edge list: %w", bufio.ErrTooLong)
			}
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			if perr := l.parseLine(line, lineNo); perr != nil {
				return nil, nil, perr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
		}
	}
	return l.build(), l.labels, nil
}

// edgeLoader accumulates one edge list: the label-to-ID compaction and
// the endpoint pairs of every non-loop line, duplicates included.
type edgeLoader struct {
	// dense[label] is 1 + the ID of label, or 0 while label is unseen,
	// for labels in [0, denseMax); it grows on demand up to denseMax.
	dense    []int32
	denseMax int64
	sparse   map[int64]int32 // every other label
	labels   []int64         // labels[id] is the original label of id
	ends     []int32         // u0, v0, u1, v1, ...
}

// lookup returns label's ID, assigning the next one on first sight.
func (l *edgeLoader) lookup(label int64) int32 {
	if label >= 0 && label < l.denseMax {
		if label >= int64(len(l.dense)) {
			grown := make([]int32, min(max(2*int64(len(l.dense)), label+1, 1024), l.denseMax))
			copy(grown, l.dense)
			l.dense = grown
		}
		if id := l.dense[label]; id != 0 {
			return id - 1
		}
		id := int32(len(l.labels))
		l.dense[label] = id + 1
		l.labels = append(l.labels, label)
		return id
	}
	if id, ok := l.sparse[label]; ok {
		return id
	}
	if l.sparse == nil {
		l.sparse = make(map[int64]int32)
	}
	id := int32(len(l.labels))
	l.sparse[label] = id
	l.labels = append(l.labels, label)
	return id
}

// addLine records the edge between labels a and b; a self-loop line
// still assigns IDs to its endpoints.
func (l *edgeLoader) addLine(a, b int64) {
	u, v := l.lookup(a), l.lookup(b)
	if u != v {
		l.ends = append(l.ends, u, v)
	}
}

// parseLine handles one line, its newline and a trailing '\r' removed.
// The fast path accepts a line whose first two fields are plain digit
// runs of at most maxInlineDigits, separated by ASCII whitespace or
// commas; whatever follows them is ignored, as in the general path.
// Every other line — signs, long numbers, bad labels, too few fields,
// any byte of 0x80 or above before the second field ends — goes to
// parseLineSlow, the strings-based path whose results and error text
// the fast path must reproduce. (strings.TrimSpace and strings.Fields
// also treat U+0085 and U+00A0 as space, which is why non-ASCII bytes
// never take the fast path.)
func (l *edgeLoader) parseLine(line []byte, lineNo int) error {
	i := 0
	for i < len(line) && isASCIISpace(line[i]) {
		i++
	}
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return nil
	}
	a, i, ok := plainLabel(line, i)
	if !ok {
		return l.parseLineSlow(line, lineNo)
	}
	b, _, ok := plainLabel(line, i)
	if !ok {
		return l.parseLineSlow(line, lineNo)
	}
	l.addLine(a, b)
	return nil
}

// plainLabel skips separators from line[i:] and parses the digit run
// that follows. ok is false unless the run has 1 to maxInlineDigits
// digits and ends at a separator or at the end of the line.
func plainLabel(line []byte, i int) (label int64, next int, ok bool) {
	for i < len(line) && (isASCIISpace(line[i]) || line[i] == ',') {
		i++
	}
	start := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		label = label*10 + int64(line[i]-'0')
		i++
	}
	if i == start || i-start > maxInlineDigits {
		return 0, i, false
	}
	if i < len(line) && !isASCIISpace(line[i]) && line[i] != ',' {
		return 0, i, false
	}
	return label, i, true
}

// isASCIISpace reports whether c is one of the ASCII bytes
// strings.TrimSpace and strings.Fields treat as space ('\n' never
// occurs inside a line).
func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseLineSlow is the general line parser: any Unicode space, signed
// labels, the full int64 range, and the diagnostics for malformed
// lines.
func (l *edgeLoader) parseLineSlow(raw []byte, lineNo int) error {
	line := strings.TrimSpace(string(raw))
	if line == "" || line[0] == '#' || line[0] == '%' {
		return nil
	}
	line = strings.ReplaceAll(line, ",", " ")
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
	}
	a, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return fmt.Errorf("graph: line %d: bad node label %q: %v", lineNo, fields[0], err)
	}
	b, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("graph: line %d: bad node label %q: %v", lineNo, fields[1], err)
	}
	l.addLine(a, b)
	return nil
}

// build turns the collected endpoint pairs into a graph in O(n + m):
// a counting pass buckets every arc by its source, a second pass walks
// the sources in ascending ID order and drops each arc into its
// target's row — so every row comes out sorted without a comparison —
// and a final sweep removes duplicate neighbors in place. All rows
// share one backing array; each is capped at its own length, so a
// later AddEdge on the graph reallocates that row instead of writing
// into its neighbor's.
func (l *edgeLoader) build() *Graph {
	n := len(l.labels)
	ends := l.ends
	off := make([]int, n+1) // v's arcs, duplicates included, are [off[v], off[v+1])
	for _, x := range ends {
		off[x+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	next := make([]int, n)
	copy(next, off)
	bySource := make([]int32, len(ends))
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		bySource[next[u]] = v
		next[u]++
		bySource[next[v]] = u
		next[v]++
	}
	// The arc multiset is symmetric, so v receives exactly as many
	// arcs as it sends and the same offsets bound its sorted row. The
	// pairs are no longer needed, so their array takes the rows.
	cols := ends
	copy(next, off)
	for u := 0; u < n; u++ {
		for _, v := range bySource[off[u]:off[u+1]] {
			cols[next[v]] = int32(u)
			next[v]++
		}
	}
	adj := make([][]int32, n)
	w := 0
	for v := 0; v < n; v++ {
		start := w
		for _, u := range cols[off[v]:off[v+1]] {
			if w == start || cols[w-1] != u {
				cols[w] = u
				w++
			}
		}
		if w > start {
			adj[v] = cols[start:w:w]
		}
	}
	return &Graph{adj: adj, m: w / 2, version: nextVersion()}
}

// WriteEdgeList writes g as a SNAP-style edge list with a header comment.
// Each undirected edge appears once as "u<TAB>v" with u < v.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected simple graph: n=%d m=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int) bool {
		_, werr = fmt.Fprintf(bw, "%d\t%d\n", u, v)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// WriteEdgeListLabeled writes g as a SNAP-style edge list using the
// caller's original node labels: each undirected edge (u, v) with u < v
// appears once as "labels[u]<TAB>labels[v]". labels must have length
// g.N() (the mapping ReadEdgeList returns). This is the inverse that
// makes labeled graphs round-trip: WriteEdgeList emits compact IDs, so
// a SaveEdgeListFile→LoadEdgeListFile cycle silently rewrote the
// original SNAP labels — a labeled graph no longer round-tripped.
func WriteEdgeListLabeled(w io.Writer, g *Graph, labels []int64) error {
	if len(labels) != g.N() {
		return fmt.Errorf("graph: %d labels for %d nodes", len(labels), g.N())
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected simple graph: n=%d m=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int) bool {
		_, werr = fmt.Fprintf(bw, "%d\t%d\n", labels[u], labels[v])
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// SaveEdgeListLabeledFile writes g to the named file under the caller's
// original node labels (see WriteEdgeListLabeled), creating or
// truncating it.
func SaveEdgeListLabeledFile(path string, g *Graph, labels []int64) error {
	_, sp := obs.Start(context.Background(), "graph/save")
	sp.Str("path", path)
	sp.Int("n", g.N())
	sp.Int("m", g.M())
	defer sp.End()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeListLabeled(f, g, labels); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// LoadEdgeListFile reads an edge list from the named file (see
// ReadEdgeList), using the file's size to compact small labels through
// the dense table.
func LoadEdgeListFile(path string) (*Graph, []int64, error) {
	_, sp := obs.Start(context.Background(), "graph/load")
	sp.Str("path", path)
	defer sp.End()
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// The size only sizes the dense label table; without it (a stat
	// failure, a pipe) every label goes through the map instead.
	var size int64
	if fi, serr := f.Stat(); serr == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	g, labels, err := readEdgeList(f, size)
	if err != nil {
		_ = f.Close() // the parse error is the one worth reporting
		return nil, nil, err
	}
	sp.Int("n", g.N())
	sp.Int("m", g.M())
	// A close error on a file we only read is rare but real (NFS,
	// FUSE): surfacing it keeps a short read from masquerading as a
	// clean load. The old deferred f.Close() silently discarded it.
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}

// SaveEdgeListFile writes g to the named file, creating or truncating it.
func SaveEdgeListFile(path string, g *Graph) error {
	_, sp := obs.Start(context.Background(), "graph/save")
	sp.Str("path", path)
	sp.Int("n", g.N())
	sp.Int("m", g.M())
	defer sp.End()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// FromEdges builds a graph with n nodes from a list of undirected edges.
// It panics on out-of-range endpoints or self-loops; duplicate edges are
// ignored.
func FromEdges(n int, edges [][2]int) *Graph {
	g := NewWithNodes(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}
