package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// referenceReadEdgeList is the insertion-based edge-list reader that
// ReadEdgeList replaced, kept verbatim as the differential oracle for
// the bulk loader: one bufio.Scanner line at a time, TrimSpace and
// Fields on every line, a map for every label, and a sorted-insertion
// AddEdge per edge. ReadEdgeList must return the same graph, the same
// labels and the same error text on every input.
func referenceReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	g := New(0)
	id := make(map[int64]int)
	var labels []int64
	lookup := func(label int64) int {
		if v, ok := id[label]; ok {
			return v
		}
		v := g.AddNode()
		id[label] = v
		labels = append(labels, label)
		return v
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		line = strings.ReplaceAll(line, ",", " ")
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		a, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad node label %q: %v", lineNo, fields[0], err)
		}
		b, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad node label %q: %v", lineNo, fields[1], err)
		}
		u, v := lookup(a), lookup(b)
		if u != v {
			g.AddEdge(u, v) // duplicate edges return false and are ignored
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return g, labels, nil
}
