// Package core implements the paper's contribution: black-box centrality
// promotion. A promotion strategy [t, p, T] (Section IV) attaches p new
// nodes in structure T around a target node t, never touching the
// original graph's edges. Two principles (Section V) — maximum gain and
// minimum loss — decide which strategy provably lifts the target's
// centrality *ranking* for a given measure (Table I):
//
//	betweenness  → multi-point    (maximum gain, Thm. 5.3)
//	coreness     → single-clique  (maximum gain, Thm. 5.4)
//	closeness    → multi-point    (minimum loss, Thm. 5.5)
//	eccentricity → double-line    (minimum loss, Thm. 5.6)
//
// The package also provides the theoretical promotion sizes p′ of
// Lemmas 5.3/5.6/5.9/5.12, empirical checkers for the three properties
// each principle requires, and a high-level Promote API.
package core

import (
	"fmt"

	"promonet/internal/graph"
)

// StrategyType is the structure T inserted among the new nodes Δ_V.
type StrategyType int

const (
	// MultiPoint (Algorithm 1): p isolated nodes, each connected only
	// to the target.
	MultiPoint StrategyType = iota
	// DoubleLine (Algorithm 2): the p nodes form two equal-length
	// chains hanging off the target. For odd p the first chain is one
	// node longer.
	DoubleLine
	// SingleClique (Algorithm 3): the p nodes plus the target form a
	// (p+1)-clique.
	SingleClique
)

// String returns the paper's name for the strategy type.
func (t StrategyType) String() string {
	switch t {
	case MultiPoint:
		return "multi-point"
	case DoubleLine:
		return "double-line"
	case SingleClique:
		return "single-clique"
	default:
		return fmt.Sprintf("StrategyType(%d)", int(t))
	}
}

// ParseStrategyType is the inverse of StrategyType.String.
func ParseStrategyType(name string) (StrategyType, error) {
	for _, t := range []StrategyType{MultiPoint, DoubleLine, SingleClique} {
		if name == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want multi-point, double-line, or single-clique)", name)
}

// Strategy is the paper's promotion triple [target, promotion size,
// type].
type Strategy struct {
	Target int          // node to be promoted
	Size   int          // p = |Δ_V|, the number of inserted nodes
	Type   StrategyType // structure among the inserted nodes
}

// Validate reports whether the strategy can be applied to g.
func (s Strategy) Validate(g *graph.Graph) error {
	if s.Target < 0 || s.Target >= g.N() {
		return fmt.Errorf("core: strategy target %d outside [0, %d)", s.Target, g.N())
	}
	if s.Size < 1 {
		return fmt.Errorf("core: strategy size %d, want >= 1", s.Size)
	}
	switch s.Type {
	case MultiPoint, DoubleLine, SingleClique:
		return nil
	default:
		return fmt.Errorf("core: unknown strategy type %d", int(s.Type))
	}
}

// NumEdges returns |Δ_E|, the number of edges the strategy inserts.
func (s Strategy) NumEdges() int {
	switch s.Type {
	case SingleClique:
		return s.Size + s.Size*(s.Size-1)/2
	default: // MultiPoint and DoubleLine both add exactly one edge per node
		return s.Size
	}
}

// String renders the triple in the paper's notation.
func (s Strategy) String() string {
	return fmt.Sprintf("[%d, %d, %s]", s.Target, s.Size, s.Type)
}

// Mutable is the structural mutation surface strategy application
// drives: the mutable adjacency-map graph (*graph.Graph) and the CSR
// edit layer (*csr.Overlay) both satisfy it, so one implementation of
// every strategy serves both backends. Promotion only ever appends
// nodes and attaches edges — RemoveEdge is deliberately absent.
type Mutable interface {
	// N returns the number of nodes; identifiers are [0, N()).
	N() int
	// AddNodes appends k isolated nodes, returning the first new ID.
	AddNodes(k int) int
	// AddEdge inserts the undirected edge (u, v), reporting whether it
	// was new.
	AddEdge(u, v int) bool
}

// Apply returns the updated graph G′ = (V ∪ Δ_V, E ∪ Δ_E) as a clone of
// g, plus the IDs of the inserted nodes Δ_V. The original graph is not
// modified — the defining constraint of black-box promotion.
func (s Strategy) Apply(g *graph.Graph) (*graph.Graph, []int, error) {
	if err := s.Validate(g); err != nil {
		return nil, nil, err
	}
	g2 := g.Clone()
	ins := s.applyInPlace(g2)
	graph.DebugAssert(g2)
	return g2, ins, nil
}

// ApplyInPlace inserts Δ_V and Δ_E directly into g and returns the
// inserted node IDs. Note that even in-place application never modifies
// edges among the original nodes.
func (s Strategy) ApplyInPlace(g *graph.Graph) ([]int, error) {
	if err := s.Validate(g); err != nil {
		return nil, err
	}
	ins := s.applyInPlace(g)
	graph.DebugAssert(g)
	return ins, nil
}

// ApplyTo inserts Δ_V and Δ_E into any mutable backend — in particular
// a csr.Overlay layered over a frozen million-node snapshot, where the
// promotion structure costs a few touched rows instead of a host
// clone (the serving path internal/promod takes per exact-mode query).
// It returns the inserted node IDs.
func (s Strategy) ApplyTo(g Mutable) ([]int, error) {
	if s.Target < 0 || s.Target >= g.N() {
		return nil, fmt.Errorf("core: strategy target %d outside [0, %d)", s.Target, g.N())
	}
	if s.Size < 1 {
		return nil, fmt.Errorf("core: strategy size %d, want >= 1", s.Size)
	}
	switch s.Type {
	case MultiPoint, DoubleLine, SingleClique:
	default:
		return nil, fmt.Errorf("core: unknown strategy type %d", int(s.Type))
	}
	return s.applyInPlace(g), nil
}

// applyInPlace inserts Δ_V and Δ_E into g. This is the one place in the
// promotion machinery that is *supposed* to attach structure, so it
// carries the package's only mutation-safety exemption; everything it
// adds touches the target only, never edges among original nodes.
//
//promolint:allow mutation-safety -- strategy application is the sanctioned mutation point
func (s Strategy) applyInPlace(g Mutable) []int {
	first := g.AddNodes(s.Size)
	ins := make([]int, s.Size)
	for i := range ins {
		ins[i] = first + i
	}
	t := s.Target
	switch s.Type {
	case MultiPoint:
		// Algorithm 1: every inserted node connects to t only.
		for _, w := range ins {
			g.AddEdge(t, w)
		}
	case DoubleLine:
		// Algorithm 2: split Δ_V into two chains S1, S2 rooted at t.
		// For odd p, |S1| = |S2| + 1 (footnote 4).
		half := (s.Size + 1) / 2
		s1, s2 := ins[:half], ins[half:]
		for _, line := range [][]int{s1, s2} {
			prev := t
			for _, w := range line {
				g.AddEdge(prev, w)
				prev = w
			}
		}
	case SingleClique:
		// Algorithm 3: Δ_V ∪ {t} forms a (p+1)-clique.
		for i, w := range ins {
			g.AddEdge(t, w)
			for _, x := range ins[i+1:] {
				g.AddEdge(w, x)
			}
		}
	}
	return ins
}
