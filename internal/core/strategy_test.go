package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"promonet/internal/datasets"
	"promonet/internal/gen"
)

func TestStrategyString(t *testing.T) {
	s := Strategy{Target: 3, Size: 4, Type: MultiPoint}
	if got := s.String(); got != "[3, 4, multi-point]" {
		t.Errorf("String = %q", got)
	}
}

func TestParseStrategyType(t *testing.T) {
	for _, want := range []StrategyType{MultiPoint, DoubleLine, SingleClique} {
		if got, err := ParseStrategyType(want.String()); err != nil || got != want {
			t.Errorf("ParseStrategyType(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	for _, bad := range []string{"clique", "", "Multi-Point", "StrategyType(3)"} {
		if _, err := ParseStrategyType(bad); err == nil {
			t.Errorf("ParseStrategyType(%q) accepted an unknown name", bad)
		}
	}
}

func TestStrategyValidate(t *testing.T) {
	g := gen.Path(5)
	cases := []struct {
		name string
		s    Strategy
		ok   bool
	}{
		{"valid", Strategy{2, 3, MultiPoint}, true},
		{"negative target", Strategy{-1, 3, MultiPoint}, false},
		{"target too large", Strategy{5, 3, MultiPoint}, false},
		{"zero size", Strategy{2, 0, MultiPoint}, false},
		{"bad type", Strategy{2, 3, StrategyType(9)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(g)
			if (err == nil) != tc.ok {
				t.Errorf("Validate(%v) err = %v, want ok=%v", tc.s, err, tc.ok)
			}
		})
	}
}

func TestStrategyNumEdges(t *testing.T) {
	cases := []struct {
		s    Strategy
		want int
	}{
		{Strategy{0, 4, MultiPoint}, 4},
		{Strategy{0, 4, DoubleLine}, 4},
		{Strategy{0, 4, SingleClique}, 10}, // 4 spokes + C(4,2)=6
		{Strategy{0, 1, SingleClique}, 1},
	}
	for _, tc := range cases {
		if got := tc.s.NumEdges(); got != tc.want {
			t.Errorf("%v NumEdges = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestMultiPointShape(t *testing.T) {
	g := datasets.Fig1()
	g2, ins, err := Strategy{datasets.V4, 4, MultiPoint}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.M() != 15 {
		t.Fatal("Apply mutated the original graph")
	}
	if g2.N() != 14 || g2.M() != 19 {
		t.Fatalf("G': n=%d m=%d, want 14 19", g2.N(), g2.M())
	}
	for _, w := range ins {
		if g2.Degree(w) != 1 || !g2.HasEdge(w, datasets.V4) {
			t.Errorf("inserted node %d: degree %d, edge-to-target=%v", w, g2.Degree(w), g2.HasEdge(w, datasets.V4))
		}
	}
}

func TestDoubleLineShapeEven(t *testing.T) {
	g := gen.Path(3)
	g2, ins, err := Strategy{1, 4, DoubleLine}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	// Two chains of 2 off node 1: edges (1,w0),(w0,w1),(1,w2),(w2,w3).
	if g2.M() != g.M()+4 {
		t.Fatalf("m = %d, want %d", g2.M(), g.M()+4)
	}
	if !g2.HasEdge(1, ins[0]) || !g2.HasEdge(ins[0], ins[1]) {
		t.Error("first chain malformed")
	}
	if !g2.HasEdge(1, ins[2]) || !g2.HasEdge(ins[2], ins[3]) {
		t.Error("second chain malformed")
	}
	if g2.HasEdge(ins[1], ins[2]) {
		t.Error("chains must be disjoint")
	}
	// Chain ends have degree 1; interior degree 2.
	if g2.Degree(ins[1]) != 1 || g2.Degree(ins[3]) != 1 {
		t.Error("chain ends should have degree 1")
	}
	if g2.Degree(ins[0]) != 2 || g2.Degree(ins[2]) != 2 {
		t.Error("chain interiors should have degree 2")
	}
}

func TestDoubleLineShapeOdd(t *testing.T) {
	g := gen.Path(3)
	g2, ins, err := Strategy{0, 5, DoubleLine}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	// |S1| = 3, |S2| = 2 (footnote 4: |S1| - |S2| = 1).
	if !g2.HasEdge(0, ins[0]) || !g2.HasEdge(ins[0], ins[1]) || !g2.HasEdge(ins[1], ins[2]) {
		t.Error("long chain malformed")
	}
	if !g2.HasEdge(0, ins[3]) || !g2.HasEdge(ins[3], ins[4]) {
		t.Error("short chain malformed")
	}
	if g2.M() != g.M()+5 {
		t.Errorf("double-line must add exactly p edges; added %d", g2.M()-g.M())
	}
}

func TestDoubleLineSizeOne(t *testing.T) {
	g := gen.Path(3)
	g2, ins, err := Strategy{0, 1, DoubleLine}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || !g2.HasEdge(0, ins[0]) {
		t.Error("p=1 double-line should degenerate to a single pendant")
	}
}

func TestSingleCliqueShape(t *testing.T) {
	g := gen.Path(4)
	g2, ins, err := Strategy{2, 4, SingleClique}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M()+10 {
		t.Fatalf("added %d edges, want 10", g2.M()-g.M())
	}
	// Δ_V ∪ {t} is a clique: every pair adjacent.
	members := append([]int{2}, ins...)
	for i, a := range members {
		for _, b := range members[i+1:] {
			if !g2.HasEdge(a, b) {
				t.Errorf("clique edge (%d, %d) missing", a, b)
			}
		}
	}
}

// TestPropertyStrategiesNeverTouchOriginal: all strategies freeze the
// original topology — adjacency among V is bit-identical after Apply.
func TestPropertyStrategiesNeverTouchOriginal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 10+rng.Intn(20), 30)
		n := g.N()
		target := rng.Intn(n)
		p := 1 + rng.Intn(6)
		for _, typ := range []StrategyType{MultiPoint, DoubleLine, SingleClique} {
			g2, _, err := Strategy{target, p, typ}.Apply(g)
			if err != nil {
				return false
			}
			// Edges among original nodes unchanged, in both directions.
			for v := 0; v < n; v++ {
				for _, u := range g2.Adjacency(v) {
					if int(u) < n && !g.HasEdge(v, int(u)) {
						return false
					}
				}
			}
			ok := true
			g.Edges(func(u, v int) bool {
				if !g2.HasEdge(u, v) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
			// No inserted node may link to an original node other than
			// through the strategy's defined attachment points.
			for _, w := range g2.EdgeList() {
				u, v := w[0], w[1]
				if u >= n && v < n && v != target {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestApplyInPlace(t *testing.T) {
	g := gen.Path(3)
	ins, err := Strategy{1, 2, MultiPoint}.ApplyInPlace(g)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 4 {
		t.Errorf("in-place apply: n=%d m=%d, want 5 4", g.N(), g.M())
	}
	if !g.HasEdge(1, ins[0]) || !g.HasEdge(1, ins[1]) {
		t.Error("in-place edges missing")
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	g := gen.Path(3)
	if _, _, err := (Strategy{7, 2, MultiPoint}).Apply(g); err == nil {
		t.Error("Apply with bad target succeeded")
	}
	if _, err := (Strategy{0, 0, MultiPoint}).ApplyInPlace(g); err == nil {
		t.Error("ApplyInPlace with zero size succeeded")
	}
}
