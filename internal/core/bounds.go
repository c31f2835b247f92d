package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"promonet/internal/centrality"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/obs"
)

// This file implements the theoretical promotion sizes p′ of Remark 2:
// with p > p′ the boost property is guaranteed, so by Theorems 5.1/5.2
// the target's ranking strictly improves.

// BoostSizeBetweenness returns the p′ of Lemma 5.3: with the multi-point
// strategy and p > p′ = √(BC(v) − BC(t)) + 1, the target's betweenness
// exceeds that of a node v that scored BC(v) > BC(t) in G. Scores must
// use the unordered-pairs convention, under which
// Δ_C(t) − Δ_C(v) >= p(p−1)/2 + ... >= (p−1)².
func BoostSizeBetweenness(bcT, bcV float64) float64 {
	if bcV <= bcT {
		return 0
	}
	return math.Sqrt(bcV-bcT) + 1
}

// BoostSizeCoreness returns the p′ of Lemma 5.6: with the single-clique
// strategy and p > p′ = RC(v) + 1, the target's coreness exceeds that of
// a node v with RC(v) > RC(t) in G.
func BoostSizeCoreness(rcV int) float64 { return float64(rcV + 1) }

// BoostSizeCloseness returns the p′ of Lemma 5.9: with the multi-point
// strategy and p > p′ = (ĈC(t) − ĈC(v)) / dist(v, t), the target's
// closeness exceeds that of a node v with CC(v) > CC(t) in G.
func BoostSizeCloseness(farT, farV int64, distVT int) float64 {
	if distVT <= 0 {
		return math.Inf(1)
	}
	if farV >= farT {
		return 0
	}
	return float64(farT-farV) / float64(distVT)
}

// BoostSizeEccentricity returns the p′ of Lemma 5.12: with the
// double-line strategy and p > p′ = 2·ĒC(t), the target's eccentricity
// exceeds that of every node v with EC(v) > EC(t) in G. (The paper
// writes 2×EC(t); by the proof — dist_G′(t, Δ_V) = p/2 must exceed
// dist_G′(t, V) = ĒC(t) — the bound is in terms of the reciprocal score
// ĒC, the max distance.)
func BoostSizeEccentricity(eccRecipT int) float64 { return 2 * float64(eccRecipT) }

// GuaranteedSize returns the smallest promotion size p that provably
// improves t's ranking of measure m on g, i.e. the smallest integer
// exceeding the measure's p′ bound taken against the easiest-to-overtake
// node ranked strictly above t. It returns (0, false) when t is already
// at rank 1, so no promotion is needed. It reports the GuaranteedSize
// of Standing.Predict for the Table I strategy, the same evaluation the
// promod daemon serves.
//
// Supported measures: betweenness, coreness, closeness, eccentricity
// (the four with proved lemmas). Other measures return an error.
// Betweenness is bounded on exact unordered-pairs scores, the
// convention Lemma 5.3 is stated in, whatever m's Counting and
// SampleSources are.
func GuaranteedSize(g *graph.Graph, m Measure, t int) (int, bool, error) {
	_, sp := obs.Start(context.Background(), "promote/guaranteed-size")
	sp.Str("measure", m.Name())
	sp.Int("n", g.N())
	defer sp.End()
	if t < 0 || t >= g.N() {
		return 0, false, fmt.Errorf("core: target %d outside [0, %d)", t, g.N())
	}
	switch m.(type) {
	case BetweennessMeasure, CorenessMeasure, ClosenessMeasure, EccentricityMeasure:
	default:
		return 0, false, fmt.Errorf("core: no p′ bound proved for measure %q", m.Name())
	}
	// The shared engine memoizes the score vectors: report pipelines
	// call GuaranteedSize for every (measure, target) pair on one host.
	st, err := NewStanding(engine.Default(), g, m)
	if err != nil {
		return 0, false, err
	}
	p := st.Predict(g, Strategy{Target: t, Size: 1, Type: m.Strategy()}).GuaranteedSize
	return p, p > 0, nil
}

// Standing is one measure's standing on one host: the scores, their
// descending order, so that a rank or an overtake count costs
// O(log n), and the integer reciprocal scores the measure's p′ lemma
// compares (farness for closeness, ĒC for eccentricity). It is
// immutable once built, so concurrent requests may share it.
type Standing struct {
	m      Measure
	scores []float64 // by node ID
	order  []int32   // node IDs by descending score, ties by ascending ID
	sorted []float64 // scores in order sequence (descending)
	far    []int64   // closeness: ĈC(v) = Σ_u dist(v, u)
	ecc    []float64 // eccentricity: ĒC(v) = max_u dist(v, u)
}

// NewStanding scores g with m's kernel on eng and sorts the scores.
// Betweenness is scored exactly on unordered pairs, as Lemma 5.3
// requires. Measures without an engine kernel return an error.
func NewStanding(eng *engine.Engine, g graph.View, m Measure) (*Standing, error) {
	k, ok := m.Kernel()
	if !ok {
		return nil, fmt.Errorf("core: measure %q has no engine kernel", m.Name())
	}
	if _, ok := m.(BetweennessMeasure); ok {
		k = engine.Betweenness(centrality.PairsUnordered)
	}
	scores := eng.Scores(g, k)
	order := make([]int32, len(scores))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
	sorted := make([]float64, len(scores))
	for i, id := range order {
		sorted[i] = scores[id]
	}
	st := &Standing{m: m, scores: scores, order: order, sorted: sorted}
	switch m.(type) {
	case ClosenessMeasure:
		st.far = eng.FarnessInt64(g)
	case EccentricityMeasure:
		st.ecc = eng.Scores(g, engine.ReciprocalEccentricity())
	}
	return st, nil
}

// Score returns v's score.
func (st *Standing) Score(v int) float64 { return st.scores[v] }

// Rank returns v's competition rank: 1 + the number of strictly higher
// scores.
func (st *Standing) Rank(v int) int { return 1 + st.countGreater(st.scores[v]) }

// Ordered returns the node at position i of the descending score order
// (ties by ascending ID); Ordered(0) ranks first.
func (st *Standing) Ordered(i int) int { return int(st.order[i]) }

// countGreater returns #{v : score(v) > s}.
func (st *Standing) countGreater(s float64) int {
	return sort.Search(len(st.sorted), func(i int) bool { return st.sorted[i] <= s })
}

// countGreaterEq returns #{v : score(v) ≥ s}.
func (st *Standing) countGreaterEq(s float64) int {
	return sort.Search(len(st.sorted), func(i int) bool { return st.sorted[i] < s })
}

// minAbove returns the smallest score strictly greater than s, or
// ok=false when s is already the maximum.
func (st *Standing) minAbove(s float64) (float64, bool) {
	cnt := st.countGreater(s)
	if cnt == 0 {
		return 0, false
	}
	return st.sorted[cnt-1], true
}

// PredictionMode says what a Prediction's rank delta is worth.
type PredictionMode int

const (
	// NoPrediction: no closed form or lemma applies (harmonic, Katz, or
	// a strategy other than the Table I one, which voids the lemma).
	NoPrediction PredictionMode = iota
	// ClosedForm: the outcome is exact (degree: the target's new score
	// is its old one plus the edges attached to it).
	ClosedForm
	// Guaranteed: the delta is a provable lower bound from the p′
	// lemmas.
	Guaranteed
)

// String names the mode as the promod API reports it.
func (m PredictionMode) String() string {
	switch m {
	case ClosedForm:
		return "closed-form"
	case Guaranteed:
		return "guaranteed"
	default:
		return "none"
	}
}

// Prediction is what the closed forms say about one strategy without
// applying it.
type Prediction struct {
	// Mode qualifies Rank and Delta.
	Mode PredictionMode
	// Score is the target's score after promotion when a closed form
	// gives it (degree); NaN otherwise.
	Score float64
	// RankBefore is the target's rank on the host; Rank is its
	// predicted rank after promotion, and Delta = RankBefore − Rank.
	RankBefore, Rank, Delta int
	// GuaranteedSize is the smallest size the measure's bound proves
	// improves the ranking; 0 when the target is already top among
	// comparable nodes or no bound applies.
	GuaranteedSize int
}

// Predict evaluates the degree closed form and the p′ lemmas (5.3, 5.6,
// 5.9, 5.12) for s on the host g the standing was built from. Under
// Guaranteed the delta is a provable lower bound on the rank
// improvement; under ClosedForm it is exact. A lemma holds only for the
// measure's Table I strategy type, so any other type predicts nothing.
func (st *Standing) Predict(g graph.View, s Strategy) Prediction {
	t, p := s.Target, s.Size
	sT := st.scores[t]
	pr := Prediction{Score: math.NaN(), RankBefore: st.Rank(t)}
	pr.Rank = pr.RankBefore
	// overtake records a lemma's count of nodes provably overtaken.
	overtake := func(over int) {
		pr.Mode = Guaranteed
		pr.Rank -= max(over, 0)
	}
	guided := s.Type == st.m.Strategy()
	switch st.m.(type) {
	case DegreeMeasure:
		// Exact for every strategy type: the target gains the edges
		// attached to it and no original node's degree changes. Inserted
		// nodes never score strictly above the target (their degree is
		// at most p ≤ sT+p).
		attached := p
		if s.Type == DoubleLine && p > 1 {
			attached = 2
		}
		pr.Mode = ClosedForm
		pr.Score = sT + float64(attached)
		pr.Rank = 1 + st.countGreater(pr.Score)
		if above, ok := st.minAbove(sT); ok && s.Type != DoubleLine {
			// p attached edges lift the score by p; the smallest
			// improving size strictly exceeds the gap to the next score.
			pr.GuaranteedSize = sizeAbove(above - sT)
		}

	case BetweennessMeasure:
		if !guided {
			break
		}
		// Lemma 5.3: multi-point overtakes v iff (p−1)² > BC(v) − BC(t).
		gain := float64(p-1) * float64(p-1)
		overtake(st.countGreater(sT) - st.countGreaterEq(sT+gain))
		// p′ grows with BC(v), so the next score above t is the
		// easiest to overtake.
		if above, ok := st.minAbove(sT); ok {
			pr.GuaranteedSize = sizeAbove(BoostSizeBetweenness(sT, above))
		}

	case CorenessMeasure:
		if !guided {
			break
		}
		// Lemma 5.6: single-clique overtakes v iff p > RC(v) + 1.
		overtake(st.countGreater(sT) - st.countGreaterEq(float64(p-1)))
		if above, ok := st.minAbove(sT); ok {
			pr.GuaranteedSize = sizeAbove(BoostSizeCoreness(int(above)))
		}

	case ClosenessMeasure:
		if !guided {
			break
		}
		// Lemma 5.9: multi-point overtakes v iff
		// p > (ĈC(t) − ĈC(v)) / dist(v, t). The bound is not monotone
		// in one score, so every node is checked.
		dist := centrality.Distances(g, t)
		far := st.far
		over, best := 0, math.Inf(1)
		for v := range far {
			if v == t || far[v] >= far[t] || dist[v] <= 0 {
				continue
			}
			bound := BoostSizeCloseness(far[t], far[v], int(dist[v]))
			if float64(p) > bound {
				over++
			}
			best = min(best, bound)
		}
		overtake(over)
		pr.GuaranteedSize = sizeAbove(best)

	case EccentricityMeasure:
		if !guided {
			break
		}
		pr.Mode = Guaranteed
		ecc := st.ecc
		hasHigher := false
		for v := range ecc {
			if ecc[v] < ecc[t] && ecc[v] > 0 {
				hasHigher = true
				break
			}
		}
		if !hasHigher {
			break // already top-ranked among comparable nodes
		}
		// Lemma 5.12: with p > 2·ĒC(t) the double line pushes t's
		// eccentricity below every node's, overtaking the whole field.
		bound := BoostSizeEccentricity(int(ecc[t]))
		pr.GuaranteedSize = sizeAbove(bound)
		if float64(p) > bound {
			pr.Rank = 1
		}
	}
	pr.Delta = pr.RankBefore - pr.Rank
	return pr
}

// sizeAbove converts a real-valued bound p′ into the smallest integer
// promotion size strictly exceeding it, or 0 when the bound is infinite
// (no comparable node ranks above the target).
func sizeAbove(bound float64) int {
	if math.IsInf(bound, 1) || math.IsNaN(bound) {
		return 0
	}
	return max(int(math.Floor(bound))+1, 1)
}
