package core

import (
	"fmt"

	"promonet/internal/centrality"
	"promonet/internal/engine"
	"promonet/internal/graph"
)

// Principle identifies which of the paper's two promotion principles
// (Section V-A) applies to a centrality measure.
type Principle int

const (
	// MaximumGain (Definition 5.1) applies when inserting nodes can
	// only increase scores of original nodes (betweenness, coreness).
	MaximumGain Principle = iota
	// MinimumLoss (Definition 5.2) applies when inserting nodes can
	// only decrease scores of original nodes (closeness, eccentricity).
	MinimumLoss
)

// String names the principle as in the paper.
func (p Principle) String() string {
	switch p {
	case MaximumGain:
		return "maximum gain"
	case MinimumLoss:
		return "minimum loss"
	default:
		return fmt.Sprintf("Principle(%d)", int(p))
	}
}

// Measure is a centrality measure C that the promotion machinery can
// target. Scores returns C(v) for every node; Principle and Strategy
// encode the paper's Table I guidance.
type Measure interface {
	// Name is the long name, e.g. "betweenness".
	Name() string
	// Short is the paper's abbreviation: BC, RC, CC, EC, ...
	Short() string
	// Scores returns C(v) for every node of g.
	Scores(g *graph.Graph) []float64
	// Principle is the promotion principle that applies to the measure.
	Principle() Principle
	// Strategy is the principle-guided strategy type from Table I.
	Strategy() StrategyType
	// Kernel is the engine computation Scores runs; ok is false for
	// measures the engine cannot score (current-flow).
	Kernel() (k engine.Measure, ok bool)
}

// kernelScores scores g with m's engine kernel on the shared engine.
// Only measures that have a kernel call it.
func kernelScores(m Measure, g *graph.Graph) []float64 {
	k, _ := m.Kernel()
	return engine.Default().Scores(g, k)
}

// ReciprocalScorer is implemented by minimum-loss measures whose natural
// bookkeeping unit is the reciprocal score C̄(v) = 1/C(v) — farness for
// closeness, max-distance for eccentricity. The paper's Tables XI–XIV
// report these reciprocals.
type ReciprocalScorer interface {
	// Reciprocals returns C̄(v) for every node of g.
	Reciprocals(g *graph.Graph) []float64
}

// --- Betweenness ---

// BetweennessMeasure is BC (Definition 2.3). Counting selects the pair
// convention; see centrality.PairCounting.
type BetweennessMeasure struct {
	Counting centrality.PairCounting
	// SampleSources, when > 0, switches to the Brandes–Pich pivot
	// estimator with that many sources and the given seed — needed to
	// keep large-host experiments tractable. Zero means exact.
	SampleSources int
	Seed          int64
}

func (BetweennessMeasure) Name() string                      { return "betweenness" }
func (BetweennessMeasure) Short() string                     { return "BC" }
func (BetweennessMeasure) Principle() Principle              { return MaximumGain }
func (BetweennessMeasure) Strategy() StrategyType            { return MultiPoint }
func (m BetweennessMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }

// Kernel is the pivot-sampled kernel when SampleSources > 0, which the
// engine computes exactly on hosts of at most SampleSources nodes.
func (m BetweennessMeasure) Kernel() (engine.Measure, bool) {
	if m.SampleSources > 0 {
		return engine.BetweennessSampled(m.Counting, m.SampleSources, m.Seed), true
	}
	return engine.Betweenness(m.Counting), true
}

// --- Coreness ---

// CorenessMeasure is RC (Definition 2.4).
type CorenessMeasure struct{}

func (CorenessMeasure) Name() string                      { return "coreness" }
func (CorenessMeasure) Short() string                     { return "RC" }
func (CorenessMeasure) Principle() Principle              { return MaximumGain }
func (CorenessMeasure) Strategy() StrategyType            { return SingleClique }
func (m CorenessMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }
func (CorenessMeasure) Kernel() (engine.Measure, bool)    { return engine.Coreness(), true }

// --- Closeness ---

// ClosenessMeasure is CC (Definition 2.1).
type ClosenessMeasure struct{}

func (ClosenessMeasure) Name() string                      { return "closeness" }
func (ClosenessMeasure) Short() string                     { return "CC" }
func (ClosenessMeasure) Principle() Principle              { return MinimumLoss }
func (ClosenessMeasure) Strategy() StrategyType            { return MultiPoint }
func (m ClosenessMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }
func (ClosenessMeasure) Kernel() (engine.Measure, bool)    { return engine.Closeness(), true }

// Reciprocals returns the farness ĈC(v) = Σ_u dist(v, u).
func (ClosenessMeasure) Reciprocals(g *graph.Graph) []float64 {
	return engine.Default().Scores(g, engine.Farness())
}

// --- Eccentricity ---

// EccentricityMeasure is EC (Definition 2.2).
type EccentricityMeasure struct{}

func (EccentricityMeasure) Name() string                      { return "eccentricity" }
func (EccentricityMeasure) Short() string                     { return "EC" }
func (EccentricityMeasure) Principle() Principle              { return MinimumLoss }
func (EccentricityMeasure) Strategy() StrategyType            { return DoubleLine }
func (m EccentricityMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }
func (EccentricityMeasure) Kernel() (engine.Measure, bool)    { return engine.Eccentricity(), true }

// Reciprocals returns ĒC(v) = max_u dist(v, u).
func (EccentricityMeasure) Reciprocals(g *graph.Graph) []float64 {
	return engine.Default().Scores(g, engine.ReciprocalEccentricity())
}

// --- Extensions beyond the four headline measures (Section VI-B) ---

// HarmonicMeasure is harmonic centrality [27]. Appending nodes at
// distance >= 1 from everything can only increase harmonic scores of
// original nodes, so the maximum gain principle applies; the multi-point
// strategy maximizes the target's gain exactly as for closeness.
type HarmonicMeasure struct{}

func (HarmonicMeasure) Name() string                      { return "harmonic" }
func (HarmonicMeasure) Short() string                     { return "HC" }
func (HarmonicMeasure) Principle() Principle              { return MaximumGain }
func (HarmonicMeasure) Strategy() StrategyType            { return MultiPoint }
func (m HarmonicMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }
func (HarmonicMeasure) Kernel() (engine.Measure, bool)    { return engine.Harmonic(), true }

// DegreeMeasure is degree centrality. Trivially maximum-gain: only the
// target's degree changes under multi-point insertion.
type DegreeMeasure struct{}

func (DegreeMeasure) Name() string                      { return "degree" }
func (DegreeMeasure) Short() string                     { return "DC" }
func (DegreeMeasure) Principle() Principle              { return MaximumGain }
func (DegreeMeasure) Strategy() StrategyType            { return MultiPoint }
func (m DegreeMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }
func (DegreeMeasure) Kernel() (engine.Measure, bool)    { return engine.Degree(), true }

// KatzMeasure is Katz centrality [28] with the safe automatic damping of
// centrality.KatzAuto. New walks created by appended nodes can only add
// to original nodes' scores, so the maximum gain principle applies; the
// single-clique strategy concentrates the added walk mass on the target.
type KatzMeasure struct{}

func (KatzMeasure) Name() string                      { return "katz" }
func (KatzMeasure) Short() string                     { return "KC" }
func (KatzMeasure) Principle() Principle              { return MaximumGain }
func (KatzMeasure) Strategy() StrategyType            { return SingleClique }
func (m KatzMeasure) Scores(g *graph.Graph) []float64 { return kernelScores(m, g) }
func (KatzMeasure) Kernel() (engine.Measure, bool)    { return engine.Katz(), true }

// CurrentFlowMeasure is current-flow (random-walk) betweenness [13],
// the third Section VI-B extension. Pendant structures carry no transit
// current, so original-pair contributions never change and the target
// collects the entire current of every new pair — the maximum gain
// principle applies with the multi-point strategy, exactly as for
// shortest-path betweenness. Scores panics on disconnected hosts (the
// electrical model needs one component; the paper's setting is
// connected graphs).
type CurrentFlowMeasure struct{}

func (CurrentFlowMeasure) Name() string                   { return "current-flow" }
func (CurrentFlowMeasure) Short() string                  { return "CF" }
func (CurrentFlowMeasure) Principle() Principle           { return MaximumGain }
func (CurrentFlowMeasure) Strategy() StrategyType         { return MultiPoint }
func (CurrentFlowMeasure) Kernel() (engine.Measure, bool) { return engine.Measure{}, false }
func (CurrentFlowMeasure) Scores(g *graph.Graph) []float64 {
	out, err := centrality.CurrentFlowBetweenness(g)
	if err != nil {
		panic(err)
	}
	return out
}

// MeasureByName returns the measure registered under the given long or
// short name (case-sensitive short, lower-case long).
func MeasureByName(name string) (Measure, error) {
	switch name {
	case "betweenness", "BC":
		return BetweennessMeasure{Counting: centrality.PairsUnordered}, nil
	case "coreness", "RC":
		return CorenessMeasure{}, nil
	case "closeness", "CC":
		return ClosenessMeasure{}, nil
	case "eccentricity", "EC":
		return EccentricityMeasure{}, nil
	case "harmonic", "HC":
		return HarmonicMeasure{}, nil
	case "degree", "DC":
		return DegreeMeasure{}, nil
	case "katz", "KC":
		return KatzMeasure{}, nil
	case "current-flow", "currentflow", "CF":
		return CurrentFlowMeasure{}, nil
	default:
		return nil, fmt.Errorf("core: unknown measure %q", name)
	}
}
