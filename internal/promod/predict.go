package promod

import (
	"fmt"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
)

// servableMeasure resolves a long or short measure name, rejecting
// measures with no engine kernel.
func servableMeasure(name string) (core.Measure, error) {
	m, err := core.MeasureByName(name)
	if err != nil {
		return nil, err
	}
	if _, ok := m.Kernel(); !ok {
		return nil, fmt.Errorf("promod: measure %q has no serving kernel", m.Name())
	}
	return m, nil
}

// standing returns m's standing on the pinned snapshot: derived once on
// first use, shared by every request on that snapshot, and dropped with
// it. Answer evictions never touch it.
func (s *Server) standing(st *snapshotState, m core.Measure) (*core.Standing, error) {
	v, err := st.standings.do(m.Name(), func() (any, error) {
		return core.NewStanding(s.eng, st.view, m)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Standing), nil
}

// exactOutcome applies the strategy to a private copy of the pinned
// host and rescores it with the engine — the measured ground truth the
// predictions bound. On the csr backend the copy is a csr.Overlay (a
// few touched rows, not a host clone); on the map backend it is a full
// materialized clone.
func (s *Server) exactOutcome(st *snapshotState, m core.Measure, strat core.Strategy, rankBefore int) (*ExactOutcome, error) {
	k, _ := m.Kernel() // servableMeasure admitted m, so it has one
	var after []float64
	var inserted []int
	var err error
	if st.snap != nil {
		ov := csr.NewOverlay(st.snap)
		if inserted, err = strat.ApplyTo(ov); err == nil {
			after = s.eng.Scores(ov, k)
		}
	} else {
		g2 := graph.Materialize(st.g)
		if inserted, err = strat.ApplyTo(g2); err == nil {
			after = s.eng.Scores(g2, k)
		}
	}
	if err != nil {
		return nil, err
	}
	rankAfter := centrality.RankOf(after, strat.Target)
	delta := rankBefore - rankAfter
	return &ExactOutcome{
		ScoreAfter: after[strat.Target],
		RankAfter:  rankAfter,
		DeltaRank:  delta,
		Ratio:      centrality.Ratio(delta, st.n),
		Effective:  delta > 0,
		Inserted:   len(inserted),
	}, nil
}
