package promod

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/gen"
	"promonet/internal/graph"
)

// lemmaOracle evaluates the p′ lemmas for one measure on one host by
// scanning every node, with no rank index: the reference the served
// answers are checked against.
type lemmaOracle struct {
	g      *graph.Graph
	name   string
	scores []float64 // the served score vector
	far    []int64   // closeness only
	ecc    []float64 // eccentricity only: ĒC, the max distance
}

func newLemmaOracle(g *graph.Graph, name string) lemmaOracle {
	eng := engine.Default()
	kernels := map[string]engine.Measure{
		"betweenness":  engine.Betweenness(centrality.PairsUnordered),
		"coreness":     engine.Coreness(),
		"closeness":    engine.Closeness(),
		"eccentricity": engine.Eccentricity(),
	}
	o := lemmaOracle{g: g, name: name, scores: eng.Scores(g, kernels[name])}
	switch name {
	case "closeness":
		o.far = eng.FarnessInt64(g)
	case "eccentricity":
		o.ecc = eng.Scores(g, engine.ReciprocalEccentricity())
	}
	return o
}

// top returns the lowest-ID node of maximum score (rank 1).
func (o lemmaOracle) top() int {
	best := 0
	for v, s := range o.scores {
		if s > o.scores[best] {
			best = v
		}
	}
	return best
}

// overtaken returns how many nodes ranked above t the lemma proves the
// guided strategy of size p overtakes.
func (o lemmaOracle) overtaken(t, p int) int {
	sT := o.scores[t]
	over := 0
	switch o.name {
	case "betweenness":
		// Lemma 5.3: the target gains at least (p−1)².
		gain := float64(p-1) * float64(p-1)
		for _, s := range o.scores {
			if s > sT && s < sT+gain {
				over++
			}
		}
	case "coreness":
		for _, s := range o.scores {
			if s > sT && float64(p) > core.BoostSizeCoreness(int(s)) {
				over++
			}
		}
	case "closeness":
		dist := centrality.Distances(o.g, t)
		for v := range o.far {
			if v != t && o.far[v] < o.far[t] && dist[v] > 0 &&
				float64(p) > core.BoostSizeCloseness(o.far[t], o.far[v], int(dist[v])) {
				over++
			}
		}
	case "eccentricity":
		higher := false
		for _, e := range o.ecc {
			higher = higher || (e > 0 && e < o.ecc[t])
		}
		if higher && float64(p) > core.BoostSizeEccentricity(int(o.ecc[t])) {
			over = centrality.RankOf(o.scores, t) - 1
		}
	}
	return over
}

// TestServedGuaranteeMatchesCore pins the daemon's lemma answers to the
// library's: the served guaranteed size equals core.GuaranteedSize, and
// the served ranks and predicted deltas equal a node-by-node evaluation
// of the lemmas, on both backends and for targets at rank 1 and below.
func TestServedGuaranteeMatchesCore(t *testing.T) {
	hosts := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(rand.New(rand.NewSource(11)), 60, 2)},
		{"path", gen.Path(9)},
		{"star", gen.Star(7)},
		{"cycle", gen.Cycle(8)},
	}
	for _, host := range hosts {
		for _, backend := range []string{"csr", "map"} {
			h := testServer(t, Config{Source: staticSource(host.g), Backend: backend}).Handler()
			for _, name := range []string{"betweenness", "coreness", "closeness", "eccentricity"} {
				m, err := core.MeasureByName(name)
				if err != nil {
					t.Fatal(err)
				}
				o := newLemmaOracle(host.g, name)
				for _, target := range []int{o.top(), 1, host.g.N() / 2, host.g.N() - 1} {
					want, needed, err := core.GuaranteedSize(host.g, m, target)
					if err != nil {
						t.Fatal(err)
					}
					if !needed {
						want = 0
					}
					rank := centrality.RankOf(o.scores, target)
					for _, p := range []int{1, 2, 3, 6} {
						resp, raw := postPromote(t, h, PromoteRequest{Target: int64(target), Measure: name, Size: p})
						if resp == nil {
							t.Fatalf("%s/%s/%s t=%d p=%d: status %d", host.name, backend, name, target, p, raw.StatusCode)
						}
						over := o.overtaken(target, p)
						if resp.GuaranteedSize != want || resp.RankBefore != rank ||
							resp.PredictedDelta != over || resp.PredictedRank != rank-over {
							t.Errorf("%s/%s/%s t=%d p=%d: served (p′ %d, rank %d, predicted %d, delta %d), want (%d, %d, %d, %d)",
								host.name, backend, name, target, p,
								resp.GuaranteedSize, resp.RankBefore, resp.PredictedRank, resp.PredictedDelta,
								want, rank, rank-over, over)
						}
					}
				}
			}
		}
	}
}

// TestAnswerEvictionKeepsStandings guards against the rank-index
// rebuild cliff: with an answer cache of two entries, a stream of
// distinct answers must still derive each measure's standing once, so
// the engine computes each measure once and is never asked again.
func TestAnswerEvictionKeepsStandings(t *testing.T) {
	eng := engine.New(1)
	defer eng.Close()
	s := testServer(t, Config{Source: staticSource(testHost(12, 80)), CacheEntries: 2, Engine: eng})
	h := s.Handler()
	for _, name := range []string{"degree", "coreness"} {
		for i := 0; i < 12; i++ {
			req := PromoteRequest{Target: int64(i * 5), Measure: name, Size: 1 + i%4}
			if resp, raw := postPromote(t, h, req); resp == nil {
				t.Fatalf("%s #%d: status %d", name, i, raw.StatusCode)
			}
		}
	}
	st := eng.Stats()
	if st.Hits != 0 {
		t.Errorf("engine memo hits = %d, want 0: a standing was derived again after an answer eviction", st.Hits)
	}
	for _, f := range st.PerFamily {
		if (f.Family == "degree" || f.Family == "coreness") && f.Computes != 1 {
			t.Errorf("%s computed %d times, want 1", f.Family, f.Computes)
		}
	}
}

// TestReloadRecomputesAnswers checks that answers drop with their
// snapshot: after a reload onto different content, a repeated promote
// carries the new snapshot's seq and digest and is computed afresh.
func TestReloadRecomputesAnswers(t *testing.T) {
	hosts := []*graph.Graph{testHost(13, 70), testHost(14, 90)}
	var loads atomic.Int32
	eng := engine.New(1)
	defer eng.Close()
	s := testServer(t, Config{Engine: eng, Source: Source{Name: "rotating", Load: func() (*graph.Graph, []int64, error) {
		return hosts[(loads.Add(1)-1)%2], nil, nil
	}}})
	h := s.Handler()
	req := PromoteRequest{Target: 9, Measure: "coreness", Size: 3}
	first, _ := postPromote(t, h, req)
	if again, _ := postPromote(t, h, req); first == nil || again == nil || again.Snapshot != first.Snapshot {
		t.Fatal("repeated promote on one snapshot was not answered from it")
	}
	misses := eng.Stats().Misses

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", bytes.NewReader(nil)))
	var reload ReloadResponse
	if rec.Code != http.StatusOK || json.NewDecoder(rec.Body).Decode(&reload) != nil {
		t.Fatalf("reload: status %d", rec.Code)
	}
	after, _ := postPromote(t, h, req)
	if after == nil {
		t.Fatal("promote after reload failed")
	}
	if after.Snapshot.Seq != 2 || after.Snapshot.Seq != reload.Snapshot.Seq ||
		after.Snapshot.Digest != reload.Snapshot.Digest || after.Snapshot.Digest == first.Snapshot.Digest {
		t.Errorf("answer after reload on snapshot %+v, want the reloaded %+v", after.Snapshot, reload.Snapshot)
	}
	if after.Manifest.Dataset.Digest != reload.Snapshot.Digest || after.Snapshot.N != hosts[1].N() {
		t.Errorf("answer after reload describes n=%d digest %s, want n=%d digest %s",
			after.Snapshot.N, after.Manifest.Dataset.Digest, hosts[1].N(), reload.Snapshot.Digest)
	}
	if eng.Stats().Misses == misses {
		t.Error("answer after reload was served without computing on the new host")
	}
}
