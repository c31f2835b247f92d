package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/gen"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
	"promonet/internal/promod"
)

// engineMeasure maps a promod measure name to the engine kernel promod
// scores it with.
func engineMeasure(name string) engine.Measure {
	switch name {
	case "betweenness":
		return engine.Betweenness(centrality.PairsUnordered)
	case "coreness":
		return engine.Coreness()
	case "closeness":
		return engine.Closeness()
	case "eccentricity":
		return engine.Eccentricity()
	case "harmonic":
		return engine.Harmonic()
	case "katz":
		return engine.Katz()
	default:
		return engine.Degree()
	}
}

// host is one generated host: the file the daemon loads and the
// harness's own freeze of that same file, with the expected base
// standing of every node under each measure servable on it.
type host struct {
	seed   int64
	path   string
	g      *graph.Graph
	labels []int64
	index  map[int64]int
	snap   *csr.Snapshot
	digest string

	scores map[string][]float64
	sorted map[string][]float64 // scores, descending
	ranks  map[string][]int
}

// makeHost generates the BA host of the given seed, writes it as an
// edge-list file, reads that file back, freezes it and scores it.
func makeHost(dir string, w *workload, seed int64, eng *engine.Engine) (*host, error) {
	path := filepath.Join(dir, fmt.Sprintf("host-%d.txt", seed))
	g := gen.BarabasiAlbert(rand.New(rand.NewSource(seed)), w.hostN, w.hostK)
	if err := graph.SaveEdgeListFile(path, g); err != nil {
		return nil, err
	}
	g, labels, err := graph.LoadEdgeListFile(path)
	if err != nil {
		return nil, err
	}
	h := &host{
		seed: seed, path: path, g: g, labels: labels,
		index:  make(map[int64]int, len(labels)),
		snap:   csr.Freeze(g),
		scores: map[string][]float64{}, sorted: map[string][]float64{}, ranks: map[string][]int{},
	}
	for id, l := range labels {
		h.index[l] = id
	}
	h.digest = h.snap.Digest()
	for _, m := range w.servable {
		s := eng.Scores(h.snap, engineMeasure(m))
		h.scores[m] = s
		h.ranks[m] = centrality.Ranks(s)
		desc := append([]float64(nil), s...)
		sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
		h.sorted[m] = desc
	}
	return h, nil
}

// countGreater returns how many nodes score strictly above s.
func (h *host) countGreater(measure string, s float64) int {
	desc := h.sorted[measure]
	return sort.Search(len(desc), func(i int) bool { return desc[i] <= s })
}

// install copies the host file onto the daemon's path through a rename,
// so a reload never reads a half-written file.
func (h *host) install(daemonPath string) error {
	data, err := os.ReadFile(h.path)
	if err != nil {
		return err
	}
	tmp := daemonPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, daemonPath)
}

// strategyOf resolves a request's strategy type (the guided one when it
// names none).
func strategyOf(r request) core.StrategyType {
	for _, t := range allStrategies {
		if t.String() == r.Strategy {
			return t
		}
	}
	return guidedStrategy(r.Measure)
}

// sampled is one verified answer, kept for the rescoring sample.
type sampled struct {
	req  request
	host *host
	resp *promod.PromoteResponse
}

// verifier checks answers against the harness's own hosts.
type verifier struct {
	hostBySeq map[uint64]*host
	problems  []string

	exact      []sampled // exact answers, in sequence order of first sight
	guaranteed []sampled // guaranteed-mode answers
	closed     []sampled // closed-form answers
	seen       map[string]bool
}

func newVerifier() *verifier {
	return &verifier{hostBySeq: map[uint64]*host{}, seen: map[string]bool{}}
}

func (v *verifier) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	v.problems = append(v.problems, err.Error())
	return err
}

// check verifies one 200 answer to req; body is the raw response.
func (v *verifier) check(req request, body []byte) error {
	var resp promod.PromoteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return v.fail("%s: undecodable answer: %v", req.key(), err)
	}
	h := v.hostBySeq[resp.Snapshot.Seq]
	if h == nil {
		return v.fail("%s: answer on unknown snapshot seq %d", req.key(), resp.Snapshot.Seq)
	}
	id, ok := h.index[req.Target]
	switch {
	case resp.Snapshot.Digest != h.digest:
		return v.fail("%s: snapshot seq %d digest %.12s, harness froze %.12s", req.key(), resp.Snapshot.Seq, resp.Snapshot.Digest, h.digest)
	case resp.Snapshot.N != h.snap.N() || resp.Snapshot.M != h.snap.M():
		return v.fail("%s: snapshot n=%d m=%d, harness n=%d m=%d", req.key(), resp.Snapshot.N, resp.Snapshot.M, h.snap.N(), h.snap.M())
	case resp.Manifest == nil || resp.Manifest.Dataset == nil || resp.Manifest.Dataset.Digest != h.digest:
		return v.fail("%s: manifest dataset digest does not match the snapshot", req.key())
	case !ok:
		return v.fail("%s: target label not in the harness host", req.key())
	case resp.Target != req.Target || resp.Measure != req.Measure || resp.Size != req.Size:
		return v.fail("%s: answer is for target=%d measure=%s size=%d", req.key(), resp.Target, resp.Measure, resp.Size)
	}
	stype := strategyOf(req)
	strat := core.Strategy{Target: id, Size: req.Size, Type: stype}
	if resp.Strategy != stype.String() || resp.EdgeCost != strat.NumEdges() {
		return v.fail("%s: strategy %s edge_cost %d, want %s %d", req.key(), resp.Strategy, resp.EdgeCost, stype, strat.NumEdges())
	}
	want := h.scores[req.Measure][id]
	if math.Float64bits(resp.ScoreBefore) != math.Float64bits(want) || resp.RankBefore != h.ranks[req.Measure][id] {
		return v.fail("%s: score_before %v rank_before %d, harness %v %d", req.key(), resp.ScoreBefore, resp.RankBefore, want, h.ranks[req.Measure][id])
	}
	c := sampled{req: req, host: h, resp: &resp}
	seenKey := fmt.Sprintf("%d|%s", resp.Snapshot.Seq, req.key())
	first := !v.seen[seenKey]
	v.seen[seenKey] = true
	if req.Exact {
		e := resp.Exact
		if resp.Mode != promod.ModeExact || e == nil {
			return v.fail("%s: exact request answered in mode %s", req.key(), resp.Mode)
		}
		if e.DeltaRank != resp.RankBefore-e.RankAfter || resp.PredictedRank != e.RankAfter ||
			resp.PredictedDelta != e.DeltaRank || e.Inserted != req.Size || e.Effective != (e.DeltaRank > 0) {
			return v.fail("%s: inconsistent exact outcome %+v", req.key(), *e)
		}
		if first {
			v.exact = append(v.exact, c)
		}
		return nil
	}
	if req.Measure == "degree" {
		// The closed form: the target gains the edges attached to it and
		// no original node's degree changes.
		attached := req.Size
		if stype == core.DoubleLine && req.Size > 1 {
			attached = 2
		}
		after := want + float64(attached)
		rank := 1 + h.countGreater("degree", after)
		if resp.Mode != promod.ModeClosedForm || resp.PredictedScore == nil ||
			math.Float64bits(*resp.PredictedScore) != math.Float64bits(after) ||
			resp.PredictedRank != rank || resp.PredictedDelta != resp.RankBefore-rank {
			return v.fail("%s: degree closed form mode=%s rank=%d delta=%d, want score %v rank %d", req.key(), resp.Mode, resp.PredictedRank, resp.PredictedDelta, after, rank)
		}
		if first {
			v.closed = append(v.closed, c)
		}
		return nil
	}
	if resp.Mode == promod.ModeGuaranteed && first {
		v.guaranteed = append(v.guaranteed, c)
	}
	return nil
}

// rescoreSample rescores the first perKind answers of each kind on the
// harness's own overlay: exact answers must equal the rescoring bit for
// bit, closed-form answers must equal it, and a guaranteed delta must
// not exceed the exact delta. It returns how many answers it rescored.
func (v *verifier) rescoreSample(eng *engine.Engine, perKind int) int {
	n := 0
	for _, kind := range [][]sampled{v.exact, v.closed, v.guaranteed} {
		for i, c := range kind {
			if i == perKind {
				break
			}
			n++
			id := c.host.index[c.req.Target]
			strat := core.Strategy{Target: id, Size: c.req.Size, Type: strategyOf(c.req)}
			ov := csr.NewOverlay(c.host.snap)
			if _, err := strat.ApplyTo(ov); err != nil {
				v.fail("%s: applying the strategy: %v", c.req.key(), err)
				continue
			}
			after := eng.Scores(ov, engineMeasure(c.req.Measure))
			rankAfter := centrality.RankOf(after, id)
			delta := c.resp.RankBefore - rankAfter
			r := c.resp
			switch {
			case r.Exact != nil:
				if math.Float64bits(r.Exact.ScoreAfter) != math.Float64bits(after[id]) || r.Exact.RankAfter != rankAfter {
					v.fail("%s: exact score_after %v rank_after %d, harness rescoring %v %d", c.req.key(), r.Exact.ScoreAfter, r.Exact.RankAfter, after[id], rankAfter)
				}
			case r.Mode == promod.ModeClosedForm:
				if math.Float64bits(*r.PredictedScore) != math.Float64bits(after[id]) || r.PredictedRank != rankAfter {
					v.fail("%s: closed form score %v rank %d, harness rescoring %v %d", c.req.key(), *r.PredictedScore, r.PredictedRank, after[id], rankAfter)
				}
			default:
				if r.PredictedDelta > delta {
					v.fail("%s: guaranteed delta %d exceeds the exact delta %d", c.req.key(), r.PredictedDelta, delta)
				}
			}
		}
	}
	return n
}
