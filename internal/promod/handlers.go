package promod

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"promonet/internal/core"
	"promonet/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/promote   promotion query (admission-gated, coalesced)
//	GET  /v1/scores    centrality scores/ranks (admission-gated)
//	GET  /v1/manifest  current snapshot's validated manifest
//	GET  /healthz      liveness + snapshot description
//	POST /admin/reload graceful snapshot swap from the configured source
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/scores", s.handleScores)
	mux.HandleFunc("/v1/manifest", s.handleManifest)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/admin/reload", s.handleReload)
	return mux
}

// maxBodyBytes bounds a promote request body; the API has no field that
// legitimately needs more than a kilobyte.
const maxBodyBytes = 1 << 20

// tenantOf extracts the request's tenant identity for per-tenant
// budgets.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Promod-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// writeJSON renders v with the given status. Encode errors mean the
// client hung up mid-response; there is nobody left to tell.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// shedResponse renders the 429 + Retry-After load-shed answer.
func shedResponse(w http.ResponseWriter, retry time.Duration) {
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "overloaded, retry later"})
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.mRequests.Inc()
	_, sp := obs.Start(r.Context(), spanPromote)
	defer sp.End()
	release, retry, ok := s.adm.admit(tenantOf(r))
	if !ok {
		shedResponse(w, retry)
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.hLatency.Observe(time.Since(start)) }()

	var req PromoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Pin the snapshot with one atomic load: everything below computes
	// against st even if a reload swaps the installed pointer mid-flight.
	st := s.state.Load()
	resp, status, err := s.promote(st, &req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	sp.Str("measure", resp.Measure)
	sp.Int("size", resp.Size)
	writeJSON(w, http.StatusOK, resp)
}

// promote answers one promotion query on the pinned snapshot. The whole
// response is coalesced per (measure, target, size, type, exact) in the
// snapshot's answer cache, so a burst of identical queries costs one
// computation.
func (s *Server) promote(st *snapshotState, req *PromoteRequest) (*PromoteResponse, int, error) {
	m, err := servableMeasure(req.Measure)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	t, ok := st.nodeOf(req.Target)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("promod: no node labeled %d in snapshot seq %d", req.Target, st.seq)
	}
	stype := m.Strategy()
	if req.Strategy != "" {
		if stype, err = core.ParseStrategyType(req.Strategy); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	var p int
	switch {
	case req.Size > 0 && req.Budget > 0:
		return nil, http.StatusBadRequest, fmt.Errorf("promod: size and budget are mutually exclusive")
	case req.Size > 0:
		p = req.Size
	case req.Budget > 0:
		if p = core.MaxSizeWithinBudget(stype, req.Budget); p < 1 {
			return nil, http.StatusUnprocessableEntity,
				fmt.Errorf("promod: budget %d affords no %s promotion", req.Budget, stype)
		}
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("promod: one of size or budget is required")
	}
	maxN := s.cfg.ExactMaxN
	if maxN <= 0 {
		maxN = DefaultExactMaxN
	}
	if req.Exact && st.n > maxN {
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("promod: exact rescoring refused on %d-node host (limit %d)", st.n, maxN)
	}

	strat := core.Strategy{Target: t, Size: p, Type: stype}
	key := fmt.Sprintf("%s|%d|%d|%d|%t", m.Name(), t, p, int(stype), req.Exact)
	v, err := st.answers.do(key, func() (any, error) {
		return s.buildPromoteResponse(st, m, strat, req.Target, req.Exact)
	})
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return v.(*PromoteResponse), http.StatusOK, nil
}

// buildPromoteResponse is the cache-miss path of promote.
func (s *Server) buildPromoteResponse(st *snapshotState, m core.Measure, strat core.Strategy, label int64, exact bool) (*PromoteResponse, error) {
	sd, err := s.standing(st, m)
	if err != nil {
		return nil, err
	}
	pr := sd.Predict(st.view, strat)
	resp := &PromoteResponse{
		Target:         label,
		Measure:        m.Name(),
		Principle:      m.Principle().String(),
		Strategy:       strat.Type.String(),
		Size:           strat.Size,
		EdgeCost:       strat.NumEdges(),
		GuaranteedSize: pr.GuaranteedSize,
		ScoreBefore:    sd.Score(strat.Target),
		RankBefore:     pr.RankBefore,
		PredictedRank:  pr.Rank,
		PredictedDelta: pr.Delta,
		Mode:           pr.Mode.String(),
		Snapshot:       st.info(),
	}
	if !math.IsNaN(pr.Score) {
		resp.PredictedScore = &pr.Score
	}
	if exact {
		eo, err := s.exactOutcome(st, m, strat, pr.RankBefore)
		if err != nil {
			return nil, err
		}
		resp.Exact = eo
		resp.Mode = ModeExact
		resp.PredictedRank = eo.RankAfter
		resp.PredictedDelta = eo.DeltaRank
		resp.PredictedScore = &eo.ScoreAfter
	}
	man := st.manifest(m.Name())
	if _, err := man.Encode(); err != nil { // Encode validates; a response never carries an invalid manifest
		return nil, err
	}
	resp.Manifest = man
	return resp, nil
}

func (s *Server) handleScores(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mRequests.Inc()
	_, sp := obs.Start(r.Context(), spanScores)
	defer sp.End()
	release, retry, ok := s.adm.admit(tenantOf(r))
	if !ok {
		shedResponse(w, retry)
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.hLatency.Observe(time.Since(start)) }()

	q := r.URL.Query()
	m, err := servableMeasure(q.Get("measure"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := s.state.Load()
	sd, err := s.standing(st, m)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := &ScoresResponse{Measure: m.Name(), Snapshot: st.info()}
	if raw := q.Get("labels"); raw != "" {
		for _, fld := range strings.Split(raw, ",") {
			label, err := strconv.ParseInt(strings.TrimSpace(fld), 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad label "+fld)
				return
			}
			id, ok := st.nodeOf(label)
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Sprintf("promod: no node labeled %d", label))
				return
			}
			resp.Nodes = append(resp.Nodes, NodeScore{Label: label, Score: sd.Score(id), Rank: sd.Rank(id)})
			if len(resp.Nodes) > 1000 {
				writeError(w, http.StatusBadRequest, "too many labels (max 1000)")
				return
			}
		}
	}
	topK := 0
	if raw := q.Get("top"); raw != "" {
		if topK, err = strconv.Atoi(raw); err != nil || topK < 0 {
			writeError(w, http.StatusBadRequest, "bad top count")
			return
		}
	} else if resp.Nodes == nil {
		topK = 10 // bare GET /v1/scores?measure=… lists the leaderboard
	}
	if topK > 1000 {
		topK = 1000
	}
	if topK > st.n {
		topK = st.n
	}
	for i := 0; i < topK; i++ {
		id := sd.Ordered(i)
		resp.Top = append(resp.Top, NodeScore{Label: st.labelOf(id), Score: sd.Score(id), Rank: sd.Rank(id)})
	}
	sp.Str("measure", m.Name())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.state.Load()
	data, err := st.manifest("").Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Snapshot: s.Snapshot()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	info, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Snapshot: info})
}
