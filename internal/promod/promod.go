// Package promod is the promotion-as-a-service daemon: a stdlib
// net/http server answering concurrent centrality and promotion queries
// over a shared immutable CSR snapshot of the host network. It is the
// repo's "millions of users" serving story — the paper's query-access
// model (an owner serving centrality answers about a network the
// clients cannot see) turned into a long-lived process.
//
// Request lifecycle:
//
//	admission (per-tenant token bucket + bounded in-flight gate,
//	            shedding 429 + Retry-After under backpressure)
//	→ snapshot pin (one atomic load; the request computes against that
//	                snapshot even if a reload swaps a new one in)
//	→ coalescing (single-flight per (measure, target, size, type,
//	              exact) on the pinned snapshot: concurrent identical
//	              queries share one computation, completed ones are
//	              served from the snapshot's bounded answer cache)
//	→ response (strategy, p, p′ guaranteed size, predicted rank delta,
//	            and a self-validating obs.Manifest carrying the pinned
//	            snapshot's digest)
//
// Promotion answers are predicted from the paper's closed-form p′
// bounds (Lemmas 5.3–5.12) by core.Standing, the one implementation
// the CLI and the experiments use too. Each snapshot derives one
// standing per measure (scores, rank order, farness or ĒC) on first
// use and keeps it for its lifetime, next to its answer cache; both
// drop with the snapshot, so there is no version prefix and nothing to
// prune on a swap, and evicting answers never evicts a standing. The
// steady-state cost of a query is a cache lookup or an O(log n) lemma
// evaluation — that is what makes thousands of requests per second
// against a 10⁶-node host feasible.
// Exact rescoring (apply the strategy on a csr.Overlay, re-run the
// engine) is available behind "exact": true, guarded by a host-size
// limit so one request cannot monopolize the daemon.
//
// Graph reloads (SIGHUP in cmd/promod, or POST /admin/reload) build the
// new snapshot off to the side and install it with one atomic pointer
// store: in-flight requests finish on the snapshot they were admitted
// under, new requests see the new one, and no request ever observes a
// torn view. Shutdown drains in-flight requests before closing.
//
// Observability: every request runs under a promod/* span, and the
// promod.requests / promod.shed / promod.coalesced / promod.swaps
// counters (plus the promod.inflight gauge and promod.latency
// histogram) publish through the promonet expvar. See DESIGN.md §15.
package promod

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"promonet/internal/engine"
	"promonet/internal/gen"
	"promonet/internal/graph"
	"promonet/internal/obs"
)

// Span names of the promod request taxonomy (precomputed constants so
// the disabled-tracing path stays allocation-free).
const (
	spanPromote = "promod/promote"
	spanScores  = "promod/scores"
	spanReload  = "promod/reload"
)

// Source produces host graphs for the daemon: once at startup and again
// on every reload. Load may return different content across calls (a
// file rewritten on disk, a rotating generator) — that is exactly what
// the graceful snapshot swap exists for. A nil label vector means node
// IDs are their own labels.
type Source struct {
	// Name identifies the dataset in manifests and logs.
	Name string
	// Load reads or builds the host graph and its ID→label mapping.
	Load func() (*graph.Graph, []int64, error)
}

// FileSource loads the host from a SNAP-style edge-list file, re-read
// on every reload so an updated file swaps in via SIGHUP.
func FileSource(path string) Source {
	return Source{
		Name: path,
		Load: func() (*graph.Graph, []int64, error) { return graph.LoadEdgeListFile(path) },
	}
}

// BASource generates a Barabási–Albert host with n nodes and k edges
// per arrival from the given seed. The same seed reproduces the same
// graph on every reload; it exists for benchmarks and smoke tests that
// want a large host without a 100 MB edge-list file.
func BASource(n, k int, seed int64) Source {
	return Source{
		Name: fmt.Sprintf("ba-n%d-k%d-seed%d", n, k, seed),
		Load: func() (*graph.Graph, []int64, error) {
			return gen.BarabasiAlbert(rand.New(rand.NewSource(seed)), n, k), nil, nil
		},
	}
}

// AdmissionConfig tunes the daemon's two admission-control layers. The
// zero value disables both (every request admitted immediately).
type AdmissionConfig struct {
	// MaxInflight caps concurrently executing requests; 0 disables the
	// gate entirely (no semaphore on the hot path).
	MaxInflight int
	// QueueDepth is how many requests may wait for an in-flight slot
	// before new arrivals are shed outright. Ignored when MaxInflight
	// is 0.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed; 0 means DefaultQueueWait. The bound is what
	// keeps the daemon from queueing unboundedly past saturation.
	QueueWait time.Duration
	// TenantRate is the per-tenant token refill rate in requests per
	// second; 0 disables per-tenant budgets.
	TenantRate float64
	// TenantBurst is the per-tenant bucket capacity; values below 1
	// are raised to 1 so an idle tenant can always send one request.
	TenantBurst float64
}

// DefaultQueueWait bounds a queued request's wait for an in-flight slot
// when AdmissionConfig.QueueWait is zero.
const DefaultQueueWait = 100 * time.Millisecond

// DefaultExactMaxN is the host-size ceiling for exact-mode rescoring
// when Config.ExactMaxN is zero: above it, "exact": true is refused
// (422) because a full engine recomputation would monopolize the
// daemon.
const DefaultExactMaxN = 200_000

// Config assembles a Server.
type Config struct {
	// Source provides the host graph at startup and on reload.
	Source Source
	// Backend selects the serving representation: "csr" (default)
	// freezes each load into an immutable flat-array snapshot; "map"
	// serves straight off the loaded adjacency-map graph (the baseline
	// the saturation benchmark compares against).
	Backend string
	// Admission tunes load shedding; the zero value admits everything.
	Admission AdmissionConfig
	// ExactMaxN guards exact-mode rescoring; 0 means DefaultExactMaxN.
	ExactMaxN int
	// Engine is the execution engine queries score through; nil means
	// engine.Default().
	Engine *engine.Engine
	// CacheEntries bounds each snapshot's answer cache; 0 means 4096
	// entries. Two snapshots hold answers at once while requests
	// pinned to the old one finish after a swap.
	CacheEntries int
}

// Server is the promotion-as-a-service daemon. Create one with New,
// expose it with Start (or mount Handler on your own listener), rotate
// hosts with Reload, and stop it with Shutdown.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	state atomic.Pointer[snapshotState]
	seq   atomic.Uint64

	adm *admission

	reloadMu sync.Mutex
	httpSrv  *http.Server
	ln       net.Listener
	started  time.Time

	mRequests  *obs.Counter
	mShed      *obs.Counter
	mSwaps     *obs.Counter
	mCoalesced *obs.Counter
	hLatency   *obs.Histogram
}

// New builds a Server and performs the initial host load + freeze
// synchronously, so a returned Server always has a snapshot to serve.
func New(cfg Config) (*Server, error) {
	if cfg.Source.Load == nil {
		return nil, fmt.Errorf("promod: Config.Source is required")
	}
	switch cfg.Backend {
	case "", "csr", "map":
	default:
		return nil, fmt.Errorf("promod: backend must be csr or map, got %q", cfg.Backend)
	}
	eng := cfg.Engine
	if eng == nil {
		eng = engine.Default()
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	reg := obs.Default()
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		started:    time.Now(),
		mRequests:  reg.Counter("promod.requests"),
		mShed:      reg.Counter("promod.shed"),
		mSwaps:     reg.Counter("promod.swaps"),
		mCoalesced: reg.Counter("promod.coalesced"),
		hLatency:   reg.Histogram("promod.latency"),
	}
	s.adm = newAdmission(cfg.Admission, s.mShed, reg.Gauge("promod.inflight"))
	if _, err := s.Reload(); err != nil {
		return nil, fmt.Errorf("promod: initial load: %w", err)
	}
	return s, nil
}

// Reload loads a fresh host from the configured source, builds its
// serving state (freeze + label index) off to the side, and installs it
// with one atomic store — the graceful snapshot swap. In-flight
// requests keep computing against the snapshot they pinned at
// admission; only requests admitted after the store see the new host.
// Concurrent reloads serialize.
func (s *Server) Reload() (SnapshotInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	_, sp := obs.Start(context.Background(), spanReload)
	defer sp.End()
	g, labels, err := s.cfg.Source.Load()
	if err != nil {
		return SnapshotInfo{}, err
	}
	st, err := s.buildState(g, labels)
	if err != nil {
		return SnapshotInfo{}, err
	}
	sp.Int("n", st.n)
	sp.Int("m", st.m)
	sp.Int64("seq", int64(st.seq))
	// The superseded snapshot's standings and answers stay with it:
	// requests pinned to it finish against them, and they drop when
	// the last of those requests does.
	s.state.Store(st)
	s.mSwaps.Inc()
	return st.info(), nil
}

// Snapshot describes the currently installed snapshot.
func (s *Server) Snapshot() SnapshotInfo { return s.state.Load().info() }

// Start listens on addr (host:port; an empty port picks a free one) and
// serves the API until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the listening address (resolving a requested :0 port).
// Empty before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the daemon gracefully: it stops accepting new
// connections, waits for in-flight requests until ctx expires, then
// hard-closes whatever remains. Safe to call without Start.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return s.httpSrv.Close()
	}
	return nil
}
