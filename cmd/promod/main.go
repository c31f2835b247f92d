// Command promod runs the promotion-as-a-service daemon: an HTTP server
// answering concurrent centrality and promotion queries over a shared
// immutable snapshot of the host network (see internal/promod and
// DESIGN.md §15).
//
// Usage:
//
//	promod -listen 127.0.0.1:8080 -graph facebook.txt -backend csr
//	promod -listen 127.0.0.1:8080 -gen-ba 1000000,10,42 -debug-addr 127.0.0.1:6060
//	promod -listen :8080 -graph g.txt -max-inflight 64 -queue 128 -tenant-rate 100
//
// The daemon answers until SIGINT/SIGTERM (graceful drain, bounded by
// -drain) and swaps in a freshly loaded snapshot on SIGHUP or
// POST /admin/reload — in-flight requests finish on the snapshot they
// started on.
//
// Endpoints: POST /v1/promote, GET /v1/scores, GET /v1/manifest,
// GET /healthz, POST /admin/reload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"promonet/internal/obs"
	"promonet/internal/promod"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "promod:", err)
		os.Exit(1)
	}
}

// options is promod's full flag surface, registered on a caller-owned
// FlagSet so the flag-surface test can assert it without global state.
type options struct {
	listen      *string
	graphPath   *string
	genBA       *string
	backend     *string
	maxInflight *int
	queueDepth  *int
	queueWait   *time.Duration
	tenantRate  *float64
	tenantBurst *float64
	exactMaxN   *int
	cacheSize   *int
	drain       *time.Duration
	obs         *obs.ObsFlags
}

// registerFlags defines every promod flag on fs.
func registerFlags(fs *flag.FlagSet) *options {
	return &options{
		listen:      fs.String("listen", "127.0.0.1:8080", "host:port to serve the API on (:0 picks a free port)"),
		graphPath:   fs.String("graph", "", "edge-list file of the host graph (mutually exclusive with -gen-ba)"),
		genBA:       fs.String("gen-ba", "", "generate a Barabási–Albert host instead of loading one: n,k[,seed] (seed defaults to 42)"),
		backend:     fs.String("backend", "csr", "serving representation: csr (frozen snapshot) or map (adjacency map)"),
		maxInflight: fs.Int("max-inflight", 0, "max concurrently executing requests; 0 disables the gate"),
		queueDepth:  fs.Int("queue", 0, "requests allowed to wait for an in-flight slot before shedding"),
		queueWait:   fs.Duration("queue-wait", 0, "max time a queued request waits before shedding (0 = 100ms default)"),
		tenantRate:  fs.Float64("tenant-rate", 0, "per-tenant token refill rate in requests/sec; 0 disables tenant budgets"),
		tenantBurst: fs.Float64("tenant-burst", 10, "per-tenant token bucket capacity"),
		exactMaxN:   fs.Int("exact-max-n", 0, "largest host (nodes) exact-mode rescoring is allowed on (0 = 200000)"),
		cacheSize:   fs.Int("cache", 0, "answer-cache entries per snapshot (0 = 4096); two snapshots hold answers briefly during a swap"),
		drain:       fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for in-flight requests"),
		obs:         obs.RegisterObsFlags(fs),
	}
}

// parseGenBA parses the -gen-ba spec "n,k[,seed]".
func parseGenBA(spec string) (n, k int, seed int64, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) < 2 || len(parts) > 3 {
		return 0, 0, 0, fmt.Errorf("bad -gen-ba %q: want n,k[,seed]", spec)
	}
	if n, err = strconv.Atoi(strings.TrimSpace(parts[0])); err != nil || n < 2 {
		return 0, 0, 0, fmt.Errorf("bad -gen-ba n in %q", spec)
	}
	if k, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil || k < 1 {
		return 0, 0, 0, fmt.Errorf("bad -gen-ba k in %q", spec)
	}
	seed = 42
	if len(parts) == 3 {
		if seed, err = strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad -gen-ba seed in %q", spec)
		}
	}
	return n, k, seed, nil
}

// sourceFromFlags resolves the host source from -graph / -gen-ba.
func sourceFromFlags(opt *options) (promod.Source, error) {
	switch {
	case *opt.graphPath != "" && *opt.genBA != "":
		return promod.Source{}, fmt.Errorf("-graph and -gen-ba are mutually exclusive")
	case *opt.graphPath != "":
		return promod.FileSource(*opt.graphPath), nil
	case *opt.genBA != "":
		n, k, seed, err := parseGenBA(*opt.genBA)
		if err != nil {
			return promod.Source{}, err
		}
		return promod.BASource(n, k, seed), nil
	default:
		return promod.Source{}, fmt.Errorf("one of -graph or -gen-ba is required")
	}
}

func run() error {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()

	src, err := sourceFromFlags(opt)
	if err != nil {
		return err
	}
	// The daemon is a long-lived span producer; activate observability
	// unconditionally so /debug/trace on -debug-addr always has spans.
	session, err := opt.obs.Activate("promod", 8192, true)
	if err != nil {
		return err
	}
	defer func() { _ = session.Close() }()

	srv, err := promod.New(promod.Config{
		Source:  src,
		Backend: *opt.backend,
		Admission: promod.AdmissionConfig{
			MaxInflight: *opt.maxInflight,
			QueueDepth:  *opt.queueDepth,
			QueueWait:   *opt.queueWait,
			TenantRate:  *opt.tenantRate,
			TenantBurst: *opt.tenantBurst,
		},
		ExactMaxN:    *opt.exactMaxN,
		CacheEntries: *opt.cacheSize,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(*opt.listen); err != nil {
		return err
	}
	info := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "promod: listening on %s\n", srv.Addr())
	fmt.Fprintf(os.Stderr, "promod: serving %s (%s backend, n=%d m=%d, digest %.12s)\n",
		info.Name, info.Backend, info.N, info.M, info.Digest)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for sig := range sigc {
		if sig == syscall.SIGHUP {
			next, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "promod: reload failed, keeping current snapshot: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "promod: swapped in snapshot seq %d (n=%d m=%d, digest %.12s)\n",
				next.Seq, next.N, next.M, next.Digest)
			continue
		}
		fmt.Fprintf(os.Stderr, "promod: %v: draining (up to %v)\n", sig, *opt.drain)
		ctx, cancel := context.WithTimeout(context.Background(), *opt.drain)
		err := srv.Shutdown(ctx)
		cancel()
		return err
	}
	return nil
}
