// Command centrality computes centrality measures and rankings on an
// edge-list graph — the measurement half of the pipeline, standing in
// for the NetworkX/teexGraph tooling the paper used.
//
// Usage:
//
//	centrality -graph g.txt -measure betweenness [-top 20]
//	centrality -graph g.txt -measure closeness -backend csr -manifest run.json
//	centrality -graph g.txt -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
	"promonet/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "centrality:", err)
		os.Exit(1)
	}
}

// options is the centrality flag surface, registered on a caller-owned
// FlagSet so tests can assert it without global flag state.
type options struct {
	graphPath    *string
	measureName  *string
	backend      *string
	top          *int
	stats        *bool
	lcc          *bool
	engineStats  *bool
	obs          *obs.ObsFlags
	manifestPath *string
}

// registerFlags defines every centrality flag on fs.
func registerFlags(fs *flag.FlagSet) *options {
	return &options{
		graphPath:    fs.String("graph", "", "edge-list file (required)"),
		measureName:  fs.String("measure", "closeness", "measure: betweenness|coreness|closeness|eccentricity|harmonic|degree|katz"),
		backend:      fs.String("backend", "map", "scoring backend: map (adjacency-map graph) or csr (frozen flat-array snapshot)"),
		top:          fs.Int("top", 20, "print the top-k nodes by score"),
		stats:        fs.Bool("stats", false, "print Table VI-style statistics instead of scores"),
		lcc:          fs.Bool("lcc", true, "restrict to the largest connected component (the paper's preprocessing)"),
		engineStats:  fs.Bool("enginestats", false, "print execution-engine cache/traversal counters to stderr on exit"),
		obs:          obs.RegisterObsFlags(fs),
		manifestPath: fs.String("manifest", "", "write a reproducible run manifest (JSON) to this file"),
	}
}

func run() (err error) {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()
	if *opt.engineStats {
		defer func() { fmt.Fprintln(os.Stderr, engine.Default().Stats()) }()
	}

	// Tracing is demand-driven: Activate installs a recorder only when a
	// manifest, a trace file, or the debug endpoints will consume the
	// spans; otherwise scoring stays on the zero-alloc disabled path.
	session, err := opt.obs.Activate("centrality", 4096, *opt.manifestPath != "")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := session.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if *opt.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	g, labels, err := graph.LoadEdgeListFile(*opt.graphPath)
	if err != nil {
		return err
	}
	if *opt.lcc && !g.IsConnected() {
		sub, orig := g.LargestComponent()
		fmt.Printf("restricting to largest connected component: n %d -> %d\n", g.N(), sub.N())
		remapped := make([]int64, sub.N())
		for newID, oldID := range orig {
			remapped[newID] = labels[oldID]
		}
		g, labels = sub, remapped
	}

	if *opt.stats {
		fmt.Printf("n=%d m=%d diameter=%d degeneracy=%d\n",
			g.N(), g.M(), centrality.Diameter(g), centrality.Degeneracy(g))
		return nil
	}

	m, err := core.MeasureByName(*opt.measureName)
	if err != nil {
		return err
	}
	// scored is the view the scores were actually computed on; the
	// manifest's dataset digest comes from it, so map and csr runs of
	// the same graph provably agree (graph.Digest is backend-independent
	// over the View interface).
	var scored graph.View = g
	var scores []float64
	switch *opt.backend {
	case "map":
		scores = m.Scores(g)
	case "csr":
		kernel, ok := m.Kernel()
		if !ok {
			return fmt.Errorf("measure %q has no csr backend (use -backend map)", *opt.measureName)
		}
		snap := csr.Freeze(g)
		scored = snap
		scores = engine.Default().Scores(snap, kernel)
	default:
		return fmt.Errorf("-backend must be map or csr, got %q", *opt.backend)
	}
	if *opt.manifestPath != "" {
		if err := writeManifest(*opt.manifestPath, opt, scored, m); err != nil {
			return err
		}
	}
	ranks := centrality.Ranks(scores)

	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	k := *opt.top
	if k > len(idx) {
		k = len(idx)
	}
	fmt.Printf("%-8s %-10s %-6s %s\n", "rank", "label", "id", m.Short())
	for _, v := range idx[:k] {
		fmt.Printf("%-8d %-10d %-6d %g\n", ranks[v], labels[v], v, scores[v])
	}
	return nil
}

// writeManifest captures the run's provenance into opt.manifestPath.
// The dataset section is derived from the scored view — not the loaded
// graph — so the digest/n/m reflect exactly what the selected backend
// computed on (the manifest-parity contract the differential test in
// main_test.go pins).
func writeManifest(path string, opt *options, scored graph.View, m core.Measure) error {
	man := obs.NewManifest("centrality", 0)
	man.CaptureFlags(flag.CommandLine)
	man.Dataset = &obs.DatasetInfo{
		Name:   filepath.Base(*opt.graphPath),
		N:      scored.N(),
		M:      scored.M(),
		Digest: graph.Digest(scored),
	}
	man.Measure = m.Name()
	man.CapturePhases(obs.CurrentRecorder())
	es := engine.Default().Stats().Manifest()
	man.Engine = &es
	man.CaptureMem()
	return man.WriteFile(path)
}
