// Command promoctl applies a black-box promotion strategy to a graph and
// reports the outcome: score/ranking variations, the property check for
// the measure's principle, and the theoretical guaranteed size.
//
// Usage:
//
//	promoctl -graph g.txt -target 42 -measure closeness -p 16
//	promoctl -graph g.txt -target 42 -measure betweenness -p 8 -strategy single-clique
//	promoctl -graph g.txt -target 42 -measure coreness -guaranteed
//	promoctl -graph g.txt -target 42 -measure closeness -p 16 -out g2.txt
//
// The graph file is a SNAP-style edge list (see internal/graph). The
// target is addressed by its original label in the file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/graph"
	"promonet/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "promoctl:", err)
		os.Exit(1)
	}
}

// options is promoctl's full flag surface, registered on a caller-owned
// FlagSet so tests can assert the surface without touching the global
// flag.CommandLine state.
type options struct {
	graphPath    *string
	targetLabel  *int64
	measureName  *string
	size         *int
	strategyName *string
	guaranteed   *bool
	outPath      *string
	dotPath      *string
	jsonOut      *bool
	engineStats  *bool
	obs          *obs.ObsFlags
	manifestPath *string
}

// registerFlags defines every promoctl flag on fs.
func registerFlags(fs *flag.FlagSet) *options {
	return &options{
		graphPath:    fs.String("graph", "", "edge-list file of the host graph (required)"),
		targetLabel:  fs.Int64("target", -1, "target node label as it appears in the file (required)"),
		measureName:  fs.String("measure", "closeness", "centrality measure: betweenness|coreness|closeness|eccentricity|harmonic|degree|katz"),
		size:         fs.Int("p", 0, "promotion size (number of inserted nodes)"),
		strategyName: fs.String("strategy", "", "override the principle-guided strategy: multi-point|double-line|single-clique"),
		guaranteed:   fs.Bool("guaranteed", false, "use the smallest provably sufficient size instead of -p"),
		outPath:      fs.String("out", "", "write the updated graph G' to this file"),
		dotPath:      fs.String("dot", "", "write the updated graph in Graphviz DOT format (target red, inserted gray)"),
		jsonOut:      fs.Bool("json", false, "print the outcome as JSON instead of text"),
		engineStats:  fs.Bool("enginestats", false, "print execution-engine cache/traversal counters to stderr on exit (and embed them in -json output)"),
		obs:          obs.RegisterObsFlags(fs),
		manifestPath: fs.String("manifest", "", "write a reproducible run manifest (JSON) to this file"),
	}
}

func run() (err error) {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()
	graphPath := opt.graphPath
	targetLabel := opt.targetLabel
	size := opt.size
	guaranteed := opt.guaranteed
	jsonOut := opt.jsonOut
	if *opt.engineStats {
		defer func() { fmt.Fprintln(os.Stderr, engine.Default().Stats()) }()
	}

	// Tracing is demand-driven: Activate installs a recorder (plus
	// flight recorder and runtime poller) only when something will
	// consume the spans — a manifest, a trace file, or the debug
	// endpoints; otherwise every obs.Start in the libraries stays on the
	// zero-allocation disabled path.
	session, err := opt.obs.Activate("promoctl", 4096, *opt.manifestPath != "")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := session.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if *targetLabel < 0 {
		return fmt.Errorf("-target is required")
	}
	g, labels, err := graph.LoadEdgeListFile(*graphPath)
	if err != nil {
		return err
	}
	target := -1
	for id, l := range labels {
		if l == *targetLabel {
			target = id
			break
		}
	}
	if target == -1 {
		return fmt.Errorf("target label %d not found in %s", *targetLabel, *graphPath)
	}
	m, err := core.MeasureByName(*opt.measureName)
	if err != nil {
		return err
	}
	if *opt.manifestPath != "" {
		// Written on the way out so the manifest covers the whole run,
		// including failed ones (the phases show how far it got).
		defer func() {
			if werr := writeManifest(*opt.manifestPath, opt, g, m); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	if !*jsonOut {
		fmt.Printf("host: %v, target: label %d (id %d)\n", g, *targetLabel, target)
		fmt.Printf("measure: %s (%s principle, guided strategy: %s)\n", m.Name(), m.Principle(), m.Strategy())
	}

	var g2 *graph.Graph
	var o *core.Outcome
	switch {
	case *guaranteed:
		p, needed, err := core.GuaranteedSize(g, m, target)
		if err != nil {
			return err
		}
		if !needed {
			fmt.Println("target is already at rank 1; nothing to do")
			return nil
		}
		if !*jsonOut {
			fmt.Printf("guaranteed size p' + 1 = %d\n", p)
		}
		g2, o, err = core.Promote(g, m, target, p)
		if err != nil {
			return err
		}
	case *opt.strategyName != "":
		st, err := core.ParseStrategyType(*opt.strategyName)
		if err != nil {
			return err
		}
		if *size < 1 {
			return fmt.Errorf("-p must be >= 1")
		}
		g2, o, err = core.PromoteWith(g, m, core.Strategy{Target: target, Size: *size, Type: st})
		if err != nil {
			return err
		}
	default:
		if *size < 1 {
			return fmt.Errorf("-p must be >= 1 (or use -guaranteed)")
		}
		g2, o, err = core.Promote(g, m, target, *size)
		if err != nil {
			return err
		}
	}

	if *jsonOut {
		report := jsonReport{
			Measure:    o.Measure,
			Principle:  m.Principle().String(),
			Strategy:   o.Strategy.Type.String(),
			Target:     int(*targetLabel),
			Size:       o.Strategy.Size,
			Inserted:   o.Inserted,
			Score:      o.Before[o.Strategy.Target],
			ScoreAfter: o.After[o.Strategy.Target],
			RankBefore: o.RankBefore,
			RankAfter:  o.RankAfter,
			DeltaRank:  o.DeltaRank,
			Ratio:      o.Ratio,
			Effective:  o.Effective(),
			Properties: propertiesReport{
				Gain:      o.Check.Gain,
				Dominance: o.Check.Dominance,
				Boost:     o.Check.Boost,
			},
		}
		if *opt.engineStats {
			s := engine.Default().Stats()
			report.EngineStats = &s
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		fmt.Println(o)
		if o.Effective() {
			fmt.Printf("SUCCESS: ranking improved by %d positions (%.2f%% of n)\n", o.DeltaRank, o.Ratio)
		} else {
			fmt.Println("no ranking improvement at this size")
		}
	}
	if *opt.outPath != "" {
		if err := graph.SaveEdgeListFile(*opt.outPath, g2); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("updated graph written to %s (n=%d, m=%d)\n", *opt.outPath, g2.N(), g2.M())
		}
	}
	if *opt.dotPath != "" {
		highlight := map[int]string{o.Strategy.Target: "red"}
		for _, w := range o.Inserted {
			highlight[w] = "gray"
		}
		f, err := os.Create(*opt.dotPath)
		if err != nil {
			return err
		}
		if err := graph.WriteDOT(f, g2, "promoted", highlight); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the machine-readable outcome for -json.
type jsonReport struct {
	Measure    string           `json:"measure"`
	Principle  string           `json:"principle"`
	Strategy   string           `json:"strategy"`
	Target     int              `json:"target_label"`
	Size       int              `json:"size"`
	Inserted   []int            `json:"inserted_ids"`
	Score      float64          `json:"score_before"`
	ScoreAfter float64          `json:"score_after"`
	RankBefore int              `json:"rank_before"`
	RankAfter  int              `json:"rank_after"`
	DeltaRank  int              `json:"delta_rank"`
	Ratio      float64          `json:"ratio_percent"`
	Effective  bool             `json:"effective"`
	Properties propertiesReport `json:"properties"`
	// EngineStats is present when -enginestats is set; it uses the
	// manifest schema (engine.Stats.MarshalJSON).
	EngineStats *engine.Stats `json:"engine_stats,omitempty"`
}

type propertiesReport struct {
	Gain      bool `json:"gain"`
	Dominance bool `json:"dominance"`
	Boost     bool `json:"boost"`
}

// writeManifest captures the run's provenance — flags, dataset digest,
// measure, span rollups, engine counters, memory — into opt.manifestPath.
func writeManifest(path string, opt *options, g *graph.Graph, m core.Measure) error {
	man := obs.NewManifest("promoctl", 0)
	man.CaptureFlags(flag.CommandLine)
	man.Dataset = &obs.DatasetInfo{
		Name:   filepath.Base(*opt.graphPath),
		N:      g.N(),
		M:      g.M(),
		Digest: graph.Digest(g),
	}
	man.Measure = m.Name()
	man.CapturePhases(obs.CurrentRecorder())
	es := engine.Default().Stats().Manifest()
	man.Engine = &es
	man.CaptureMem()
	return man.WriteFile(path)
}
