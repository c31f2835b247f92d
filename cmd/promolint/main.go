// Command promolint runs promonet's custom static-analysis suite (see
// internal/lint): thirteen analyzers enforcing the repo-specific
// invariants that generic tooling cannot know about — the black-box
// read-only contract on the host graph, seeded-randomness and
// map-iteration determinism, error discipline in the CLI and IO
// layers, doc coverage of the core exported API, the CFG/dataflow
// properties the execution engine depends on (version stamping of
// graph mutations, engine routing of heavy kernels, sync.Pool get/put
// balance, mutex acquisition order), the value-flow invariants of the
// observability and kernel layers (obs span lifecycle and the
// allocation-free discipline of //promolint:hotpath-marked hot code),
// and the interprocedural contracts built on the summary engine: no
// write or unsafe retention of frozen graph.View adjacency arrays,
// goroutine termination and WaitGroup join discipline, and CSR
// snapshot/overlay aliasing safety.
//
// Packages fan out over a bounded worker pool (-workers, default
// GOMAXPROCS); findings and the JSON report are byte-identical at any
// worker count.
//
// Usage:
//
//	promolint [flags] [packages]
//
//	promolint ./...                    # the whole module (default)
//	promolint ./internal/centrality    # one package
//	promolint -analyzers determinism ./internal/exp/...
//	promolint -disable exported-docs ./...
//	promolint -json -baseline lint-baseline.json ./...
//	promolint -workers 1 ./...         # serial run (reference ordering)
//	promolint -timings ./...           # per-analyzer wall/cpu table on stderr
//	promolint -list                    # describe the analyzers
//
// Findings go to stdout (one per line as file:line:col: [analyzer]
// message, or a JSON report with -json); run summaries and errors go to
// stderr. promolint exits 0 when the tree is clean or has only
// warn-severity findings, 1 when it has error-severity findings or the
// baseline has stale entries, and 2 on usage or load errors. Findings
// are suppressed with an annotation comment //promolint:allow
// <analyzer> -- reason on the flagged line, the line above it, or in
// the enclosing function's doc comment; whole accepted findings are
// suppressed by listing them in the -baseline file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"promonet/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, parameterized over args and streams so tests
// can drive it in-process (notably the corrupt-input exit-2 contract).
//
// The injected writers are os.Stdout/os.Stderr in production and test
// buffers otherwise; either way a failed diagnostic write has no
// recovery path, so the write errors are deliberately best-effort.
//
//promolint:allow ignored-errors -- CLI output writes to injected stdout/stderr are best-effort by design
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("promolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	analyzers := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	baseline := fs.String("baseline", "", "baseline file of accepted findings; stale entries are errors")
	workers := fs.Int("workers", 0, "package-level parallelism (0 = GOMAXPROCS, 1 = serial)")
	showTimings := fs.Bool("timings", false, "print the per-analyzer wall/cpu timing table on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 0 {
		fmt.Fprintln(stderr, "promolint: -workers must be >= 0")
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-18s [%s] %s\n", a.Name, severityOf(a), a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "promolint:", err)
		return 2
	}
	var cfg lint.Config
	cfg.Enable = splitNames(*analyzers)
	cfg.Disable = splitNames(*disable)
	cfg.Workers = *workers
	diags, timings, err := lint.RunTimed(root, fs.Args(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "promolint:", err)
		return 2
	}
	if *showTimings {
		fmt.Fprintf(stderr, "%-20s %12s %12s\n", "analyzer", "wall", "cpu")
		for _, tm := range timings {
			fmt.Fprintf(stderr, "%-20s %12s %12s\n", tm.Analyzer,
				time.Duration(tm.WallNanos).Round(time.Microsecond),
				time.Duration(tm.CPUNanos).Round(time.Microsecond))
		}
	}

	var stale []lint.BaselineEntry
	if *baseline != "" {
		b, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "promolint:", err)
			return 2
		}
		diags, stale = b.Apply(root, diags)
	}

	if *jsonOut {
		report := lint.NewReport(root, ranAnalyzers(cfg), diags, stale)
		report.Timings = timings
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "promolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	errs, warns := 0, 0
	for _, d := range diags {
		if d.Severity == lint.SevWarn {
			warns++
		} else {
			errs++
		}
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "promolint: stale baseline entry: %s [%s] %s\n", e.File, e.Analyzer, e.Message)
	}
	if errs > 0 || warns > 0 || len(stale) > 0 {
		fmt.Fprintf(stderr, "promolint: %d error(s), %d warning(s), %d stale baseline entr(ies)\n", errs, warns, len(stale))
	}
	if errs > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

// ranAnalyzers mirrors lint.Run's enable/disable selection for the
// report header.
func ranAnalyzers(cfg lint.Config) []*lint.Analyzer {
	enabled := make(map[string]bool)
	for _, n := range cfg.Enable {
		enabled[n] = true
	}
	disabled := make(map[string]bool)
	for _, n := range cfg.Disable {
		disabled[n] = true
	}
	var out []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		if (len(enabled) == 0 || enabled[a.Name]) && !disabled[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

func severityOf(a *lint.Analyzer) lint.Severity {
	if a.Severity == "" {
		return lint.SevError
	}
	return a.Severity
}

func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
