// Command promodbench is the end-to-end benchmark of the promod daemon.
// For one workload it generates the host as an edge-list file from the
// seed, boots cmd/promod on that file as a user would, drives it from
// this one process over two connections, verifies every answer against
// its own freeze and scoring of the same file, and prints the
// end-to-end metrics. With -trace 1 it instead prints the per-layer
// metrics: /debug/vars deltas across the timed phase, the daemon's span
// rollups, and direct timings of each layer's public functions on the
// same host and a fixed sample of the same requests.
//
// Run it through run.sh, which builds the binaries it needs:
//
//	bash _promodbench/run.sh --workload zipf-miss --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md lists the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

// options is the command's flag surface.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string
	work     string
}

func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("promodbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the hosts and the request sequence")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the promod and promotrace binaries")
	fs.StringVar(&o.work, "work", ".bench_build/run", "scratch directory for host files and traces")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if workloads[o.workload] == nil {
		return nil, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	return o, nil
}

func run() int {
	opt, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "promodbench:", err)
		return 2
	}
	dir := filepath.Join(opt.work, fmt.Sprintf("%s-%d-%d", opt.workload, opt.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "promodbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	printHostBlock()
	res, err := runWorkload(opt, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "promodbench:", err)
		return 1
	}
	res.print(os.Stdout, opt.trace == 1)
	if !res.correct {
		return 1
	}
	return 0
}

// printHostBlock prints the machine and source identification every
// performance number needs.
func printHostBlock() {
	fmt.Printf("host: cores=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitCommit())
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result is a finished run's report.
type result struct {
	correct           bool
	attempted, failed int
	lines             []string // report lines printed before the metrics
	e2e, layers       []metric
}

func (r *result) add(e2e bool, name, unit string, v float64, note string) {
	m := metric{name: name, unit: unit, value: v, note: note}
	if e2e {
		r.e2e = append(r.e2e, m)
	} else {
		r.layers = append(r.layers, m)
	}
}

// print writes the report and, as the last line, the JSON result with
// the end-to-end metrics (traced=false) or the per-layer ones.
func (r *result) print(w io.Writer, traced bool) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	list := r.e2e
	if traced {
		fmt.Fprintln(w, "end-to-end (traced run; compare with an untraced run for the tracing overhead):")
		for _, m := range r.e2e {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
		fmt.Fprintln(w, "per-layer:")
		list = r.layers
		sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	} else {
		fmt.Fprintln(w, "end-to-end:")
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, m := range list {
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		out[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Fprintln(w, string(line))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// scaled returns xs each multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// maximum returns the largest of xs (0 for none).
func maximum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
