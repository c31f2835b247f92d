package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one promod process serving a host file.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}

	mu        sync.Mutex
	addr      string   // API host:port
	debugAddr string   // /debug/* host:port
	tail      []string // last stderr lines, for error reports
}

// startDaemon execs promod on hostPath and waits until it announces its
// API address (the host is loaded and frozen by then). A non-empty
// tracePath adds -trace, so the daemon writes its span trace there on
// exit.
func startDaemon(bin, hostPath, tracePath string) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-graph", hostPath, "-debug-addr", "127.0.0.1:0"}
	if tracePath != "" {
		args = append(args, "-trace", tracePath)
	}
	d := &daemon{cmd: exec.Command(filepath.Join(bin, "promod"), args...), exited: make(chan struct{})}
	// If the harness dies, the kernel kills the daemon rather than
	// leaving it serving.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	ready := make(chan struct{})
	d.cmd.Stderr = &stderrWatch{d: d, ready: ready}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting promod: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through the stderr tail
		close(d.exited)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("promod exited during start-up: %s", d.stderrTail())
	case <-time.After(120 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("promod did not announce its address within 120s: %s", d.stderrTail())
	}
}

// stderrWatch receives the daemon's stderr (from the single copying
// goroutine exec starts), picks out the address announcements and keeps
// the last lines.
type stderrWatch struct {
	d         *daemon
	ready     chan struct{}
	announced bool
	partial   []byte
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.line(string(w.partial[:i]))
		w.partial = w.partial[i+1:]
	}
}

func (w *stderrWatch) line(line string) {
	d := w.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if a, ok := strings.CutPrefix(line, "promod: debug endpoints at http://"); ok {
		d.debugAddr = strings.TrimSuffix(a, "/debug/")
	}
	if a, ok := strings.CutPrefix(line, "promod: listening on "); ok && !w.announced {
		d.addr = a
		w.announced = true
		close(w.ready)
	}
	d.tail = append(d.tail, line)
	if len(d.tail) > 20 {
		d.tail = d.tail[1:]
	}
}

// addrs returns the API and debug addresses the daemon announced.
func (d *daemon) addrs() (api, debug string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr, d.debugAddr
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// pid is the daemon's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM (promod drains and, with -trace, writes its trace)
// and waits for the process to exit, killing it after 30 seconds.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled below
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill() // last resort; the Wait goroutine reaps it
			<-d.exited
			return fmt.Errorf("promod ignored SIGTERM for 30s: %s", d.stderrTail())
		}
	}
	return nil
}

// procStatus reads one "Name: value kB" field of /proc/<pid>/status in
// kilobytes.
func procStatus(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux platform Go supports).
const clockTicks = 100

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostSample is the machine's cumulative CPU time as the first line of
// /proc/stat gives it, in clock ticks: busy (user, nice, system, irq,
// softirq), idle (idle, iowait) and stolen by the hypervisor.
type hostSample struct{ busy, idle, steal float64 }

func sampleHost() hostSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostSample{}
	}
	v := make([]float64, 8)
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64) // a malformed field reads as 0
	}
	return hostSample{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}
}

// stealMeter sums the machine's CPU ticks over the intervals a metric
// is made of, so the metric can be adjusted by the share stolen in
// exactly those intervals.
type stealMeter struct{ sum hostSample }

// add counts the interval from s0 to s1.
func (m *stealMeter) add(s0, s1 hostSample) {
	m.sum.busy += s1.busy - s0.busy
	m.sum.idle += s1.idle - s0.idle
	m.sum.steal += s1.steal - s0.steal
}

// share is the stolen share of the counted ticks (0 when none).
func (m *stealMeter) share() float64 {
	return ratio(m.sum.steal, m.sum.busy+m.sum.idle+m.sum.steal)
}

// busy is the busy share of the counted ticks (0 when none).
func (m *stealMeter) busy() float64 {
	return ratio(m.sum.busy, m.sum.busy+m.sum.idle+m.sum.steal)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vars is one scrape of the daemon's /debug/vars.
type vars struct {
	Promonet map[string]json.RawMessage `json:"promonet"`
	Memstats struct {
		TotalAlloc uint64     `json:"TotalAlloc"`
		HeapAlloc  uint64     `json:"HeapAlloc"`
		NumGC      uint32     `json:"NumGC"`
		PauseNs    [256]int64 `json:"PauseNs"`
	} `json:"memstats"`
	spans map[string]spanRollup
}

// spanRollup is one span name's rollup as /debug/vars publishes it.
type spanRollup struct {
	Count  uint64         `json:"count"`
	WallNs int64          `json:"wall_ns"`
	MaxNs  int64          `json:"max_ns"`
	Hist   map[string]any `json:"hist"`
}

func scrape(debugAddr string) (*vars, error) {
	resp, err := http.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	v := &vars{}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	v.spans = map[string]spanRollup{}
	if raw, ok := v.Promonet["spans"]; ok {
		if err := json.Unmarshal(raw, &v.spans); err != nil {
			return nil, fmt.Errorf("/debug/vars spans: %w", err)
		}
	}
	return v, nil
}

// num returns a promonet counter or gauge (0 when absent).
func (v *vars) num(name string) float64 {
	var f float64
	if raw, ok := v.Promonet[name]; ok {
		_ = json.Unmarshal(raw, &f) // a non-number reads as 0
	}
	return f
}

// buckets returns a span rollup's histogram buckets keyed by their
// upper-bound label ("le_256us").
func (r spanRollup) buckets() map[string]float64 {
	out := map[string]float64{}
	if b, ok := r.Hist["buckets"].(map[string]any); ok {
		for k, v := range b {
			if f, ok := v.(float64); ok {
				out[k] = f
			}
		}
	}
	return out
}

// maxInWindow is the longest span of one name finished between two
// scrapes: exact when the cumulative maximum grew in the window,
// otherwise the upper bound of the highest histogram bucket that did.
func maxInWindow(before, after spanRollup) time.Duration {
	if after.Count == before.Count {
		return 0
	}
	if after.MaxNs > before.MaxNs {
		return time.Duration(after.MaxNs)
	}
	b0, b1 := before.buckets(), after.buckets()
	var top time.Duration
	for label, c := range b1 {
		if c <= b0[label] {
			continue
		}
		bound := strings.TrimPrefix(label, "le_")
		if bound == "+inf" {
			return time.Duration(after.MaxNs)
		}
		d, err := time.ParseDuration(bound)
		if err == nil && d > top {
			top = d
		}
	}
	return top
}
