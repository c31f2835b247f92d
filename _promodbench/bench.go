package main

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"promonet/internal/engine"
	"promonet/internal/promod"
)

const (
	// grace is how long an open loop keeps sending overdue requests
	// after the timed phase before abandoning them as failed.
	grace = 5 * time.Second
	// closedRate bounds the closed loop's request rate when sizing its
	// pre-generated sequence.
	closedRate = 2000
	// postReloads is how many reloads follow an open loop's timed phase.
	postReloads = 5
	// samplePerKind is how many exact, closed-form and guaranteed answers
	// the harness rescores on its own overlay.
	samplePerKind = 4
	// yardstickRuns is how many times the yardstick runs at each of its
	// points: before each boot and after the last daemon stops.
	yardstickRuns = 3
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded
	}
	return b
}

// runWorkload runs one workload end to end and computes its metrics.
func runWorkload(opt *options, dir string) (*result, error) {
	w := workloads[opt.workload]
	traced := opt.trace == 1
	dur := time.Duration(opt.seconds) * time.Second
	eng := engine.New(runtime.GOMAXPROCS(0))
	defer eng.Close()
	res := &result{}
	say := func(format string, args ...any) { res.lines = append(res.lines, fmt.Sprintf(format, args...)) }
	say("workload: %s seed=%d seconds=%d trace=%d", w.name, opt.seed, opt.seconds, opt.trace)

	// The initial host plus one per in-phase reload, each written as a
	// file and frozen and scored by the harness before the daemon starts.
	hosts := make([]*host, 1+w.reloads)
	for r := range hosts {
		h, err := makeHost(dir, w, hostSeed(opt.seed, r), eng)
		if err != nil {
			return nil, err
		}
		if !traced {
			h.g = nil // only the traced run's direct layer calls need the mutable graph
		}
		hosts[r] = h
		say("graph[%d]: seed=%d n=%d m=%d digest=%s", r, h.seed, h.snap.N(), h.snap.M(), h.digest)
	}
	daemonPath := filepath.Join(dir, "host.txt")
	if err := hosts[0].install(daemonPath); err != nil {
		return nil, err
	}

	count := closedRate * opt.seconds
	if w.open {
		count = int(w.rate) * opt.seconds
	}
	seq := buildSequence(w, opt.seed, count)
	probeLabel := seq.reqs[0].Target
	v := newVerifier()
	store := newBodyStore()

	tracePath := ""
	if traced {
		tracePath = filepath.Join(dir, "trace.json")
	}
	// The yardstick runs only while no daemon is up: before each boot
	// and after the last daemon stops.
	yard := newYardstick()
	var yardMs []float64
	idle := func() { yardMs = yard.measure(yardstickRuns, yardMs) }
	var setupSteal, phaseSteal, reloadSteal stealMeter
	setups, hwms, d, c, err := bootDaemons(opt.bin, w, daemonPath, tracePath, hosts[0], probeLabel, v, store, &setupSteal, idle)
	if err != nil {
		return nil, err
	}
	defer func() {
		c.close()
		_ = d.stop() // no-op once the daemon has been stopped below
	}()
	for i := 0; i < w.warmup; i++ {
		if status, _, body := c.post("/v1/promote", seq.bodies[i]); status != 200 || v.check(seq.reqs[i], body) != nil {
			return nil, fmt.Errorf("warm-up request %s failed (status %d)", seq.reqs[i].key(), status)
		}
	}

	pid := d.pid()
	_, debugAddr := d.addrs()
	var v0, v1, v2 *vars
	if traced {
		if v0, err = scrape(debugAddr); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	phase0 := sampleHost()

	// The timed phase.
	send := func(body []byte) (int, int32) {
		status, id, _ := c.post("/v1/promote", body)
		return status, id
	}
	var outs, probes []outcome
	var span time.Duration
	var reloads []float64
	if w.open {
		outs, span = openLoop(send, seq.bodies, w.rate, dur, grace)
	} else {
		at := make([]time.Duration, w.reloads)
		for r := range at {
			at[r] = dur * time.Duration(r+1) / time.Duration(w.reloads+1)
		}
		next := 1
		reload := func(start time.Time) []outcome {
			p, took, err := reloadAndProbe(c, v, hosts[next], daemonPath, w.servable, probeLabel, start, &reloadSteal)
			next++
			if err != nil {
				v.fail("reload: %v", err)
			} else {
				reloads = append(reloads, took.Seconds())
			}
			return p
		}
		outs, probes, span = closedLoop(send, seq.bodies, dur, at, w.reloadCycle, w.reloadPhase, reload)
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self1 := selfCPU()
	phaseSteal.add(phase0, sampleHost())
	hwmServing, err := procStatus(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	if traced {
		if v1, err = scrape(debugAddr); err != nil {
			return nil, err
		}
	}
	var post []outcome
	for i := 0; w.open && i < postReloads; i++ {
		// The open loops never reload while timed; reload after (same
		// file, next snapshot seq) to time the swap on this host. The
		// probes' answers are verified with the rest but stay out of the
		// latency percentiles.
		p, took, err := reloadAndProbe(c, v, hosts[0], daemonPath, w.servable, probeLabel, time.Now(), &reloadSteal)
		if err != nil {
			return nil, fmt.Errorf("reload: %w", err)
		}
		post = append(post, p...)
		reloads = append(reloads, took.Seconds())
	}
	v2 = v1
	if traced {
		if v2, err = scrape(debugAddr); err != nil {
			return nil, err
		}
	}
	c.close()
	if err := d.stop(); err != nil {
		return nil, err
	}
	idle()

	all := append(append([]outcome(nil), outs...), probes...)
	bad, checked := verifyAll(append(append([]outcome(nil), all...), post...), seq, v, store)
	rescored := v.rescoreSample(eng, samplePerKind)

	// End-to-end metrics.
	var sentReqs []request
	sent, ok, postOK := 0, 0, 0
	var clientNs float64
	for i := range post {
		if !post[i].failed() && !bad(&post[i]) {
			postOK++
		}
	}
	for i := range all {
		o := &all[i]
		if o.sent >= 0 {
			sent++
			if o.req >= 0 {
				sentReqs = append(sentReqs, seq.reqs[o.req])
			}
		}
		if !o.failed() && !bad(o) {
			ok++
			clientNs += float64(o.done - o.sent)
		}
	}
	res.attempted = len(all) + len(post)
	res.failed = res.attempted - ok - postOK
	res.correct = len(v.problems) == 0
	props := measureProperties(sentReqs)
	say("traffic: digest=%s generated=%d zipf_s=%.2f %s", seq.digest, len(seq.reqs), w.zipfS, props)
	say("loop: %s, %d connections, sent=%d ok=%d failed=%d span=%.3fs", loopKind(w), connections, sent, ok, res.failed, span.Seconds())
	say("verification: %d distinct answers checked, %d rescored on the harness overlay, %d problems", checked, rescored, len(v.problems))
	for i, p := range v.problems {
		if i == 10 {
			say("  ... %d more", len(v.problems)-10)
			break
		}
		say("  problem: %s", p)
	}
	// Two things outside the program move its wall times on a shared
	// virtual machine. The end-to-end times are corrected for both; the
	// report prints them as measured too.
	//
	// The hypervisor takes the cores away now and then ("steal"). Work
	// that keeps the machine busy (set-up, reloads, the closed loop)
	// stretches by about 1/(1-steal), so those times are scaled by one
	// minus the share stolen during the intervals they measure. The open
	// loops leave the machine mostly idle: a steal pause delays only the
	// requests it catches, so their latency is not scaled.
	//
	// The cores also run faster or slower with the neighbours' load, by
	// up to twofold within an hour, with no steal. Every end-to-end time
	// is divided by slowdown, the yardstick's CPU time over its time on
	// the reference machine, and the closed loop's rate multiplied by it.
	// The open loops' rate is set by the offered load and left alone.
	var total stealMeter
	for _, m := range []*stealMeter{&setupSteal, &phaseSteal, &reloadSteal} {
		total.add(hostSample{}, m.sum)
	}
	slowdown := median(yardMs) / yardstickNominalMs
	say("host cpu: steal=%.1f%% over set-up, phase and reloads; set-up %.1f%%, timed phase %.1f%% (busy %.1f%%), reloads %.1f%%",
		100*total.share(), 100*setupSteal.share(), 100*phaseSteal.share(), 100*phaseSteal.busy(), 100*reloadSteal.share())
	say("yardstick: median %.4g ms CPU over %d sorts, slowdown %.4f against the reference machine's %.4g ms",
		median(yardMs), len(yardMs), slowdown, yardstickNominalMs)
	say("as measured: setup_s per boot %.4g; reload_s per reload %.4g", setups, reloads)
	setups = scaled(setups, (1-setupSteal.share())/slowdown)
	reloads = scaled(reloads, (1-reloadSteal.share())/slowdown)
	phaseScale := 1 / slowdown
	if !w.open {
		phaseScale *= 1 - phaseSteal.share()
	}
	say("rss: VmHWM per boot at the end of set-up %.4g MB; serving daemon after the timed phase %.4g MB", scaled(hwms, 1.0/1024), hwmServing/1024)

	limit := ms(dur + grace)
	res.add(true, "setup_s", "s", median(setups), fmt.Sprintf("median of %d boots", len(setups)))
	service := latenciesMs(all, bad, (*outcome).service)
	p50 := finiteOr(percentile(service, 0.5), limit)
	res.add(true, "p50_ms", "ms", p50*phaseScale, fmt.Sprintf("from send, n=%d, as measured %.4g", len(service), p50))
	rps := ratio(float64(ok), span.Seconds())
	if w.open {
		res.add(true, "ok_rps", "1/s", rps, "")
	} else {
		res.add(true, "ok_rps", "1/s", rps/phaseScale, fmt.Sprintf("as measured %.6g", rps))
	}
	res.add(true, "rss_peak_mb", "MB", median(hwms)/1024, "median VmHWM of the boots at the end of set-up")
	res.add(true, "reload_s", "s", median(reloads), fmt.Sprintf("median of %d reloads", len(reloads)))

	// Per-layer metrics.
	perReq := func(x float64) float64 { return ratio(x, float64(sent)) }
	res.add(false, "fail_share", "ratio", ratio(float64(res.failed), float64(res.attempted)), "")
	res.add(false, "host.steal_share", "ratio", total.share(), "set-up, timed phase and reloads")
	res.add(false, "host.yardstick_ms", "ms", median(yardMs), fmt.Sprintf("median of %d; end-to-end times are divided by it over %.4g ms", len(yardMs), yardstickNominalMs))
	res.add(false, "promod.rss_serving_mb", "MB", hwmServing/1024, "serving daemon VmHWM after the timed phase")
	for _, p := range []struct {
		name string
		q    float64
	}{{"loadgen.p90_ms", 0.90}, {"loadgen.p99_ms", 0.99}} {
		res.add(false, p.name, "ms", finiteOr(percentile(service, p.q), limit), "from send, as measured")
	}
	due := latenciesMs(all, bad, (*outcome).latency)
	for _, p := range []struct {
		name string
		q    float64
	}{{"loadgen.due_p50_ms", 0.50}, {"loadgen.due_p90_ms", 0.90}, {"loadgen.due_p99_ms", 0.99}} {
		res.add(false, p.name, "ms", finiteOr(percentile(due, p.q), limit), "from due time, as measured")
	}
	res.add(false, "reload.slowest_s", "s", maximum(reloads), "corrected as reload_s")
	res.add(false, "loadgen.late_p99_ms", "ms", finiteOr(lateP99Ms(outs, dur+grace), limit), "")
	res.add(false, "loadgen.cpu_ms_per_req", "ms", perReq(ms(self1-self0)), "")
	res.add(false, "loadgen.distinct_key_share", "ratio", props.distinctShare, "")
	res.add(false, "loadgen.exact_share", "ratio", props.exactShare, "")
	res.add(false, "promod.cpu_ms_per_req", "ms", perReq(ms(cpu1-cpu0)), "")
	if traced {
		addScrapedLayers(res, v0, v1, v2, sent, ms(cpu1-cpu0), ratio(clientNs, float64(ok))/1e3)
		lt, err := directLayers(w, hosts[0], seq, opt.seed)
		if err != nil {
			return nil, err
		}
		lt.add(res)
		out, err := exec.Command(filepath.Join(opt.bin, "promotrace"), "-top", "5", tracePath).CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("promotrace: %v: %s", err, out)
		}
		say("promotrace summary of the daemon's trace:")
		for _, l := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
			say("  %s", l)
		}
	}
	return res, nil
}

func loopKind(w *workload) string {
	if w.open {
		return fmt.Sprintf("open loop at %.0f/s", w.rate)
	}
	return fmt.Sprintf("closed loop with %d reloads", w.reloads)
}

// reloadAndProbe installs h as the daemon's host file, POSTs
// /admin/reload and then asks one promote per measure. It returns the
// probes' outcomes (offsets from start) and the time from sending the
// reload until every measure answered on the new snapshot seq.
func reloadAndProbe(c *client, v *verifier, h *host, daemonPath string, measures []string, label int64, start time.Time, steal *stealMeter) ([]outcome, time.Duration, error) {
	if err := h.install(daemonPath); err != nil {
		return nil, 0, err
	}
	s0 := sampleHost()
	t0 := time.Now()
	status, _, body := c.post("/admin/reload", nil)
	if status != 200 {
		return nil, 0, fmt.Errorf("POST /admin/reload: status %d", status)
	}
	var rr promod.ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, 0, fmt.Errorf("POST /admin/reload: %w", err)
	}
	v.hostBySeq[rr.Snapshot.Seq] = h
	var outs []outcome
	// The probes ask the measures in reverse order. In exact-reload the
	// other connection keeps asking them in list order beside the
	// reload; probing in the same order, a reload on the small host
	// took 40 ms or 100 ms at random, and the quartile spread of the
	// runs' medians over ten seeds was 0.11 (0.02 in reverse order).
	for k := range measures {
		m := measures[len(measures)-1-k]
		req := request{Target: label, Measure: m, Size: 1}
		o := outcome{req: -1, probe: req}
		o.due = time.Since(start)
		o.sent = o.due
		var resp []byte
		o.status, o.body, resp = c.post("/v1/promote", mustJSON(req))
		o.done = time.Since(start)
		outs = append(outs, o)
		if o.status != 200 {
			return outs, 0, fmt.Errorf("probe %s after reload: status %d", req.key(), o.status)
		}
		var a promod.PromoteResponse
		if err := json.Unmarshal(resp, &a); err != nil || a.Snapshot.Seq != rr.Snapshot.Seq {
			return outs, 0, fmt.Errorf("probe %s after reload to seq %d answered on seq %d", req.key(), rr.Snapshot.Seq, a.Snapshot.Seq)
		}
	}
	took := time.Since(t0)
	steal.add(s0, sampleHost())
	return outs, took, nil
}

// bootDaemons times set-up w.boots times: exec of promod on daemonPath
// until every measure the workload uses has answered once (and been
// verified against h). It returns each boot's set-up time and the
// daemon's VmHWM at that point, in kB; the steal meter counts the
// set-up intervals, and idle runs before each boot, while no daemon is
// up. The last daemon stays up, with its client, for the timed phase;
// only it gets tracePath.
func bootDaemons(bin string, w *workload, daemonPath, tracePath string, h *host, label int64, v *verifier, store *bodyStore, steal *stealMeter, idle func()) (setups, hwms []float64, d *daemon, c *client, err error) {
	v.hostBySeq[1] = h
	for k := 0; ; k++ {
		idle()
		last := k == w.boots-1
		trace := ""
		if last {
			trace = tracePath
		}
		s0 := sampleHost()
		t0 := time.Now()
		d, err = startDaemon(bin, daemonPath, trace)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		api, _ := d.addrs()
		c = newClient(api, store)
		for _, m := range w.measures {
			req := request{Target: label, Measure: m, Size: 1}
			status, _, body := c.post("/v1/promote", mustJSON(req))
			if status == 200 {
				err = v.check(req, body)
			} else {
				err = fmt.Errorf("set-up probe %s: status %d", req.key(), status)
			}
			if err != nil {
				c.close()
				_ = d.stop() // the probe failure is the error to report
				return nil, nil, nil, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		steal.add(s0, sampleHost())
		hwm, err := procStatus(d.pid(), "VmHWM")
		if err != nil {
			c.close()
			_ = d.stop() // the failed read is the error to report
			return nil, nil, nil, nil, err
		}
		hwms = append(hwms, hwm)
		if last {
			return setups, hwms, d, c, nil
		}
		c.close()
		if err := d.stop(); err != nil {
			return nil, nil, nil, nil, err
		}
	}
}

// verifyAll checks every 200 answer among the outcomes, once per
// distinct (response body, request) pair. It returns whether an outcome
// failed verification (true also for outcomes without a 200 answer)
// and how many distinct answers it checked.
func verifyAll(all []outcome, seq *sequence, v *verifier, store *bodyStore) (bad func(o *outcome) bool, checked int) {
	type vkey struct {
		body int32
		req  string
	}
	reqOf := func(o *outcome) request {
		if o.req < 0 {
			return o.probe
		}
		return seq.reqs[o.req]
	}
	verdict := map[vkey]bool{}
	for i := range all {
		o := &all[i]
		if o.failed() {
			continue
		}
		k := vkey{o.body, reqOf(o).key()}
		if _, done := verdict[k]; !done {
			verdict[k] = v.check(reqOf(o), store.bodies[o.body]) == nil
		}
	}
	return func(o *outcome) bool { return !verdict[vkey{o.body, reqOf(o).key()}] }, len(verdict)
}
