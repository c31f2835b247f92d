package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"promonet/internal/centrality"
	"promonet/internal/core"
	"promonet/internal/engine"
	"promonet/internal/gen"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
	"promonet/internal/obs"
	"promonet/internal/promod"
)

// engineFamilies are the engine compute families the per-layer metrics
// report, by span-name suffix.
var engineFamilies = []string{"distance-sweep", "betweenness", "coreness", "katz"}

// addScrapedLayers derives the per-layer metrics read from the daemon's
// /debug/vars: v0 just before the timed phase, v1 just after it, v2
// after the post-phase reload (v1 when there was none). sent is the
// number of requests sent in the phase, cpuMs the daemon's CPU time in
// it and clientUs the client's mean send-to-response time of OK answers.
func addScrapedLayers(res *result, v0, v1, v2 *vars, sent int, cpuMs, clientUs float64) {
	delta := func(name string) float64 { return v1.num(name) - v0.num(name) }
	m0, m1 := v0.Memstats, v1.Memstats
	res.add(false, "runtime.alloc_kb_per_req", "KB", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(sent)), "")
	res.add(false, "runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), "")
	res.add(false, "runtime.gc_pause_p99_us", "us", gcPauseP99Us(m0.NumGC, m1.NumGC, m1.PauseNs), "")
	res.add(false, "runtime.heap_live_mb", "MB", v1.num("runtime.heap_live_bytes")/(1<<20), "")

	p0, p1 := v0.spans["promod/promote"], v1.spans["promod/promote"]
	promoteUs := ratio(float64(p1.WallNs-p0.WallNs), float64(p1.Count-p0.Count)) / 1e3
	res.add(false, "promod.promote_mean_us", "us", promoteUs, "")
	res.add(false, "promod.promote_max_ms", "ms", ms(maxInWindow(p0, p1)), "")
	res.add(false, "net.outside_server_us", "us", clientUs-promoteUs, "client mean minus promod/promote mean")
	res.add(false, "promod.coalesced", "count", delta("promod.coalesced"), "")
	res.add(false, "promod.shed", "count", delta("promod.shed"), "")
	r0, r2 := v0.spans["promod/reload"], v2.spans["promod/reload"]
	res.add(false, "promod.reload_ms", "ms", ratio(float64(r2.WallNs-r0.WallNs), float64(r2.Count-r0.Count))/1e6, "")

	for _, c := range []string{"hits", "misses", "evictions", "bfs_runs", "brandes_runs"} {
		res.add(false, "engine."+c, "count", delta("engine."+c), "timed phase")
	}
	var familyNs float64
	for name, sp := range v1.spans {
		if strings.HasPrefix(name, "engine/compute/") {
			familyNs += float64(sp.WallNs - v0.spans[name].WallNs)
		}
	}
	for _, f := range engineFamilies {
		sp := v2.spans["engine/compute/"+f]
		res.add(false, "engine."+f+"_s", "s", float64(sp.WallNs)/1e9, "daemon exec to end of run")
	}
	res.add(false, "engine.wall_share_of_cpu", "ratio", ratio(familyNs/1e6, cpuMs), "timed phase")

	meanOf := func(sp spanRollup, unit float64) float64 { return ratio(float64(sp.WallNs), float64(sp.Count)) / unit }
	res.add(false, "graph.load_s", "s", meanOf(v2.spans["graph/load"], 1e9), "mean per load")
	res.add(false, "csr.freeze_ms", "ms", meanOf(v2.spans["csr/freeze"], 1e6), "mean per freeze")
}

// gcPauseP99Us is the 99th percentile of the stop-the-world pauses of GC
// cycles n0+1..n1, from MemStats' 256-entry circular pause buffer.
func gcPauseP99Us(n0, n1 uint32, pauses [256]int64) float64 {
	var xs []float64
	for k := n1; k > n0 && n1-k < 256; k-- {
		xs = append(xs, float64(pauses[(k+255)%256])/1e3)
	}
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, 0.99)
}

// layerTimes are the direct timings of each layer's public functions on
// the run's host and a fixed sample of its requests.
type layerTimes struct {
	handlerHitUs, handlerMissUs      float64
	sweepSnapshotMs, brandesSnapMs   float64
	sweepOverlayMs, brandesOverlayMs float64
	digestMs, overlayApplyUs         float64
	distancesUs, manifestEncodeUs    float64
	sample, distanceRuns             int
}

// smallHostN separates the exact-reload host from the large ones. On
// the small host the in-process handler sample holds exact rescorings,
// so it is kept to 16 requests; the large hosts take 32 cheap ones and
// time 8 of the BFS sources, each a sweep over 2·10⁶ edges.
const smallHostN = 20_000

// directLayers times the layers' public functions in this process on
// host h, over the first distinct requests of the sequence.
func directLayers(w *workload, h *host, seq *sequence, seed int64) (*layerTimes, error) {
	workers := runtime.GOMAXPROCS(0)
	size := 32
	if w.hostN <= smallHostN {
		size = 16
	}
	var sample []request
	seen := map[string]bool{}
	for _, r := range seq.reqs {
		if len(sample) == size {
			break
		}
		if !seen[r.key()] {
			seen[r.key()] = true
			sample = append(sample, r)
		}
	}
	lt := &layerTimes{sample: len(sample)}

	// promod handlers, in process: the first call of each sampled
	// request is an answer-cache miss (derivation warmed beforehand, as
	// in the daemon's timed phase), the repeat a hit.
	eng := engine.New(workers)
	defer eng.Close()
	srv, err := promod.New(promod.Config{
		Source: promod.Source{Name: h.path, Load: func() (*graph.Graph, []int64, error) { return h.g, h.labels, nil }},
		Engine: eng,
	})
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	serve := func(body []byte) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		took := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process promote %s: status %d: %s", body, rec.Code, rec.Body.String())
		}
		return took, nil
	}
	for _, m := range w.measures {
		// Size 64 is outside every workload's size range, so warming
		// never answers a sampled request early.
		if _, err := serve(mustJSON(request{Target: sample[0].Target, Measure: m, Size: 64})); err != nil {
			return nil, err
		}
	}
	var miss, hit time.Duration
	for _, r := range sample {
		body := mustJSON(r)
		d1, err := serve(body)
		if err != nil {
			return nil, err
		}
		d2, err := serve(body)
		if err != nil {
			return nil, err
		}
		miss, hit = miss+d1, hit+d2
	}
	lt.handlerMissUs = us(miss) / float64(len(sample))
	lt.handlerHitUs = us(hit) / float64(len(sample))

	strategies := make([]core.Strategy, len(sample))
	for i, r := range sample {
		strategies[i] = core.Strategy{Target: h.index[r.Target], Size: r.Size, Type: strategyOf(r)}
	}

	// Engine kernels on a fresh engine (no memo), on the snapshot (the
	// ArcsView fast path) and on an overlay carrying a strategy drawn
	// from the seed (the generic path exact answers take). They run on
	// a host of the exact-reload workload's shape, generated from the
	// seed, on every workload: that is the size at which the all-pairs
	// kernels serve, and on the 2·10⁵-node host one sweep would take
	// hours.
	const reps = 3
	kw := workloads["exact-reload"]
	krng := rand.New(rand.NewSource(mix(seed, 2)))
	kg := gen.BarabasiAlbert(rand.New(rand.NewSource(seed)), kw.hostN, kw.hostK)
	ksnap := csr.Freeze(kg)
	ov := csr.NewOverlay(ksnap)
	kstrat := core.Strategy{Target: krng.Intn(kw.hostN), Size: 1 + krng.Intn(16), Type: core.MultiPoint}
	if _, err := kstrat.ApplyTo(ov); err != nil {
		return nil, err
	}
	kernel := func(g graph.View, m engine.Measure) float64 {
		var xs []float64
		for i := 0; i < reps; i++ {
			e := engine.New(workers)
			t0 := time.Now()
			e.Scores(g, m)
			xs = append(xs, ms(time.Since(t0)))
			e.Close()
		}
		return median(xs)
	}
	bc := engine.Betweenness(centrality.PairsUnordered)
	lt.sweepSnapshotMs = kernel(ksnap, engine.Closeness())
	lt.brandesSnapMs = kernel(ksnap, bc)
	lt.sweepOverlayMs = kernel(ov, engine.Closeness())
	lt.brandesOverlayMs = kernel(ov, bc)

	// csr: digest of a fresh freeze (the digest is memoized per
	// snapshot), and overlay construction plus strategy application.
	var digests []float64
	for i := 0; i < 5; i++ {
		s := csr.Freeze(h.g)
		t0 := time.Now()
		_ = s.Digest()
		digests = append(digests, ms(time.Since(t0)))
	}
	lt.digestMs = median(digests)
	const applyReps = 50
	t0 := time.Now()
	for i := 0; i < applyReps; i++ {
		for _, st := range strategies {
			if _, err := st.ApplyTo(csr.NewOverlay(h.snap)); err != nil {
				return nil, err
			}
		}
	}
	lt.overlayApplyUs = us(time.Since(t0)) / float64(applyReps*len(strategies))

	// centrality: single-source BFS distances from sampled targets (the
	// closeness bound's per-target work).
	lt.distanceRuns = len(strategies)
	if w.hostN > smallHostN && lt.distanceRuns > 8 {
		lt.distanceRuns = 8
	}
	t0 = time.Now()
	for _, st := range strategies[:lt.distanceRuns] {
		centrality.Distances(h.snap, st.Target)
	}
	lt.distancesUs = us(time.Since(t0)) / float64(lt.distanceRuns)

	// obs: the manifest every promote answer embeds.
	const encodeReps = 2000
	t0 = time.Now()
	for i := 0; i < encodeReps; i++ {
		man := obs.NewManifest("promod", 0)
		man.Dataset = &obs.DatasetInfo{Name: h.path, N: h.snap.N(), M: h.snap.M(), Digest: h.digest}
		man.Measure = sample[i%len(sample)].Measure
		if _, err := man.Encode(); err != nil {
			return nil, err
		}
	}
	lt.manifestEncodeUs = us(time.Since(t0)) / encodeReps
	return lt, nil
}

// add reports the direct timings as per-layer metrics.
func (lt *layerTimes) add(res *result) {
	sample := fmt.Sprintf("direct, %d sampled requests", lt.sample)
	kernels := "direct, median of 3, 1000-node host"
	res.add(false, "promod.handler_hit_us", "us", lt.handlerHitUs, sample)
	res.add(false, "promod.handler_miss_us", "us", lt.handlerMissUs, sample)
	res.add(false, "engine.sweep_snapshot_ms", "ms", lt.sweepSnapshotMs, kernels)
	res.add(false, "engine.brandes_snapshot_ms", "ms", lt.brandesSnapMs, kernels)
	res.add(false, "engine.sweep_overlay_ms", "ms", lt.sweepOverlayMs, kernels)
	res.add(false, "engine.brandes_overlay_ms", "ms", lt.brandesOverlayMs, kernels)
	res.add(false, "csr.digest_ms", "ms", lt.digestMs, "direct, median of 5")
	res.add(false, "csr.overlay_apply_us", "us", lt.overlayApplyUs, sample)
	res.add(false, "centrality.distances_us", "us", lt.distancesUs, fmt.Sprintf("direct, %d targets", lt.distanceRuns))
	res.add(false, "obs.manifest_encode_us", "us", lt.manifestEncodeUs, "direct")
}
