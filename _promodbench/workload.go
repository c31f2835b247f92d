package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"promonet/internal/core"
)

// request is one POST /v1/promote body of a workload's sequence.
type request struct {
	Target   int64  `json:"target"`
	Measure  string `json:"measure"`
	Size     int    `json:"size"`
	Strategy string `json:"strategy,omitempty"`
	Exact    bool   `json:"exact,omitempty"`
}

// key identifies the answer a request asks for: two requests with equal
// keys on one snapshot get the same cached answer from promod.
func (r request) key() string {
	return fmt.Sprintf("%s|%d|%d|%s|%t", r.Measure, r.Target, r.Size, r.Strategy, r.Exact)
}

// workload is one traffic mix against one host shape.
type workload struct {
	name string
	// hostN and hostK shape the Barabási–Albert host (n nodes, k edges
	// per arrival).
	hostN, hostK int
	// open selects an open loop at rate requests/s; otherwise a closed
	// loop. Either way the load generator uses two connections.
	open bool
	rate float64
	// reloads is the number of POST /admin/reload swaps the closed loop
	// issues during the timed phase, each onto the next seed's host. A
	// reload starts at a round whose index is reloadPhase modulo
	// reloadCycle.
	reloads, reloadCycle, reloadPhase int
	// measures are the measures the traffic queries; set-up waits until
	// each has answered once.
	measures []string
	// servable are the measures promod derives on this host; a reload
	// is timed until each has answered on the new snapshot.
	servable []string
	// zipfS is the Zipf exponent of target popularity (0: no Zipf).
	zipfS float64
	// warmup is how many leading requests of the sequence are sent once
	// before the timed phase.
	warmup int
	// boots is how many times set-up boots the daemon; set-up time is
	// their median and the last boot serves the timed phase.
	boots int
	// draw builds request i of the sequence.
	draw func(rng *rand.Rand, zipf *rand.Zipf, labels []int64, i int) request
}

// connections is the load generator's connection count on every
// workload: the host has two cores, shared with the daemon.
const connections = 2

// guidedStrategy is the paper's Table I strategy of a servable measure,
// the one promod uses when a request names none.
func guidedStrategy(measure string) core.StrategyType {
	cm, err := core.MeasureByName(measure)
	if err != nil {
		panic(err) // workloads name only servable measures
	}
	return cm.Strategy()
}

// allStrategies lists promod's strategy types.
var allStrategies = []core.StrategyType{core.MultiPoint, core.DoubleLine, core.SingleClique}

// largeHostMeasures are the measures promod can derive on the 2·10⁵-node
// host; the all-pairs ones (closeness, harmonic, eccentricity,
// betweenness) would take hours there.
var largeHostMeasures = []string{"degree", "coreness", "katz"}

// exactMeasures are the seven measures promod serves, all derivable on
// the exact-reload host.
var exactMeasures = []string{"degree", "coreness", "katz", "closeness", "harmonic", "eccentricity", "betweenness"}

var workloads = map[string]*workload{
	"hot-replay": {
		name: "hot-replay", hostN: 200_000, hostK: 10,
		open: true, rate: 2000,
		measures: []string{"degree"},
		servable: largeHostMeasures,
		warmup:   64,
		boots:    5,
		draw: func(_ *rand.Rand, _ *rand.Zipf, labels []int64, i int) request {
			// BENCH_10's traffic: 64 fixed targets cycled in order,
			// degree, p=4.
			return request{Target: labels[i%64], Measure: "degree", Size: 4}
		},
	},
	"zipf-miss": {
		name: "zipf-miss", hostN: 200_000, hostK: 10,
		open: true, rate: 1000,
		measures: largeHostMeasures,
		servable: largeHostMeasures,
		zipfS:    1.1,
		boots:    5,
		draw: func(rng *rand.Rand, zipf *rand.Zipf, labels []int64, _ int) request {
			r := request{
				Target:  labels[zipf.Uint64()],
				Measure: largeHostMeasures[rng.Intn(len(largeHostMeasures))],
				Size:    1 + rng.Intn(32),
			}
			if rng.Intn(10) == 0 {
				r.Strategy = otherStrategy(rng, r.Measure)
			}
			return r
		},
	},
	"exact-reload": {
		name: "exact-reload", hostN: 1000, hostK: 4,
		// Reloads start where the rounds turn to non-exact requests, so
		// the reads beside each swap are the same kind every time.
		reloads: 21, reloadCycle: 3 * len(exactMeasures), reloadPhase: 2 * len(exactMeasures),
		measures: exactMeasures,
		servable: exactMeasures,
		zipfS:    1.1,
		boots:    11,
		draw: func(rng *rand.Rand, zipf *rand.Zipf, labels []int64, i int) request {
			// The closed loop sends requests in rounds of two, one per
			// connection. Both requests of a round share measure and
			// exactness, and rounds cycle through each measure twice
			// exact and once not, so any prefix the loop gets through
			// has the stated mix. Two exact requests to one cheap one
			// keep the median inside the exact rescorings rather than
			// on the edge between the two kinds, where it would follow
			// whichever single request lands there. Targets and sizes
			// are random.
			round := i / connections
			return request{
				Target:  labels[zipf.Uint64()],
				Measure: exactMeasures[round%len(exactMeasures)],
				Size:    1 + rng.Intn(16),
				Exact:   round/len(exactMeasures)%3 != 2,
			}
		},
	},
}

// workloadNames is the fixed listing order of the workloads.
var workloadNames = []string{"hot-replay", "zipf-miss", "exact-reload"}

// otherStrategy picks a strategy that is not the measure's Table I
// choice, so an override really changes the answer.
func otherStrategy(rng *rand.Rand, measure string) string {
	var others []string
	for _, t := range allStrategies {
		if t != guidedStrategy(measure) {
			others = append(others, t.String())
		}
	}
	return others[rng.Intn(len(others))]
}

// mix derives an independent stream seed from the run seed (SplitMix64
// finaliser), so the host and the traffic never share a random stream.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// hostSeed is the generator seed of the r-th host of a run: the initial
// host is the run seed's, each reload moves to the next seed's.
func hostSeed(seed int64, r int) int64 { return seed + int64(r) }

// sequence is a workload's deterministic request sequence with its
// pre-encoded bodies.
type sequence struct {
	reqs   []request
	bodies [][]byte
	digest string
}

// buildSequence draws count requests of w from the seed. Host labels are
// the node IDs 0..n-1 the host file is written with; a seeded
// permutation decides which labels are popular, so popularity does not
// follow node age.
func buildSequence(w *workload, seed int64, count int) *sequence {
	rng := rand.New(rand.NewSource(mix(seed, 1)))
	perm := rng.Perm(w.hostN)
	labels := make([]int64, len(perm))
	for i, p := range perm {
		labels[i] = int64(p)
	}
	var zipf *rand.Zipf
	if w.zipfS > 0 {
		zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.hostN-1))
	}
	s := &sequence{reqs: make([]request, count), bodies: make([][]byte, count)}
	h := sha256.New()
	for i := range s.reqs {
		r := w.draw(rng, zipf, labels, i)
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // request has only plain fields
		}
		s.reqs[i], s.bodies[i] = r, b
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	s.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return s
}

// properties are the measured input properties of the requests a run
// actually sent.
type properties struct {
	sent          int
	distinctShare float64
	exactShare    float64
	mix           map[string]float64
	zipfFit       float64 // fitted rank-frequency exponent; 0 when too few repeats
}

func measureProperties(reqs []request) properties {
	p := properties{sent: len(reqs), mix: map[string]float64{}}
	if len(reqs) == 0 {
		return p
	}
	keys := map[string]struct{}{}
	freq := map[int64]int{}
	exact := 0
	for _, r := range reqs {
		keys[r.key()] = struct{}{}
		freq[r.Target]++
		p.mix[r.Measure]++
		if r.Exact {
			exact++
		}
	}
	n := float64(len(reqs))
	p.distinctShare = float64(len(keys)) / n
	p.exactShare = float64(exact) / n
	for m := range p.mix {
		p.mix[m] /= n
	}
	p.zipfFit = fitZipf(freq)
	return p
}

// fitZipf fits log(frequency) = c − s·log(rank) by least squares over
// the ranks seen at least 5 times and returns s.
func fitZipf(freq map[int64]int) float64 {
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	var sx, sy, sxx, sxy, k float64
	for i, c := range counts {
		if c < 5 {
			break
		}
		x, y := math.Log(float64(i+1)), math.Log(float64(c))
		sx, sy, sxx, sxy, k = sx+x, sy+y, sxx+x*x, sxy+x*y, k+1
	}
	if k < 3 {
		return 0
	}
	return -(k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// String renders the properties on one line.
func (p properties) String() string {
	names := make([]string, 0, len(p.mix))
	for m := range p.mix {
		names = append(names, m)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, m := range names {
		parts[i] = fmt.Sprintf("%s:%.3f", m, p.mix[m])
	}
	return fmt.Sprintf("sent=%d distinct_key_share=%.4f exact_share=%.4f measure_mix=%s zipf_fit=%.3f",
		p.sent, p.distinctShare, p.exactShare, strings.Join(parts, ","), p.zipfFit)
}
