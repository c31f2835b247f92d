package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request's timing and result. Times are offsets from
// the start of the phase that sent it.
type outcome struct {
	// req indexes the workload sequence; -1 marks a reload probe, whose
	// request is in probe.
	req   int
	probe request
	// due is when the request was due, sent when it went out (-1: never
	// sent), done when its response was read.
	due, sent, done time.Duration
	// status is the HTTP status, 0 on a transport error or when unsent.
	status int
	// body indexes the interned response body, -1 when there is none.
	body int32
}

// failed reports whether the request got no 200 answer.
func (o *outcome) failed() bool { return o.status != http.StatusOK }

// latency is the request's latency from its due time: for an open loop
// that counts the wait a stall imposes on later requests; in a closed
// loop a request is due when its round starts.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// service is the request's latency from when it went out: what one
// client waits for one answer, without the wait behind earlier requests
// that latency counts.
func (o *outcome) service() time.Duration { return o.done - o.sent }

// bodyStore interns response bodies: a hot workload gets the same few
// bytes back tens of thousands of times, and each distinct body needs
// verifying only once.
type bodyStore struct {
	mu     sync.Mutex
	ids    map[string]int32
	bodies [][]byte
}

func newBodyStore() *bodyStore { return &bodyStore{ids: map[string]int32{}} }

func (s *bodyStore) intern(b []byte) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[string(b)]; ok {
		return id
	}
	id := int32(len(s.bodies))
	cp := append([]byte(nil), b...)
	s.ids[string(cp)] = id
	s.bodies = append(s.bodies, cp)
	return id
}

// client is the load generator's HTTP client: at most `connections`
// keep-alive connections to one daemon.
type client struct {
	http  *http.Client
	base  string
	store *bodyStore
}

func newClient(addr string, store *bodyStore) *client {
	return &client{
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     connections,
				MaxIdleConnsPerHost: connections,
				DisableCompression:  true,
			},
		},
		base:  "http://" + addr,
		store: store,
	}
}

// post sends body to path and interns the response. A transport error
// yields status 0 and body -1.
func (c *client) post(path string, body []byte) (status int, id int32, resp []byte) {
	r, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, -1, nil
	}
	var buf bytes.Buffer
	_, err = io.Copy(&buf, r.Body)
	_ = r.Body.Close() // body fully read or failed; nothing more to learn
	if err != nil {
		return 0, -1, nil
	}
	id = c.store.intern(buf.Bytes())
	return r.StatusCode, id, buf.Bytes()
}

// close releases the client's idle connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// sender sends one request body and reports its status and interned
// response body; client.post bound to /v1/promote in production, a stub
// in tests.
type sender func(body []byte) (status int, id int32)

// openLoop sends request i at start + i/rate for every i due in
// [0, duration), over `connections` workers. A request that finds both
// workers busy goes out late and is timed from its due time. Requests
// still unsent at duration+grace are abandoned and count as failed.
// It returns one outcome per request and the span from start to the
// last response.
func openLoop(send sender, bodies [][]byte, rate float64, duration, grace time.Duration) ([]outcome, time.Duration) {
	n := int(rate * duration.Seconds())
	if n > len(bodies) {
		n = len(bodies)
	}
	outs := make([]outcome, n)
	var next atomic.Int64
	start := time.Now()
	cutoff := duration + grace
	var wg sync.WaitGroup
	wg.Add(connections)
	for w := 0; w < connections; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &outs[i]
				o.req, o.body = i, -1
				o.due = time.Duration(float64(i) / rate * float64(time.Second))
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				o.sent = time.Since(start)
				if o.sent > cutoff {
					o.sent = -1
					continue
				}
				o.status, o.body = send(bodies[i])
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return outs, lastDone(outs)
}

// closedLoop sends the sequence in rounds of `connections` requests,
// one per connection, sent together; the next round starts when the
// whole round is answered, until duration has passed. Rounds keep a
// cheap answer from being timed against an unrelated exact rescoring
// on the other connection. Once a reload time has come, the first round
// whose index is reloadPhase modulo reloadCycle instead runs the reload
// hook on client 0 (it returns its own probe outcomes) while client 1
// keeps sending that round's requests and the next ones, one after
// another, until the reload is done; aligning reloads to the sequence's
// cycle makes the traffic beside every reload alike. It returns the
// outcomes in sequence order, the probe outcomes, and the span from
// start to the last response.
func closedLoop(send sender, bodies [][]byte, duration time.Duration, reloadAt []time.Duration, reloadCycle, reloadPhase int, reload func(start time.Time) []outcome) ([]outcome, []outcome, time.Duration) {
	start := time.Now()
	var outs, probes []outcome
	one := func(i int, due time.Duration) outcome {
		o := outcome{req: i, body: -1, due: due}
		o.sent = time.Since(start)
		o.status, o.body = send(bodies[i])
		o.done = time.Since(start)
		return o
	}
	next, nextReload := 0, 0
	for time.Since(start) < duration && next+connections <= len(bodies) {
		if nextReload < len(reloadAt) && time.Since(start) >= reloadAt[nextReload] &&
			next/connections%reloadCycle == reloadPhase {
			nextReload++
			done := make(chan []outcome)
			go func() { done <- reload(start) }()
			for reloading := true; reloading; {
				select {
				case p := <-done:
					probes = append(probes, p...)
					reloading = false
				default:
					if next == len(bodies) {
						probes = append(probes, <-done...)
						reloading = false
						continue
					}
					outs = append(outs, one(next, time.Since(start)))
					next++
				}
			}
			// Realign to a round boundary; a skipped request is never sent.
			next = (next + connections - 1) / connections * connections
			continue
		}
		// Every request of a round is due when the round starts.
		due := time.Since(start)
		round := make([]outcome, connections)
		var wg sync.WaitGroup
		wg.Add(connections - 1)
		for c := 1; c < connections; c++ {
			go func(c int) {
				defer wg.Done()
				round[c] = one(next+c, due)
			}(c)
		}
		round[0] = one(next, due)
		wg.Wait()
		outs = append(outs, round...)
		next += connections
	}
	all := append(append([]outcome(nil), outs...), probes...)
	return outs, probes, lastDone(all)
}

func lastDone(outs []outcome) time.Duration {
	var last time.Duration
	for i := range outs {
		if outs[i].done > last {
			last = outs[i].done
		}
	}
	return last
}

// percentile returns the q-quantile (nearest rank) of the latencies,
// with every failed or unverified request sorted beyond every limit
// (+Inf).
func percentile(lat []float64, q float64) float64 {
	if len(lat) == 0 {
		return math.Inf(1)
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// latenciesMs converts outcomes to milliseconds by the given latency
// (outcome.latency from due time, outcome.service from send time); a
// failed outcome, or one whose answer failed verification (bad), is +Inf.
func latenciesMs(outs []outcome, bad func(o *outcome) bool, latency func(o *outcome) time.Duration) []float64 {
	lat := make([]float64, len(outs))
	for i := range outs {
		o := &outs[i]
		if o.failed() || bad(o) {
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = float64(latency(o)) / float64(time.Millisecond)
	}
	return lat
}

// lateP99Ms is the 99th percentile of how late requests were sent
// (send time − due time), in milliseconds; unsent requests count as
// late by the whole phase.
func lateP99Ms(outs []outcome, phase time.Duration) float64 {
	late := make([]float64, len(outs))
	for i := range outs {
		d := outs[i].sent - outs[i].due
		if outs[i].sent < 0 {
			d = phase
		}
		late[i] = float64(d) / float64(time.Millisecond)
	}
	return percentile(late, 0.99)
}

// finiteOr returns v, or cap when v is infinite: a percentile that lands
// on a failed request is reported as the phase length, longer than any
// limit the workload could set.
func finiteOr(v, cap float64) float64 {
	if math.IsInf(v, 0) {
		return cap
	}
	return v
}
