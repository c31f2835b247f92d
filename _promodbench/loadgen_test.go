package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stallServer answers every request at once, except that one request
// stalls the whole server for the given time: requests arriving
// meanwhile queue behind it.
func stallServer(stallAt int, stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	n := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		n++
		if n == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		_, _ = w.Write([]byte(`{}`))
	}))
}

// TestDueTimeAccountingShowsStall drives a server that stalls once for
// 200 ms at 1000 requests/s: timed from due time, the 99th percentile
// carries the stall; timed from send time, as promoload does, the
// backlog sent after the stall looks fast and the stall vanishes.
func TestDueTimeAccountingShowsStall(t *testing.T) {
	srv := stallServer(300, 200*time.Millisecond)
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), newBodyStore())
	defer c.close()
	send := func(body []byte) (int, int32) {
		status, id, _ := c.post("/v1/promote", body)
		return status, id
	}
	bodies := make([][]byte, 2000)
	for i := range bodies {
		bodies[i] = []byte(`{}`)
	}
	outs, span := openLoop(send, bodies, 1000, 2*time.Second, time.Second)
	if len(outs) != 2000 || span < 2*time.Second-10*time.Millisecond {
		t.Fatalf("sent %d requests over %v, want 2000 over ~2s", len(outs), span)
	}
	for _, o := range outs {
		if o.failed() {
			t.Fatalf("request %d failed with status %d", o.req, o.status)
		}
	}
	good := func(*outcome) bool { return false }
	fromDue := percentile(latenciesMs(outs, good, (*outcome).latency), 0.99)
	sendP99 := percentile(latenciesMs(outs, good, (*outcome).service), 0.99)
	if fromDue < 100 {
		t.Errorf("p99 from due time %.1fms, want the 200ms stall to show (>100ms)", fromDue)
	}
	if sendP99 > 50 {
		t.Errorf("p99 from send time %.1fms; expected send-time accounting to hide the stall", sendP99)
	}
	if late := lateP99Ms(outs, 3*time.Second); late < 100 {
		t.Errorf("late p99 %.1fms, want the backlog behind the stall to show (>100ms)", late)
	}
}

// TestFailuresSortBeyondEveryLimit checks that a failed request counts
// as infinitely slow in the percentiles.
func TestFailuresSortBeyondEveryLimit(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{status: http.StatusOK, done: time.Millisecond}
	}
	outs[0].status = http.StatusTooManyRequests
	outs[1].status = 0
	lat := latenciesMs(outs, func(*outcome) bool { return false }, (*outcome).latency)
	if p := percentile(lat, 0.98); p != 1 {
		t.Errorf("p98 = %v, want 1ms", p)
	}
	if p := percentile(lat, 0.99); !math.IsInf(p, 1) {
		t.Errorf("p99 = %v, want +Inf with 2%% failures", p)
	}
	bad := func(o *outcome) bool { return o == &outs[2] }
	if p := percentile(latenciesMs(outs, bad, (*outcome).service), 0.98); !math.IsInf(p, 1) {
		t.Errorf("p98 = %v, want +Inf once a wrong answer counts as failed too", p)
	}
	if got := finiteOr(math.Inf(1), 20000); got != 20000 {
		t.Errorf("finiteOr(+Inf) = %v, want the cap", got)
	}
}

// TestClosedLoopRoundsAndReloads runs the closed loop against a stub
// that answers in a millisecond: requests go out in order, a reload
// runs once its time has come while the other connection keeps sending,
// and the loop stops after its duration.
func TestClosedLoopRoundsAndReloads(t *testing.T) {
	bodies := make([][]byte, 100000)
	send := func([]byte) (int, int32) {
		time.Sleep(time.Millisecond)
		return http.StatusOK, 0
	}
	reloads := 0
	reload := func(start time.Time) []outcome {
		reloads++
		o := outcome{req: -1, due: time.Since(start)}
		time.Sleep(20 * time.Millisecond)
		o.sent, o.done, o.status = o.due, time.Since(start), http.StatusOK
		return []outcome{o}
	}
	outs, probes, span := closedLoop(send, bodies, 300*time.Millisecond, []time.Duration{100 * time.Millisecond}, 1, 0, reload)
	if reloads != 1 || len(probes) != 1 {
		t.Fatalf("%d reloads, %d probes; want 1 each", reloads, len(probes))
	}
	if span < 300*time.Millisecond || span > 2*time.Second {
		t.Errorf("span %v, want just over the 300ms duration", span)
	}
	if len(outs) < 100 {
		t.Fatalf("only %d requests answered in 300ms", len(outs))
	}
	beside := 0
	for i := range outs {
		if i > 0 && outs[i].req <= outs[i-1].req {
			t.Fatalf("outcome %d is request %d after request %d", i, outs[i].req, outs[i-1].req)
		}
		if outs[i].sent >= probes[0].due && outs[i].done <= probes[0].done {
			beside++
		}
	}
	if beside == 0 {
		t.Error("no request ran beside the reload")
	}
}
