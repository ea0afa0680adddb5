package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kgexplore"
)

func newStreamServer(t *testing.T, maxBudget time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	ds, err := kgexplore.LoadNTriples(strings.NewReader(tinyNT))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ds)
	srv.MaxBudget = maxBudget
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postStream(t *testing.T, url string, req ChartRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readEvents reads up to max SSE events (all of them when max <= 0).
func readEvents(t *testing.T, resp *http.Response, max int) []ChartResponse {
	t.Helper()
	var events []ChartResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var c ChartResponse
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &c); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, c)
		if max > 0 && len(events) >= max {
			break
		}
	}
	return events
}

func TestStreamChartProgressiveSnapshots(t *testing.T) {
	_, ts := newStreamServer(t, 5*time.Second)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)

	resp := postStream(t, ts.URL+"/api/session/"+st.Session+"/chart?stream=1",
		ChartRequest{Op: "subclass", Engine: "wj", BudgetMS: 150, IntervalMS: 10})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readEvents(t, resp, 0)
	if len(events) < 2 {
		t.Fatalf("got %d SSE events, want >= 2 progressive snapshots", len(events))
	}
	for i, e := range events {
		if e.Engine != "wj" || e.NumBars == 0 {
			t.Errorf("event %d = %+v", i, e)
		}
		// Progressive events move strictly forward; only the final one may
		// repeat a count (a budget that ran out mid-delivery).
		if i > 0 && (e.Walks < events[i-1].Walks || (e.Walks == events[i-1].Walks && !e.Final)) {
			t.Errorf("walks not increasing: event %d has %d after %d",
				i, e.Walks, events[i-1].Walks)
		}
		if e.Final != (i == len(events)-1) {
			t.Errorf("event %d of %d has final=%v; exactly the last event is final", i, len(events), e.Final)
		}
	}
}

func TestStreamChartDefaultEngineIsAuditJoin(t *testing.T) {
	_, ts := newStreamServer(t, 5*time.Second)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)
	resp := postStream(t, ts.URL+"/api/session/"+st.Session+"/chart?stream=1",
		ChartRequest{Op: "subclass", BudgetMS: 60, IntervalMS: 10})
	defer resp.Body.Close()
	events := readEvents(t, resp, 0)
	if len(events) == 0 || events[0].Engine != "aj" {
		t.Errorf("events = %+v, want engine aj", events)
	}
}

func TestStreamChartRejectsExactEngines(t *testing.T) {
	_, ts := newStreamServer(t, 5*time.Second)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)
	resp := postStream(t, ts.URL+"/api/session/"+st.Session+"/chart?stream=1",
		ChartRequest{Op: "subclass", Engine: "ctj"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("exact engine in stream mode: status %d, want 400", resp.StatusCode)
	}
}

func TestStreamChartDisconnectCancelsRun(t *testing.T) {
	// A client that walks away mid-stream must cancel the server-side run
	// through the request context: after closing the body, the handler exits
	// long before its 20s budget, so shutting the test server down is fast.
	srv, ts := newStreamServer(t, 30*time.Second)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)

	resp := postStream(t, ts.URL+"/api/session/"+st.Session+"/chart?stream=1",
		ChartRequest{Op: "subclass", Engine: "wj", BudgetMS: 20000, IntervalMS: 10}) // wj never turns exact, so the stream lasts
	if events := readEvents(t, resp, 2); len(events) < 2 {
		t.Fatalf("got %d events before disconnect", len(events))
	}
	resp.Body.Close()

	start := time.Now()
	ts.Close() // waits for outstanding handlers
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("server shutdown after client disconnect took %v; run not cancelled", elapsed)
	}
	_ = srv
}

// testClock is a race-safe fake clock for the session-TTL tests.
type testClock struct {
	base time.Time
	off  atomic.Int64
}

func (c *testClock) now() time.Time          { return c.base.Add(time.Duration(c.off.Load())) }
func (c *testClock) advance(d time.Duration) { c.off.Add(int64(d)) }

func TestSessionTTLExpiry(t *testing.T) {
	srv, ts := newStreamServer(t, time.Second)
	clock := &testClock{base: time.Now()}
	srv.now = clock.now
	srv.SessionTTL = time.Minute

	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)

	// Still alive within the TTL.
	resp, err := http.Get(ts.URL + "/api/session/" + st.Session)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh session status = %d", resp.StatusCode)
	}

	// Idle past the TTL: the lazy sweep on the next request removes it.
	clock.advance(2 * time.Minute)
	resp, err = http.Get(ts.URL + "/api/session/" + st.Session)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("expired session status = %d, want 404", resp.StatusCode)
	}
}

func TestSessionTTLTouchKeepsAlive(t *testing.T) {
	srv, ts := newStreamServer(t, time.Second)
	clock := &testClock{base: time.Now()}
	srv.now = clock.now
	srv.SessionTTL = time.Minute

	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)

	// Touch the session every 40s: it must never expire.
	for i := 0; i < 4; i++ {
		clock.advance(40 * time.Second)
		resp, err := http.Get(ts.URL + "/api/session/" + st.Session)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("touched session expired after %d touches (status %d)", i+1, resp.StatusCode)
		}
	}
}

func TestMaxSessionsEvictsLRU(t *testing.T) {
	srv, ts := newStreamServer(t, time.Second)
	clock := &testClock{base: time.Now()}
	srv.now = clock.now
	srv.MaxSessions = 3

	var ids []string
	for i := 0; i < 4; i++ {
		clock.advance(time.Second) // distinct lastUsed per session
		var st StateResponse
		post(t, ts.URL+"/api/session", struct{}{}, &st)
		ids = append(ids, st.Session)
	}
	// The first (least recently used) session was evicted; the rest live.
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/api/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == 0 && resp.StatusCode != http.StatusNotFound {
			t.Errorf("LRU session %s status = %d, want 404", id, resp.StatusCode)
		}
		if i > 0 && resp.StatusCode != http.StatusOK {
			t.Errorf("session %s status = %d, want 200", id, resp.StatusCode)
		}
	}
}
