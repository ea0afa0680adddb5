package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// newClient is the load generator's only HTTP client: one process, at most
// nproc connections, so the generator can never occupy more of the box than
// the cores it shares with the server.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func newSession(ctx context.Context, client *http.Client, base string) (string, error) {
	status, body, err := post(ctx, client, base+"/api/session", nil)
	if err != nil {
		return "", err
	}
	var st struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &st); err != nil || status != http.StatusOK || st.Session == "" {
		return "", fmt.Errorf("new session: HTTP %d %q", status, body)
	}
	return st.Session, nil
}

// primeSessions gives every chart-form request its own session, positioned
// by replaying the request's path prefix. It runs before the timed window:
// the window then holds independent requests only.
func primeSessions(ctx context.Context, client *http.Client, base string, reqs []*request) error {
	for _, r := range reqs {
		if r.Form != "chart" && r.Form != "chart-stream" {
			continue
		}
		id, err := newSession(ctx, client, base)
		if err != nil {
			return err
		}
		for _, sel := range r.Prefix {
			body, _ := json.Marshal(sel) // two strings always marshal
			status, resp, err := post(ctx, client, base+"/api/session/"+id+"/select", body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("select %s: HTTP %d %s", body, status, resp)
			}
		}
		r.session = id
	}
	return nil
}

// cacheCounts mirrors the server's per-run CTJ cache counters.
type cacheCounts struct {
	CountHits, CountMisses int64
	AggHits, AggMisses     int64
	ExistHits, ExistMisses int64
	ProbHits, ProbMisses   int64
}

func (c cacheCounts) hits() int64 { return c.CountHits + c.AggHits + c.ExistHits + c.ProbHits }
func (c cacheCounts) misses() int64 {
	return c.CountMisses + c.AggMisses + c.ExistMisses + c.ProbMisses
}

// chartBody is the part of the server's ChartResponse the harness reads.
type chartBody struct {
	NumBars int   `json:"numBars"`
	Bars    []bar `json:"bars"`
	Walks   int64 `json:"walks"`
	Final   bool  `json:"final"`
	Cache   *struct {
		Run cacheCounts `json:"run"`
	} `json:"cache"`
}

// result is what one request came to.
type result struct {
	req       *request
	lagMS     float64 // how late the generator dispatched it
	latencyMS float64 // due time → last byte
	err       string  // why it failed; "" when it passed
	final     chartBody
	events    int     // SSE events received
	ttci10MS  float64 // due time → first snapshot with relCI ≤ 0.10; -1 if never
	bytes     int
}

// parseSSE feeds each event's data payload to fn until the stream ends.
func parseSSE(r io.Reader, fn func(data []byte) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("data:")):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimPrefix(line[5:], []byte(" "))...)
		case len(line) == 0 && len(data) > 0:
			if ferr := fn(data); ferr != nil {
				return ferr
			}
			data = data[:0]
		}
		if err == io.EOF {
			if len(data) > 0 { // a last event without its blank line
				return fn(data)
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// wire renders the request as the HTTP call the UI or a SPARQL client makes.
func (r *request) wire(base string) (url string, body []byte) {
	n := topN
	if r.Kind == "exact" && r.Truth != nil {
		n = 0 // every bar, so the whole answer is checked
	}
	var v any
	switch r.Form {
	case "chart", "chart-stream":
		url = base + "/api/session/" + r.session + "/chart"
		if r.Form == "chart-stream" {
			url += "?stream=1"
		}
		v = map[string]any{"op": r.Op, "engine": r.Engine, "budgetMs": r.BudgetMS, "intervalMs": intervalMS, "topN": n}
	case "sparql":
		url = base + "/api/sparql"
		v = map[string]any{"query": r.Query, "engine": r.Engine, "budgetMs": r.BudgetMS, "topN": n}
	case "ingest":
		url = base + "/ingest"
		v = map[string]any{"add": r.Add, "delete": r.Delete}
	}
	body, _ = json.Marshal(v) // maps of strings and ints always marshal
	return url, body
}

// do sends one request and judges the answer. due is when the request was
// meant to be sent; latency counts from there.
func do(ctx context.Context, client *http.Client, base string, r *request, due time.Time) result {
	res := result{req: r, ttci10MS: -1, lagMS: float64(time.Since(due)) / 1e6}
	url, body := r.wire(base)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		res.err = err.Error()
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		res.err = err.Error()
		res.latencyMS = float64(time.Since(due)) / 1e6
		return res
	}
	defer resp.Body.Close()
	counted := &countingReader{r: resp.Body}
	switch {
	case resp.StatusCode/100 != 2:
		msg, _ := io.ReadAll(io.LimitReader(counted, 512))
		res.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	case r.Form == "chart-stream":
		err = parseSSE(counted, func(data []byte) error {
			var ev chartBody
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("malformed event: %w", err)
			}
			res.events++
			res.final = ev // Drive drops the final flag when no walk ran since the last snapshot: a cleanly ended stream's last event is the answer
			if res.ttci10MS < 0 && relCI(ev.Bars) <= 0.10 {
				res.ttci10MS = float64(time.Since(due)) / 1e6
			}
			return nil
		})
		if err != nil {
			res.err = err.Error()
		} else if res.events == 0 {
			res.err = "stream ended without an event"
		}
	case r.Form == "ingest":
		var ack struct {
			Applied int `json:"applied"`
		}
		if err := json.NewDecoder(counted).Decode(&ack); err != nil {
			res.err = "malformed ack: " + err.Error()
		} else if want := len(r.Add) + len(r.Delete); ack.Applied != want {
			res.err = fmt.Sprintf("ack applied %d of %d ops", ack.Applied, want)
		}
	default:
		if err := json.NewDecoder(counted).Decode(&res.final); err != nil {
			res.err = "malformed body: " + err.Error()
		}
		res.events = 1
	}
	res.latencyMS = float64(time.Since(due)) / 1e6
	res.bytes = counted.n
	if res.err == "" && r.Form != "ingest" {
		res.err = judge(r, &res.final)
	}
	return res
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// judge applies the failure rules to a well-formed chart answer. An online
// answer with no bars yet is not a failure of the operation: it is the widest
// possible interval, and is scored as such.
func judge(r *request, c *chartBody) string {
	for _, b := range c.Bars {
		if math.IsNaN(b.Count) || math.IsInf(b.Count, 0) || math.IsNaN(b.CI) || math.IsInf(b.CI, 0) {
			return "non-finite number in bar " + b.Category
		}
	}
	if r.Truth == nil || r.Kind != "exact" {
		return ""
	}
	if c.NumBars != len(r.Truth) || len(c.Bars) != len(r.Truth) {
		return fmt.Sprintf("exact answer has %d bars, truth %d", c.NumBars, len(r.Truth))
	}
	for _, b := range c.Bars {
		want, ok := r.Truth[b.Category]
		if !ok || math.Abs(b.Count-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Sprintf("exact answer %s=%v, truth %v", b.Category, b.Count, want)
		}
	}
	return ""
}

// runOpenLoop sends each request at start+DueMS whether or not earlier ones
// have answered, and returns the results in request order. A request that
// cannot get one of the nproc connections waits for it, and that wait is
// part of its latency, as it would be for a user behind a busy server.
func runOpenLoop(ctx context.Context, client *http.Client, base string, reqs []*request, start time.Time) []result {
	out := make([]result, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := start.Add(time.Duration(r.DueMS * float64(time.Millisecond)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func(i int, r *request) {
			defer wg.Done()
			out[i] = do(ctx, client, base, r, due)
		}(i, r)
	}
	wg.Wait()
	return out
}

// runClosedLoop sends the requests one after another, each as soon as the
// previous one has answered.
func runClosedLoop(ctx context.Context, client *http.Client, base string, reqs []*request) []result {
	out := make([]result, len(reqs))
	for i, r := range reqs {
		out[i] = do(ctx, client, base, r, time.Now())
	}
	return out
}
