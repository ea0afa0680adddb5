package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // ranks 91..100 lie beyond
		{99, 90, 0, false},    // only nine beyond rank 90
		{200, 95, 190, true},  // ranks 191..200
		{199, 95, 0, false},   // rank 190, nine beyond
		{15, 50, 0, false},    // a median of 15 has seven beyond
		{21, 50, 11, true},    // rank 11, ten beyond
		{0, 50, 0, false},     // empty
		{1000, 99, 990, true}, // p99 needs a thousand
	} {
		got, ok := tailPercentile(sample(c.n), c.p, 10)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(n=%d, p%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestClampedGeoMean(t *testing.T) {
	// 1e-6 clamps up to 1e-3, 10 and NaN clamp down to 1: (1e-3·1·1·1)^(1/4).
	got := clampedGeoMean([]float64{1e-6, 1, 10, math.NaN()}, 1e-3, 1)
	if want := math.Pow(1e-3, 0.25); math.Abs(got-want) > 1e-12 {
		t.Errorf("clampedGeoMean = %v, want %v", got, want)
	}
	if !math.IsNaN(clampedGeoMean(nil, 1e-3, 1)) {
		t.Error("empty sample must give NaN, not a number that looks measured")
	}
}

func TestRelCIAndCoverage(t *testing.T) {
	bars := []bar{
		{Category: "a", Count: 100, CI: 10}, // truth 105: covered
		{Category: "b", Count: 50, CI: 5},   // truth 60: missed
		{Category: "c", Count: 7, CI: 0},    // exact and equal: covered
		{Category: "d", Count: 3, CI: 1},    // unknown to truth, exact value 0: missed
		{Category: "e", Count: 0, CI: 0},    // zero count: ratio counts as 1
	}
	truth := map[string]float64{"a": 105, "b": 60, "c": 7}
	if c, n := coverage(bars, truth); c != 3 || n != 5 { // e: 0 ± 0 contains 0
		t.Errorf("coverage = %d/%d, want 3/5", c, n)
	}
	want := (0.1 + 0.1 + 0 + 1.0/3 + 1) / 5
	if got := relCI(bars); math.Abs(got-want) > 1e-12 {
		t.Errorf("relCI = %v, want %v", got, want)
	}
	// An answer with no bars misses every bar the chart should show.
	if c, n := coverage(nil, truth); c != 0 || n != 3 {
		t.Errorf("coverage of an empty answer = %d/%d, want 0/3", c, n)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := iqrShare([]float64{0, 0, 0, 0}); got != 0 {
		t.Errorf("iqrShare of a constant = %v, want 0", got)
	}
}

func TestParseSSE(t *testing.T) {
	stream := "data: {\"a\":1}\n\n" +
		"data:{\"a\":2}\r\n\r\n" + // no space after the colon, CRLF line ends
		": a comment\n" +
		"data: {\"a\":\n" + // one event over two data lines
		"data: 3}\n\n" +
		"data: {\"a\":4}" // the stream ends without the closing blank line
	var got []string
	err := parseSSE(strings.NewReader(stream), func(data []byte) error {
		got = append(got, string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"a":1}`, `{"a":2}`, "{\"a\":\n3}", `{"a":4}`}
	if len(got) != len(want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// The open loop sends on schedule whatever the server does, and counts
// latency from the due time: behind a one-connection client and a 40 ms
// server, the third of three requests due 10 ms apart waits for two others.
func TestOpenLoopTimesFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(40 * time.Millisecond)
		w.Write([]byte(`{"numBars":0,"bars":[]}`))
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var reqs []*request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, &request{Kind: "online", Form: "sparql", Engine: "aj", DueMS: float64(10 * i)})
	}
	start := time.Now().Add(5 * time.Millisecond)
	out := runOpenLoop(context.Background(), client, srv.URL, reqs, start)
	for i, r := range out {
		if r.err != "" {
			t.Fatalf("request %d: %s", i, r.err)
		}
		if r.lagMS < 0 || r.lagMS > 20 {
			t.Errorf("request %d dispatched %.1f ms after it was due", i, r.lagMS)
		}
		// Each waits for the ones before it: ≥ 40, ≥ 70, ≥ 100 ms from its own due time.
		if min := float64(40 + 30*i); r.latencyMS < min-1 {
			t.Errorf("request %d latency %.1f ms, want at least %.0f: the wait for a connection counts", i, r.latencyMS, min)
		}
	}
}

func TestJudgeExactAnswers(t *testing.T) {
	r := &request{Kind: "exact", Truth: map[string]float64{"a": 2, "b": 1}}
	ok := &chartBody{NumBars: 2, Bars: []bar{{Category: "a", Count: 2}, {Category: "b", Count: 1}}}
	if msg := judge(r, ok); msg != "" {
		t.Errorf("a correct answer was rejected: %s", msg)
	}
	for name, c := range map[string]*chartBody{
		"wrong count": {NumBars: 2, Bars: []bar{{Category: "a", Count: 3}, {Category: "b", Count: 1}}},
		"missing bar": {NumBars: 1, Bars: []bar{{Category: "a", Count: 2}}},
		"extra bar":   {NumBars: 3, Bars: []bar{{Category: "a", Count: 2}, {Category: "b", Count: 1}, {Category: "c", Count: 1}}},
		"non-finite":  {NumBars: 2, Bars: []bar{{Category: "a", Count: math.Inf(1)}, {Category: "b", Count: 1}}},
	} {
		if judge(r, c) == "" {
			t.Errorf("%s passed", name)
		}
	}
}

func TestVerdictIsUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	m := metricSpec{Name: "relci_gmean", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		old, new, spread float64
		want             string
	}{
		{1, 1.05, 0.03, "unchanged"},
		{1, 1.2, 0.03, "REGRESSION"},
		{1, 0.8, 0.03, "improved"},
		{1, 1.05, 0.15, "unresolved"}, // never "unchanged" when the noise is wider than the bound
		{1, 1.5, 0.15, "unresolved"},
	} {
		if _, got := verdict(m, c.old, c.new, c.spread); got != c.want {
			t.Errorf("verdict(%v→%v, spread %v) = %s, want %s", c.old, c.new, c.spread, got, c.want)
		}
	}
	higher := metricSpec{Name: "ci_coverage", Better: "higher", Bound: 0.1}
	if _, got := verdict(higher, 0.9, 0.7, 0.02); got != "REGRESSION" {
		t.Errorf("a drop in a higher-is-better metric = %s, want REGRESSION", got)
	}
}

func TestDriverLineShape(t *testing.T) {
	res := &runResult{Correct: true, Attempted: 7, Metrics: map[string]float64{"setup_s": 1.25}}
	line, err := driverLine(res, []metricSpec{{Name: "setup_s", Unit: "s"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("key %q missing from %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("driver line has %d keys, want exactly 4: %s", len(got), line)
	}
	for _, correct := range []bool{true, false} { // failed requests can make a latency infinite, which is dropped
		res.Correct = correct
		if _, err := driverLine(res, []metricSpec{{Name: "relci_gmean"}}, true); err == nil {
			t.Errorf("correct=%v: an unmeasured end-to-end metric must be an error, not a zero", correct)
		}
	}
}

// smallFixture is the 22K-triple graph, built in-process.
func smallFixture(t *testing.T) *fixture {
	t.Helper()
	g, schema, err := kggen.Generate(kggen.DBpediaSim(0.02))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: index.Build(g), schema: schema}
}

// The request list is a pure function of the seed (and of the fixed pool):
// the same seed gives the same list byte for byte, another seed another
// list, and the pinned hash says so across processes and commits.
func TestRequestListIsAPureFunctionOfSeed(t *testing.T) {
	fx := smallFixture(t)
	const golden = "633630c2f3a3a93bfa5739b853b2cd2f154785ed7abdd976fc05db58a78f8349"
	for _, w := range workloads {
		w := w.smoke()
		n := w.windowLen(2)
		steps, surface := w.poolSize(n)
		pl, err := buildPool(fx, steps, surface)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plan := func(seed int64) string {
			p, err := buildPlan(w, fx, pl, seed, 2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if len(p.Window) < n {
				t.Fatalf("%s: window has %d requests, want at least %d", w.Name, len(p.Window), n)
			}
			return p.hash()
		}
		a, b, c := plan(1), plan(1), plan(2)
		if a != b {
			t.Errorf("%s: seed 1 gave two different request lists", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.Name)
		}
		if w.Name == "explore-large" && a != golden {
			t.Errorf("explore-large smoke list for seed 1 hashes to %s, pinned %s: the generator, the pool or the arrangement changed", a, golden)
		}
	}
}

// Every ingest op the generator draws is applied to the rebuild exactly once.
func TestIngestRebuildMatchesOps(t *testing.T) {
	fx := smallFixture(t)
	pl, err := buildPool(fx, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := workloadByName("live-mixed").smoke()
	p, err := buildPlan(w, fx, pl, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	adds, dels := 0, 0
	for _, r := range append(append([]*request(nil), p.Window...), p.Tail...) {
		if r.Kind == "ingest" {
			if len(r.Add)+len(r.Delete) != batchOps {
				t.Fatalf("batch has %d ops, want %d", len(r.Add)+len(r.Delete), batchOps)
			}
			adds, dels = adds+len(r.Add), dels+len(r.Delete)
		}
	}
	// The tail's sentinel count is the rebuild's own: truth of the last exact re-ask list is non-empty.
	exact := 0
	for _, r := range p.Tail {
		if r.Kind == "exact" && r.Truth != nil {
			exact++
		}
	}
	if adds == 0 || dels == 0 || exact == 0 {
		t.Fatalf("adds %d, deletes %d, exact re-asks %d: want all positive", adds, dels, exact)
	}
	if got := float64(dels) / float64(adds+dels); got < 0.25 || got > 0.35 {
		t.Errorf("delete share %.2f, want about 0.30", got)
	}
}

// sharedSelect must keep a union's meaning while giving its branches one
// SELECT clause.
func TestSharedSelectRenumbersBranches(t *testing.T) {
	fx := smallFixture(t)
	pl, err := buildPool(fx, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	unions := 0
	for _, s := range pl.Surface {
		if strings.Contains(s.Query, "UNION") {
			unions++
			if !strings.HasPrefix(s.Query, "SELECT ?v0 COUNT(") {
				t.Errorf("union does not group by ?v0: %s", s.Query)
			}
		}
	}
	if unions == 0 {
		t.Fatal("the surface pool holds no UNION query")
	}
}

// TestSmoke runs the whole harness — build, set-up, kgserver, load, checks,
// traced replay — on the small fixture with 2 s windows.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns kgserver four times")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	defer killChildren()
	if code := realMain(ctx, []string{"trace", "-smoke"}); code != 0 {
		t.Fatalf("bench trace -smoke exited %d", code)
	}
}
