package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSetups is how many times a run sets up; setup_s is their median.
const defaultSetups = 5

// runOpts selects one run.
type runOpts struct {
	w       *workload
	seed    int64
	seconds float64
	setups  int  // how many times to set up; setup_s is their median
	trace   bool // also replay in-process with spans for the per-layer metrics
}

// runResult is one run's record, written to bench/out/<workload>.json.
type runResult struct {
	Workload  string   `json:"workload"`
	Env       envInfo  `json:"env"`
	Seed      int64    `json:"seed"`
	PoolSeed  int64    `json:"poolSeed"`
	Seconds   float64  `json:"seconds"`
	PlanHash  string   `json:"planHash"`
	Triples   int      `json:"fixtureTriples"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few reasons
	Correct   bool     `json:"correct"`
	// Valid is false when the box, not the program, shaped the numbers: the
	// generator ran late or something else was using the cores.
	Valid      bool   `json:"valid"`
	InvalidWhy string `json:"invalidWhy,omitempty"`
	// Metrics holds every number the run produced; Samples the count behind
	// each percentile or mean.
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]int     `json:"samples"`
	TruthS  float64            `json:"truthS"`
	// Requests is one row per operation, in the order they were due.
	Requests []requestRow `json:"requests,omitempty"`
}

// requestRow is what one operation came to, for reading a run afterwards.
type requestRow struct {
	Kind      string  `json:"kind"`
	Form      string  `json:"form"`
	QueryID   string  `json:"queryId,omitempty"` // same text, same id, across runs
	Engine    string  `json:"engine,omitempty"`
	DueMS     float64 `json:"dueMs"`
	LagMS     float64 `json:"lagMs"`
	LatencyMS float64 `json:"latencyMs"`
	RelCI     float64 `json:"relCi,omitempty"`
	Walks     int64   `json:"walks,omitempty"`
	Bars      int     `json:"bars,omitempty"`
	Err       string  `json:"err,omitempty"`
}

func (r *runResult) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return // left out: printed as n/a
	}
	r.Metrics[name] = v
	r.Samples[name] = n
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// run executes one workload end to end against a real kgserver.
func run(ctx context.Context, d *dirs, o runOpts) (*runResult, error) {
	w := o.w
	res := &runResult{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Valid: true,
	}
	res.Env = fingerprint(d.root)
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up, several times over: every round but the last is torn down.
	var srv *server
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if srv != nil {
			srv.discard()
		}
		var took time.Duration
		var err error
		if srv, took, err = d.setUp(ctx, client, w); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		// The server's own log outlives the run: it says why a request failed.
		if b, err := os.ReadFile(srv.logPath); err == nil {
			_ = os.WriteFile(filepath.Join(d.out, w.Name+".server.log"), b, 0o644) // best effort, diagnostics only
		}
		srv.discard()
	}()
	res.set("setup_s", median(setups), len(setups))

	fx, err := loadFixture(srv.kgs)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	res.Triples = fx.store.NumTriples()
	n := w.windowLen(o.seconds)
	if n < 4 {
		return nil, fmt.Errorf("%s: %gs leaves room for only %d requests", w.Name, o.seconds, n)
	}
	steps, surface := w.poolSize(n)
	pl, cached, err := loadOrBuildPool(d, fx, steps, surface)
	if err != nil {
		return nil, err
	}
	planStart := time.Now()
	p, err := buildPlan(w, fx, pl, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	res.PlanHash, res.PoolSeed = p.hash(), poolSeed
	res.TruthS = time.Since(planStart).Seconds() // live: the rebuild and its CTJ answers
	if !cached {
		res.TruthS += pl.TruthS
	}
	if err := primeSessions(ctx, client, srv.base, append(append([]*request(nil), p.Window...), p.Tail...)); err != nil {
		return nil, err
	}

	if la := loadAvg1(); la > float64(res.Env.NProc) {
		res.Valid, res.InvalidWhy = false, fmt.Sprintf("load average %.2f > nproc %d at start", la, res.Env.NProc)
	}
	window := runOpenLoop(ctx, client, srv.base, p.Window, time.Now().Add(20*time.Millisecond))
	tail := runClosedLoop(ctx, client, srv.base, p.Tail)
	all := append(append([]result(nil), window...), tail...)
	res.Attempted = len(all)
	for _, r := range all {
		if r.err != "" {
			res.fail("%s %s %s: %s", r.req.Kind, r.req.Form, r.req.Engine, r.err)
		}
		row := requestRow{Kind: r.req.Kind, Form: r.req.Form, QueryID: queryID(r.req.Query), Engine: r.req.Engine, DueMS: r.req.DueMS,
			LagMS: r.lagMS, LatencyMS: r.latencyMS, Walks: r.final.Walks, Bars: r.final.NumBars, Err: r.err}
		if r.req.Kind == "online" && r.err == "" {
			row.RelCI = clamp(relCI(r.final.Bars), 0, 1)
		}
		res.Requests = append(res.Requests, row)
	}
	var usage procUsage
	if w.Live {
		if usage, err = liveChecks(ctx, d, client, srv, p, res); err != nil {
			return nil, err
		}
	} else {
		usage = srv.kill()
	}
	wireMetrics(res, window, tail, usage)
	if lag := res.Metrics["sched_lag_ms_p95"]; lag > 20 {
		res.Valid, res.InvalidWhy = false, fmt.Sprintf("generator lag p95 %.1f ms > 20 ms", lag)
	}
	if o.trace {
		if err := traceReplay(ctx, d, w, fx, p, pl, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func queryID(text string) string {
	if text == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:4])
}

// wireMetrics derives every metric that is measured on the wire.
func wireMetrics(res *runResult, window, tail []result, usage procUsage) {
	var relcis, chartLat, exactLat, ackLat, lags, overhead, walks, events, bytesOut, ttci []float64
	var covered, bars, converged, streams, flagged, bulkOps int
	var bulkMS float64
	var cacheHits, cacheMisses int64
	for _, r := range window {
		lags = append(lags, r.lagMS)
	}
	for i, r := range append(append([]result(nil), window...), tail...) {
		inWindow := i < len(window)
		switch r.req.Kind {
		case "online":
			if r.err == "" && r.req.Truth != nil {
				c, n := coverage(r.final.Bars, r.req.Truth)
				covered, bars = covered+c, bars+n
			}
			if !inWindow {
				continue // quiesced re-asks count for coverage only
			}
			// A failed request misses every limit: it is as wide as the
			// clamp allows and as late as the slowest answer.
			if r.err != "" {
				relcis = append(relcis, 1)
				chartLat = append(chartLat, math.Inf(1))
				continue
			}
			relcis = append(relcis, clamp(relCI(r.final.Bars), 1e-3, 1))
			chartLat = append(chartLat, r.latencyMS)
			overhead = append(overhead, r.latencyMS-float64(r.req.BudgetMS))
			bytesOut = append(bytesOut, float64(r.bytes))
			if r.req.Form == "chart-stream" {
				streams++
				if r.final.Final {
					flagged++
				}
				walks = append(walks, float64(r.final.Walks))
				events = append(events, float64(r.events))
				if r.ttci10MS >= 0 {
					converged++
					ttci = append(ttci, r.ttci10MS)
				}
				if c := r.final.Cache; c != nil {
					cacheHits += c.Run.hits()
					cacheMisses += c.Run.misses()
				}
			}
		case "exact":
			if r.err != "" {
				exactLat = append(exactLat, math.Inf(1))
			} else {
				exactLat = append(exactLat, r.latencyMS)
			}
		case "ingest":
			switch {
			case !inWindow: // the closed-loop bulk phase
				bulkOps += len(r.req.Add) + len(r.req.Delete)
				bulkMS += r.latencyMS
			case r.err != "":
				ackLat = append(ackLat, math.Inf(1))
			default:
				ackLat = append(ackLat, r.latencyMS)
			}
		}
	}
	res.set("relci_gmean", clampedGeoMean(relcis, 1e-3, 1), len(relcis))
	if bars > 0 {
		res.set("ci_coverage", float64(covered)/float64(bars), bars)
	}
	setLatency(res, "chart_latency_ms", chartLat, 90)
	setLatency(res, "exact_latency_ms", exactLat, 95)
	setLatency(res, "ingest_ack_ms", ackLat, 90) // 150 acks in a 15 s window: p90 is the highest percentile with ten samples beyond it
	if bulkMS > 0 {
		res.set("ingest_bulk_ops_per_s", float64(bulkOps)/(bulkMS/1000), bulkOps/batchOps)
	}
	res.set("peak_rss_mb", usage.maxRSSMiB, 1)

	res.set("server.cpu_s", usage.cpuS, 1)
	res.set("server.overhead_ms", median(overhead), len(overhead))
	res.set("server.walks_per_chart", median(walks), len(walks))
	res.set("server.events_per_chart", median(events), len(events))
	res.set("server.response_bytes", median(bytesOut), len(bytesOut))
	if cacheHits+cacheMisses > 0 {
		res.set("server.warm_cache_hit_frac", float64(cacheHits)/float64(cacheHits+cacheMisses), streams)
	}
	if streams > 0 {
		res.set("server.final_flag_frac", float64(flagged)/float64(streams), streams)
		res.set("server.ttci10_converged_frac", float64(converged)/float64(streams), streams)
		res.set("server.ttci10_ms_gmean", clampedGeoMean(ttci, 1e-3, math.MaxFloat64), len(ttci))
	}
	if v, ok := tailPercentile(lags, 95, 0); ok {
		res.set("sched_lag_ms_p95", v, len(lags))
	}
}

// setLatency records the median and, where at least ten samples lie beyond
// it, the tail percentile.
func setLatency(res *runResult, name string, xs []float64, tail float64) {
	if len(xs) == 0 {
		return
	}
	res.set(name+"_p50", median(xs), len(xs))
	if v, ok := tailPercentile(xs, tail, 10); ok {
		res.set(fmt.Sprintf("%s_p%g", name, tail), v, len(xs))
	}
}

// liveChecks runs what only the live workload has after its traffic: overlay
// telemetry is read from /healthz, then the server is killed (SIGKILL, the
// crash) and restarted from its WAL and newest compacted base, and the
// acknowledged sentinels are counted. It returns the killed server's usage.
func liveChecks(ctx context.Context, d *dirs, client *http.Client, srv *server, p *plan, res *runResult) (procUsage, error) {
	h, err := srv.healthz(client)
	if err != nil {
		srv.kill()
		return procUsage{}, err
	}
	if live, ok := h["live"].(map[string]any); ok {
		num := func(k string) float64 { v, _ := live[k].(float64); return v }
		res.set("live.compactions", num("Compactions"), 1)
		res.set("live.compact_last_ms", num("LastCompactMillis"), 1)
		res.set("live.overlay_size", num("DeltaAdds")+num("Tombstones"), 1)
	}
	batches := 0
	for _, r := range append(append([]*request(nil), p.Window...), p.Tail...) {
		if r.Kind == "ingest" {
			batches++
		}
	}
	usage := srv.kill()

	// Restart from the newest compacted base (the README's rule) and the WAL.
	args := append([]string(nil), srv.args...)
	for i, a := range args {
		if a == "-snapshot" {
			args[i+1] = newestBase(srv)
		}
	}
	restarted, err := d.startServer(client, args)
	if err != nil {
		return usage, fmt.Errorf("restart after kill: %w", err)
	}
	defer restarted.kill() // its files belong to srv, which the caller discards
	count := &request{Kind: "exact", Form: "sparql", Engine: "ctj",
		Query: fmt.Sprintf("SELECT COUNT(?s) WHERE { ?s <%s> ?o }", sentinelPred)}
	got := do(ctx, client, restarted.base, count, time.Now())
	res.Attempted++
	switch {
	case got.err != "":
		res.fail("sentinel count after restart: %s", got.err)
	case len(got.final.Bars) != 1 || int(got.final.Bars[0].Count) != batches:
		res.fail("after kill and restart %v sentinels survive, %d batches were acknowledged", got.final.Bars, batches)
	}
	return usage, nil
}

// newestBase is the snapshot a live server must restart from: the highest
// base-gen*.kgs in its livedir, or the original snapshot if it never compacted.
func newestBase(srv *server) string {
	var livedir, best string
	for i, a := range srv.args {
		switch a {
		case "-livedir":
			livedir = srv.args[i+1]
		case "-snapshot":
			best = srv.args[i+1]
		}
	}
	matches, _ := filepath.Glob(filepath.Join(livedir, "base-gen*.kgs")) // the pattern is well-formed
	bestGen := -1
	for _, m := range matches {
		g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "base-gen"), ".kgs"))
		if err == nil && g > bestGen {
			best, bestGen = m, g
		}
	}
	return best
}

// sortedNames lists a metric map's keys in a stable order.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
