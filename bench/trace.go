package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"kgexplore"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/exec"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	kgserver "kgexplore/internal/server"
	"kgexplore/internal/snap"
	"kgexplore/internal/sparql"
	"kgexplore/internal/wj"
)

// The traced replay runs the run's own request list in-process, with spans
// recorded from here around each call into a layer's public functions.
// Runners are seeded and driven by walk count, not by the clock, so every
// count it reports repeats exactly.
const (
	roundWalks   = 4096 // walks per drive round
	maxRounds    = 8    // a chart that has not reached a 10 % interval by then is censored
	probeQueries = 8    // pool queries behind each micro-probe

	overheadReqs = 48 // requests replayed with spans off and on for trace.overhead_frac
)

// span is one timed call: name, start, end, the span that caused it, and the
// request all spans of one replayed request share.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list; -1 for a request's root
	Request int    `json:"request"`
}

// tracer keeps spans in memory; they are written out when the replay ends.
// With off set it records nothing: the other half of trace.overhead_frac.
type tracer struct {
	t0    time.Time
	off   bool
	spans []span
}

func (t *tracer) start(name string, parent, request int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].EndNS = int64(time.Since(t.t0))
	}
}

// selfTimes sums each span name's self time: its duration minus the part its
// children cover. It returns totals and counts by name.
func (t *tracer) selfTimes() (total map[string]time.Duration, count map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	total, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range t.spans {
		total[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
		count[s.Name]++
	}
	return total, count
}

// replayer is the in-process stand-in for the server: the same facade calls
// kgserver makes, including its warm-start caches per plan signature.
type replayer struct {
	dict   *rdf.Dict
	schema explore.Schema
	ds     *kgexplore.Dataset
	sds    *kgexplore.ShardedDataset // sharded workload only
	lds    *kgexplore.LiveDataset    // live workload only
	est    card.Estimator
	tr     *tracer

	shared      map[string]*kgexplore.SharedCTJCache
	shardCaches map[string][]*kgexplore.ShardCache

	// Counters and samples gathered at the layer boundaries.
	walks, distinctWalks     int64
	driveNS, distinctDriveNS int64
	tipped, tipWalks         int64 // tipped walks, among the walks of runners that report tipping
	rejected                 int64
	cacheHits, cacheMisses   int64
	fallbacks, onlineCharts  int
	walksToCI10              []float64
	converged                int
	coveredBars, totalBars   int
}

// fresh is rp over the same backends with empty caches and counters: a pass
// of its own, which does what rp's pass did walk for walk.
func (rp *replayer) fresh(tr *tracer) *replayer {
	return &replayer{dict: rp.dict, schema: rp.schema, ds: rp.ds, sds: rp.sds, lds: rp.lds, est: rp.est, tr: tr,
		shared: map[string]*kgexplore.SharedCTJCache{}, shardCaches: map[string][]*kgexplore.ShardCache{}}
}

// traceOverhead is what recording spans costs, measured: two fresh replayers,
// one with spans off and one with spans on, run the first requests of the
// replay side by side, request by request, taking turns to go first. Seeded
// runners make both do the same walks, so each request gives one
// (on − off) ÷ off, and the answer is the median over the requests. Whole
// passes of identical work differ by ±7 % on this box and single requests by
// about as much; the median over 48 resolves about ±2.5 % (−0.037 to +0.020
// seen), which is far above the true cost, so the number may come out negative.
func traceOverhead(ctx context.Context, rp *replayer, reqs []*request) (float64, error) {
	if len(reqs) > overheadReqs {
		reqs = reqs[:overheadReqs]
	}
	now := time.Now()
	sides := [2]*replayer{rp.fresh(&tracer{t0: now, off: true}), rp.fresh(&tracer{t0: now})}
	var fracs []float64
	for i, r := range reqs {
		var took [2]time.Duration
		for k := 0; k < 2; k++ {
			side := (i/2 + k) % 2 // requests alternate in form, so the turn changes every second one
			start := time.Now()
			if _, err := sides[side].replay(ctx, i, r, int64(i)+1); err != nil {
				return 0, err
			}
			took[side] = time.Since(start)
		}
		fracs = append(fracs, float64(took[1]-took[0])/float64(took[0]))
	}
	return median(fracs), nil
}

var opNames = map[string]explore.Op{
	"subclass": explore.OpSubclass, "out-property": explore.OpOutProp, "in-property": explore.OpInProp,
	"object": explore.OpObject, "subject": explore.OpSubject,
}

// queryOf rebuilds the request's query the way the server would: a chart form
// expands its session state, a SPARQL form is parsed.
func (rp *replayer) queryOf(r *request, root, i int) (*sparql.Parsed, error) {
	if r.Form == "sparql" {
		id := rp.tr.start("sparql.parse", root, i)
		parsed, err := sparql.Parse(r.Query, rp.dict)
		rp.tr.end(id)
		return parsed, err
	}
	steps := make([]explore.PathStep, len(r.Prefix))
	for k, s := range r.Prefix {
		steps[k] = explore.PathStep{Op: opNames[s.Op], Category: rdf.NewIRI(s.Category)}
	}
	state, err := explore.Replay(rp.schema, rp.dict, steps) // the session's earlier clicks; not this request's work
	if err != nil {
		return nil, err
	}
	id := rp.tr.start("explore.query", root, i)
	q, err := state.Query(opNames[r.Op])
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	return &sparql.Parsed{Query: q, Branches: []*query.Query{q}}, nil
}

// newRunner builds the online stepper the server would build for the plan;
// nil with no error means the backend answers this plan exactly.
func (rp *replayer) newRunner(pl *query.Plan, seed int64) (kgexplore.Stepper, error) {
	sig := pl.Query.Signature()
	switch {
	case rp.sds != nil:
		if pl.Query.Distinct && !kgexplore.ShardScatterOwned(pl) {
			return nil, nil
		}
		caches, ok := rp.shardCaches[sig]
		if !ok {
			caches = kgexplore.NewShardCaches(rp.sds.NumShards())
			rp.shardCaches[sig] = caches
		}
		return rp.sds.NewScatter(pl, kgexplore.ShardScatterOptions{Seed: seed, Threshold: kgexplore.DefaultTippingThreshold, Caches: caches})
	case rp.lds != nil:
		if pl.Query.Distinct {
			return nil, nil
		}
		return rp.lds.NewLiveWalker(pl, kgexplore.LiveWalkerOptions{Seed: seed, Threshold: kgexplore.DefaultTippingThreshold})
	}
	c, ok := rp.shared[sig]
	if !ok {
		c = kgexplore.NewSharedCTJCache()
		rp.shared[sig] = c
	}
	return rp.ds.NewAuditJoin(pl, kgexplore.AuditJoinOptions{Threshold: kgexplore.DefaultTippingThreshold, Seed: seed, Shared: c}), nil
}

func (rp *replayer) exact(ctx context.Context, parsed *sparql.Parsed, pl *query.Plan, engine string) (map[rdf.ID]float64, error) {
	eng := map[string]kgexplore.ExactEngine{"lftj": kgexplore.EngineLFTJ, "baseline": kgexplore.EngineBaseline}[engine] // zero value: CTJ
	switch {
	case rp.sds != nil:
		return rp.sds.ExactCtx(ctx, pl)
	case rp.lds != nil:
		return rp.lds.ExactCtx(ctx, pl)
	case parsed.IsUnion():
		up, err := rp.ds.CompileUnion(parsed.Union())
		if err != nil {
			return nil, err
		}
		return rp.ds.ExactUnionCtx(ctx, up, eng)
	}
	return rp.ds.ExactCtx(ctx, pl, eng)
}

// replay runs one request through the layers and returns the bars it would
// have sent.
func (rp *replayer) replay(ctx context.Context, i int, r *request, seed int64) ([]bar, error) {
	root := rp.tr.start("request", -1, i)
	defer rp.tr.end(root)
	parsed, err := rp.queryOf(r, root, i)
	if err != nil {
		return nil, err
	}
	var pl *query.Plan
	if !parsed.IsUnion() {
		id := rp.tr.start("query.compile", root, i)
		pl, err = query.Compile(parsed.Query)
		rp.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	var counts, ci map[rdf.ID]float64
	var walks int64
	var runner kgexplore.Stepper
	if r.Kind == "online" {
		id := rp.tr.start("card.estimate", root, i)
		rp.est.JoinSize(pl)
		rp.tr.end(id)
		id = rp.tr.start("runner.new", root, i)
		runner, err = rp.newRunner(pl, seed)
		rp.tr.end(id)
		if err != nil {
			return nil, err
		}
		rp.onlineCharts++
	}
	if runner == nil {
		name := r.Engine + ".exact"
		if r.Kind == "online" { // the backend's own exact route for a plan it will not estimate
			name = "exact.route"
			rp.fallbacks++
		}
		id := rp.tr.start(name, root, i)
		counts, err = rp.exact(ctx, parsed, pl, r.Engine)
		rp.tr.end(id)
		if err != nil {
			return nil, err
		}
	} else {
		var snapshot wj.Result
		var driveNS int64
		reached := false
		for round := 0; round < maxRounds && !reached; round++ {
			id := rp.tr.start("drive", root, i)
			rep, err := exec.Drive(ctx, runner, exec.Options{MaxWalks: roundWalks, Batch: 128})
			rp.tr.end(id)
			if err != nil {
				return nil, err
			}
			driveNS += int64(rep.Elapsed)
			id = rp.tr.start("snapshot", root, i)
			snapshot = runner.Snapshot()
			rp.tr.end(id)
			reached = relCI(rp.bars(snapshot.Estimates, snapshot.CI)) <= 0.10
		}
		counts, ci, walks = snapshot.Estimates, snapshot.CI, snapshot.Walks
		rp.walks += walks
		rp.driveNS += driveNS
		if r.Distinct {
			rp.distinctWalks += walks
			rp.distinctDriveNS += driveNS
		}
		rp.rejected += snapshot.Rejected
		if reached {
			rp.converged++
		}
		rp.walksToCI10 = append(rp.walksToCI10, float64(walks)) // censored at maxRounds*roundWalks
		switch v := runner.(type) {
		case *kgexplore.AuditJoin:
			rp.tipped, rp.tipWalks = rp.tipped+v.Tipped(), rp.tipWalks+walks
			cs := v.CacheStats()
			rp.cacheHits += cs.CountHits + cs.AggHits + cs.ExistHits + cs.ProbHits
			rp.cacheMisses += cs.CountMisses + cs.AggMisses + cs.ExistMisses + cs.ProbMisses
		case *kgexplore.LiveWalker:
			rp.tipped, rp.tipWalks = rp.tipped+v.Tipped(), rp.tipWalks+walks
		}
	}
	id := rp.tr.start("render", root, i)
	bars := rp.bars(counts, ci)
	rp.tr.end(id)
	id = rp.tr.start("marshal", root, i)
	resp := kgserver.ChartResponse{Op: r.Op, Engine: r.Engine, NumBars: len(counts), Walks: walks, Final: true}
	for _, b := range bars {
		resp.Bars = append(resp.Bars, kgserver.ChartBar{Category: b.Category, Count: b.Count, CI: b.CI})
	}
	_, err = json.Marshal(resp)
	rp.tr.end(id)
	return bars, err
}

// bars renders counts as the wire's top bars, through the facade's BarsOf as
// the server does.
func (rp *replayer) bars(counts, ci map[rdf.ID]float64) []bar {
	all := rp.ds.BarsOf(counts, ci)
	if len(all) > topN {
		all = all[:topN]
	}
	out := make([]bar, len(all))
	for i, b := range all {
		out[i] = bar{Category: b.Category.Value, Count: b.Count, CI: b.CI}
	}
	return out
}

// traceReplay replays the run's requests in-process with spans on, runs the
// micro-probes, sets the per-layer metrics and writes the span file.
func traceReplay(ctx context.Context, d *dirs, w *workload, fx *fixture, p *plan, pl *pool, res *runResult) error {
	ds, err := kgexplore.FromStore(fx.store, kgexplore.RootThing)
	if err != nil {
		return err
	}
	rp := &replayer{dict: fx.store.Dict(), schema: fx.schema, ds: ds, est: card.NewSpanStats(fx.store),
		shared: map[string]*kgexplore.SharedCTJCache{}, shardCaches: map[string][]*kgexplore.ShardCache{}}
	// The replay covers the first replayMax reads of the window — enough for
	// steady layer numbers, short enough for the run — and the exact tail.
	// The live tail only re-asks the window's queries; it lends its truth.
	const replayMax = 96
	var reqs []*request
	truth := map[string]map[string]float64{}
	for _, r := range p.Window {
		if r.Kind != "ingest" && len(reqs) < replayMax {
			reqs = append(reqs, r)
		}
	}
	for _, r := range p.Tail {
		if r.Kind != "ingest" && !w.Live {
			reqs = append(reqs, r)
		}
	}
	for _, r := range append(append([]*request(nil), p.Window...), p.Tail...) {
		if r.Truth != nil {
			truth[r.Query] = r.Truth
		}
	}
	switch {
	case w.Shards > 0:
		start := time.Now()
		if rp.sds, err = ds.BuildSharded(w.Shards, ""); err != nil {
			return err
		}
		res.set("shard.build_s", time.Since(start).Seconds(), 1)
	case w.Live:
		if err := liveProbes(d, fx, p, rp, res); err != nil {
			return err
		}
		defer rp.lds.Close()
	}

	rp.tr = &tracer{t0: time.Now()}
	for i, r := range reqs {
		bars, err := rp.replay(ctx, i, r, int64(i)+1)
		if err != nil {
			return fmt.Errorf("replay request %d (%s %s): %w", i, r.Kind, r.Form, err)
		}
		if t := truth[r.Query]; r.Kind == "online" && t != nil {
			c, n := coverage(bars, t)
			rp.coveredBars, rp.totalBars = rp.coveredBars+c, rp.totalBars+n
		}
	}
	overhead, err := traceOverhead(ctx, rp, reqs)
	if err != nil {
		return fmt.Errorf("replay with spans off and on: %w", err)
	}
	res.set("trace.overhead_frac", overhead, min(len(reqs), overheadReqs))

	replayMetrics(rp, res)
	probes(ctx, w, fx, pl, rp.sds, res)
	return writeJSON(filepath.Join(d.out, w.Name+".trace.json"), rp.tr.spans)
}

// replayMetrics turns the replay's spans and counters into layer metrics.
func replayMetrics(rp *replayer, res *runResult) {
	total, count := rp.tr.selfTimes()
	per := func(metric, spanName string, unit time.Duration) {
		if n := count[spanName]; n > 0 {
			res.set(metric, float64(total[spanName])/float64(n)/float64(unit), n)
		}
	}
	per("sparql.parse_us", "sparql.parse", time.Microsecond)
	per("explore.query_us", "explore.query", time.Microsecond)
	per("query.compile_us", "query.compile", time.Microsecond)
	per("card.joinsize_us", "card.estimate", time.Microsecond)
	per("core.runner_new_us", "runner.new", time.Microsecond)
	per("wj.snapshot_us", "snapshot", time.Microsecond)
	per("kgexplore.barsof_us", "render", time.Microsecond)
	per("server.marshal_us", "marshal", time.Microsecond)
	per("ctj.exact_ms", "ctj.exact", time.Millisecond)
	per("lftj.exact_ms", "lftj.exact", time.Millisecond)
	per("baseline.exact_ms", "baseline.exact", time.Millisecond)

	// Online requests the backend answered on its exact route instead:
	// un-owned DISTINCT on shards, every DISTINCT on a live store.
	per("backend.exact_route_ms", "exact.route", time.Millisecond)
	if rp.onlineCharts > 0 {
		res.set("backend.exact_route_frac", float64(rp.fallbacks)/float64(rp.onlineCharts), rp.onlineCharts)
	}
	walkNS, distinctNS := "core.aj_walk_ns", "core.aj_walk_ns_distinct"
	switch {
	case rp.sds != nil:
		walkNS, distinctNS = "shard.walk_ns", "shard.walk_ns_distinct"
	case rp.lds != nil:
		walkNS = "live.walk_ns"
		res.set("live.reject_frac", float64(rp.rejected)/float64(max(rp.walks, 1)), int(rp.walks))
		if rp.totalBars > 0 {
			res.set("live.ci_coverage", float64(rp.coveredBars)/float64(rp.totalBars), rp.totalBars)
		}
	}
	if plain := rp.walks - rp.distinctWalks; plain > 0 {
		res.set(walkNS, float64(rp.driveNS-rp.distinctDriveNS)/float64(plain), int(plain))
	}
	if rp.distinctWalks > 0 {
		res.set(distinctNS, float64(rp.distinctDriveNS)/float64(rp.distinctWalks), int(rp.distinctWalks))
	}
	if rp.walks > 0 {
		res.set("core.walks_per_s", float64(rp.walks)/(float64(rp.driveNS)/1e9), int(rp.walks))
		if rp.tipWalks > 0 {
			res.set("core.tip_frac", float64(rp.tipped)/float64(rp.tipWalks), int(rp.tipWalks))
		}
		res.set("core.reject_frac", float64(rp.rejected)/float64(rp.walks), int(rp.walks))
	}
	if rp.cacheHits+rp.cacheMisses > 0 {
		res.set("ctj.cache_hit_frac", float64(rp.cacheHits)/float64(rp.cacheHits+rp.cacheMisses), int(rp.cacheHits+rp.cacheMisses))
	}
	if n := len(rp.walksToCI10); n > 0 {
		res.set("core.walks_to_ci10_gmean", clampedGeoMean(rp.walksToCI10, 1, math.MaxFloat64), n)
		res.set("core.converged_frac", float64(rp.converged)/float64(n), n)
	}
}

// probes are the micro-benchmarks of the ladder's lower rungs, on this
// workload's fixture and on the pool's own queries.
func probes(ctx context.Context, w *workload, fx *fixture, pl *pool, sds *kgexplore.ShardedDataset, res *runResult) {
	st := fx.store
	rng := rand.New(rand.NewSource(1))
	spo := st.Triples(index.SPO)
	const n = 200_000
	keys := make([]rdf.Triple, n)
	for i := range keys {
		keys[i] = spo[rng.Intn(len(spo))] // keys drawn from fixture triples, so every probe hits
	}
	var sink int
	timeNS := func(name string, f func(t rdf.Triple)) {
		start := time.Now()
		for _, t := range keys {
			f(t)
		}
		res.set(name, float64(time.Since(start))/n, n)
	}
	timeNS("index.span_l1_ns", func(t rdf.Triple) { sink += st.SpanL1(index.SPO, t.S).Len() })
	timeNS("index.span_l2_ns", func(t rdf.Triple) { sink += st.SpanL2(index.POS, t.P, t.O).Len() })
	full := st.FullSpan(index.PSO)
	timeNS("index.sample_ns", func(rdf.Triple) { sink += int(st.Sample(index.PSO, full, rng).S) })
	timeNS("index.contains_ns", func(t rdf.Triple) {
		if st.Contains(t) {
			sink++
		}
	})
	_ = sink

	// The pool's first COUNT queries, compiled once.
	var plans []*query.Plan
	var sizes []float64
	for i := 0; i < len(pl.Steps) && len(plans) < probeQueries; i++ {
		parsed, err := sparql.Parse(pl.Steps[i].Count, st.Dict())
		if err != nil {
			continue
		}
		if p, err := query.Compile(parsed.Query); err == nil {
			plans = append(plans, p)
			var size float64
			for _, v := range pl.Steps[i].CountTruth {
				size += v
			}
			sizes = append(sizes, size)
		}
	}
	est := card.NewSpanStats(st)
	var qerrs []float64
	var wjWalks, wjRejected, parWalks, scatterWalks int64
	var wjNS, mergeNS, parNS, driveNS, bareNS, scatterNS time.Duration
	for i, p := range plans {
		if sizes[i] > 0 {
			if e := est.JoinSize(p).Value; e > 0 {
				qerrs = append(qerrs, math.Max(e/sizes[i], sizes[i]/e))
			}
		}
		// Wander Join: the walk with no tipping and no finisher.
		r := wj.New(st, p, int64(i)+1)
		start := time.Now()
		exec.RunN(r, roundWalks)
		wjNS += time.Since(start)
		snapshot := r.Snapshot()
		wjWalks, wjRejected = wjWalks+snapshot.Walks, wjRejected+snapshot.Rejected
		a, b := r.Acc().Clone(), r.Acc().Clone()
		start = time.Now()
		a.Merge(b)
		mergeNS += time.Since(start)
		// Audit Join on both cores.
		opts := core.Options{Threshold: core.DefaultThreshold, Seed: int64(i) + 1}
		start = time.Now()
		out, err := core.RunParallel(ctx, st, p, opts, 2, exec.Options{MaxWalks: 4 * roundWalks, Batch: 128})
		if err == nil {
			parNS += time.Since(start)
			parWalks += out.Walks
		}
		// The same on both shards, through RunScatter's worker pools.
		if sds != nil {
			start = time.Now()
			out, _, err := sds.RunScatter(ctx, p, kgexplore.ShardScatterOptions{Seed: int64(i) + 1, Threshold: core.DefaultThreshold},
				exec.Options{MaxWalks: 4 * roundWalks, Batch: 128})
			if err == nil {
				scatterNS += time.Since(start)
				scatterWalks += out.Walks
			}
		}
		// exec.Drive against the bare step loop, same seed, same walks; the
		// bare loop runs before and after, so warm-up favours neither.
		bare := func() {
			start := time.Now()
			exec.RunN(core.New(st, p, opts), roundWalks)
			bareNS += time.Since(start) / 2
		}
		bare()
		start = time.Now()
		_, _ = exec.Drive(ctx, core.New(st, p, opts), exec.Options{MaxWalks: roundWalks, Batch: 128}) // a cancelled context only shortens the probe
		driveNS += time.Since(start)
		bare()
	}
	if k := len(plans); k > 0 {
		res.set("wj.walk_ns", float64(wjNS)/float64(wjWalks), int(wjWalks))
		res.set("wj.reject_frac", float64(wjRejected)/float64(wjWalks), int(wjWalks))
		res.set("wj.acc_merge_us", float64(mergeNS)/float64(k)/1e3, k)
		res.set("exec.drive_overhead_frac", float64(driveNS-bareNS)/float64(bareNS), k)
		if parWalks > 0 {
			res.set("core.parallel_walks_per_s_w2", float64(parWalks)/parNS.Seconds(), int(parWalks))
		}
		if scatterWalks > 0 {
			res.set("shard.scatter_walks_per_s", float64(scatterWalks)/scatterNS.Seconds(), int(scatterWalks))
		}
	}
	if v, ok := tailPercentile(qerrs, 50, 0); ok {
		res.set("card.qerror_p50", v, len(qerrs))
	}
	if v, ok := tailPercentile(qerrs, 90, 0); ok {
		res.set("card.qerror_p90", v, len(qerrs))
	}
	setupLadder(fx, w, res)
}

// setupLadder times the steps of set-up one by one, in-process: what setup_s
// is made of.
func setupLadder(fx *fixture, w *workload, res *runResult) {
	start := time.Now()
	g, _, err := kggen.Generate(kggen.DBpediaSim(w.Scale))
	if err != nil {
		return
	}
	res.set("kggen.generate_s", time.Since(start).Seconds(), 1)
	start = time.Now()
	st := index.Build(g)
	res.set("index.build_s", time.Since(start).Seconds(), 1)
	res.set("index.bytes", float64(st.EstimateBytes()), 1)
	path := filepath.Join(filepath.Dir(fx.path), "ladder.kgs")
	defer os.Remove(path)
	start = time.Now()
	if err := snap.WriteFile(path, st, &snap.Meta{Source: "bench ladder"}); err != nil {
		return
	}
	res.set("snap.write_s", time.Since(start).Seconds(), 1)
	if fi, err := os.Stat(path); err == nil {
		res.set("snap.file_bytes", float64(fi.Size()), 1)
	}
	for name, mode := range map[string]snap.Mode{"snap.load_mmap_ms": snap.ModeAuto, "snap.load_copy_ms": snap.ModeCopy} {
		start = time.Now()
		l, err := snap.LoadFile(path, snap.Options{Mode: mode})
		if err != nil {
			continue
		}
		res.set(name, float64(time.Since(start))/1e6, 1)
		l.Close()
	}
}

// liveProbes loads the fixture as a live dataset with a WAL, applies every
// ingest batch of the plan (timing each), measures a compaction on a second
// copy, and leaves rp.lds holding the quiesced overlay the reads replay over.
func liveProbes(d *dirs, fx *fixture, p *plan, rp *replayer, res *runResult) error {
	var batches []*request
	for _, r := range append(append([]*request(nil), p.Window...), p.Tail...) {
		if r.Kind == "ingest" {
			batches = append(batches, r)
		}
	}
	apply := func(walPath string) (*kgexplore.LiveDataset, []float64, error) {
		lds, err := kgexplore.LoadLiveDataset(fx.path, false, walPath, false)
		if err != nil {
			return nil, nil, err
		}
		var us []float64
		for _, b := range batches {
			start := time.Now()
			if _, err := lds.IngestNTriples(b.Add, b.Delete); err != nil {
				lds.Close()
				return nil, nil, err
			}
			us = append(us, float64(time.Since(start))/1e3)
		}
		return lds, us, nil
	}
	wal := filepath.Join(filepath.Dir(fx.path), "trace.wal")
	defer os.Remove(wal)
	lds, withWAL, err := apply(wal)
	if err != nil {
		return err
	}
	rp.lds = lds
	st := lds.Stats()
	res.set("live.apply_batch_us", median(withWAL), len(withWAL))
	res.set("live.wal_bytes_per_op", float64(st.WALBytes)/float64(len(batches)*batchOps), len(batches)*batchOps)

	bare, noWAL, err := apply("")
	if err != nil {
		return err
	}
	defer bare.Close()
	res.set("live.wal_append_us", median(withWAL)-median(noWAL), len(noWAL))
	start := time.Now()
	if _, err := bare.CompactInMemory(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	res.set("live.compact_s", time.Since(start).Seconds(), 1)
	return nil
}
