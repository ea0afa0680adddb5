package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"kgexplore/internal/card"
	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/testkit"
	"kgexplore/internal/wj"
)

// lazyProbs makes a session's materialize-or-lazy decision come out lazy, as
// it does for joins past a million paths: the distinct table never exists, so
// a distinct plan can only turn exact through the sweep.
type lazyProbs struct{ card.Estimator }

func (lazyProbs) JoinSize(*query.Plan) query.Est { return query.Est{Value: 1e12} }

// driveToExact steps r until it is exact, failing the test if it is not after
// limit steps.
func driveToExact(t *testing.T, label string, r *Runner, limit int) {
	t.Helper()
	for i := 0; i < limit && !r.Exact(); i++ {
		r.Step()
	}
	if !r.Exact() {
		t.Fatalf("%s: not exact after %d steps (%d walks)", label, limit, r.Walks())
	}
}

// checkExact demands the CTJ answer from an exact runner's snapshot: whole
// numbers bit for bit, SUM and AVG to 1e-9 relative, every interval zero.
func checkExact(t *testing.T, label string, q *query.Query, snap wj.Result, want map[rdf.ID]float64) {
	t.Helper()
	if !snap.Exact {
		t.Fatalf("%s: snapshot of an exact runner is not marked Exact", label)
	}
	if len(snap.Estimates) != len(want) {
		t.Errorf("%s: %d groups, CTJ has %d", label, len(snap.Estimates), len(want))
	}
	integral := q.Agg == query.AggCount
	for a, w := range want {
		got, ok := snap.Estimates[a]
		if !ok {
			t.Errorf("%s: group %d missing (CTJ %v)", label, a, w)
			continue
		}
		if integral && got != w {
			t.Errorf("%s: group %d = %v, CTJ %v (counts must match exactly)", label, a, got, w)
		}
		if !integral && math.Abs(got-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s: group %d = %v, CTJ %v", label, a, got, w)
		}
		if ci, ok := snap.CI[a]; !ok || ci != 0 {
			t.Errorf("%s: group %d CI = %v (present %v), want 0", label, a, ci, ok)
		}
	}
}

// TestExactMatchesCTJProperty: over random graphs, every aggregate, grouped
// and not, plain, filtered and fixed-length-path shapes, private and shared
// caches, a runner driven to Exact reports ctj.Evaluate's answer — through
// the sweep, through the distinct table, and (the second runner on each
// shared cache) through the published result.
func TestExactMatchesCTJProperty(t *testing.T) {
	type shape struct {
		name     string
		preds    func(p0, p1 rdf.ID) []rdf.ID
		filtered bool
	}
	shapes := []shape{
		{"chain", func(p0, p1 rdf.ID) []rdf.ID { return []rdf.ID{p0, p1} }, false},
		{"filter", func(p0, p1 rdf.ID) []rdf.ID { return []rdf.ID{p0, p1} }, true},
		{"path", func(p0, p1 rdf.ID) []rdf.ID { return []rdf.ID{p0, p0, p1} }, false}, // ?x p0{2}/p1 ?y
		{"single", func(p0, p1 rdf.ID) []rdf.ID { return []rdf.ID{p1} }, false},
	}
	aggs := []struct {
		name     string
		agg      query.AggFunc
		distinct bool
		lazy     bool // keep the distinct table from materializing
	}{
		{"count", query.AggCount, false, false},
		{"sum", query.AggSum, false, false},
		{"avg", query.AggAvg, false, false},
		{"distinct-table", query.AggCount, true, false},
		{"distinct-sweep", query.AggCount, true, true},
	}
	sources := map[ExactSource]int{}
	for seed := int64(1); seed <= 6; seed++ {
		g := testkit.RandomGraph(seed, 25, 3, 15, 300)
		st := index.Build(g)
		const p0, p1 = rdf.ID(25), rdf.ID(26)
		for _, sh := range shapes {
			for _, ag := range aggs {
				for _, grouped := range []bool{true, false} {
					q := testkit.ChainQuery(g, sh.preds(p0, p1), grouped, ag.distinct)
					q.Agg = ag.agg
					if sh.filtered {
						q.Filters = []query.Filter{{Op: query.CmpGt, L: query.EVar(q.Beta), R: query.ENum(4)}}
					}
					pl, err := query.Compile(q)
					if err != nil {
						t.Fatal(err)
					}
					want := ctj.Evaluate(st, pl)
					for _, shared := range []bool{false, true} {
						label := fmt.Sprintf("seed %d %s %s grouped=%v shared=%v", seed, sh.name, ag.name, grouped, shared)
						opts := Options{Threshold: DefaultThreshold, Seed: seed}
						if ag.lazy {
							opts.Estimator = lazyProbs{card.NewSpanStats(st)}
						}
						if shared {
							opts.Shared = ctj.NewSharedCache()
						}
						r := New(st, pl, opts)
						driveToExact(t, label, r, 20_000)
						checkExact(t, label, q, r.Snapshot(), want)
						sources[r.ExactSource()]++
						if ag.lazy && r.ExactSource() != ExactSweep {
							t.Errorf("%s: exact by %v, want the sweep (the table must not exist)", label, r.ExactSource())
						}
						if !shared {
							continue
						}
						// The next runner on the warm cache starts exact.
						opts.Seed++
						next := New(st, pl, opts)
						if !next.Exact() || next.Walks() != 0 {
							t.Fatalf("%s: runner on the warm cache not exact at construction", label)
						}
						checkExact(t, label+" (warm)", q, next.Snapshot(), want)
						sources[next.ExactSource()]++
					}
				}
			}
		}
	}
	for _, src := range []ExactSource{ExactSweep, ExactTable, ExactPublished} {
		if sources[src] == 0 {
			t.Errorf("no runner became exact by %v; the property does not cover that route", src)
		}
	}
}

// accDigest fingerprints a walk accumulator bit for bit.
func accDigest(c *wj.Acc) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(c.N))
	put(uint64(c.Rejected))
	groups := make([]rdf.ID, 0, len(c.Sum))
	for a := range c.Sum {
		groups = append(groups, a)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, a := range groups {
		put(uint64(a))
		put(math.Float64bits(c.Sum[a]))
		put(math.Float64bits(c.SumSq[a]))
		put(math.Float64bits(c.Den[a]))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestSeededSampleUntouched pins the seeded sample to the commit before the
// finite-population finish existed: Acc() after k walks — before the sweep's
// trigger, while it runs and long after the runner turned exact — hashes to
// what that commit's runner produced. The finish rides beside the sample and
// must never move it. (The digests were recorded by running this test's body
// at ff4a843.)
func TestSeededSampleUntouched(t *testing.T) {
	g := testkit.RandomGraph(11, 30, 4, 20, 400)
	st := index.Build(g)
	const p0, p1, p2 = rdf.ID(30), rdf.ID(31), rdf.ID(32)
	mk := func(preds []rdf.ID, distinct bool, agg query.AggFunc) *query.Query {
		q := testkit.ChainQuery(g, preds, true, distinct)
		q.Agg = agg
		return q
	}
	filtered := mk([]rdf.ID{p0, p1}, false, query.AggCount)
	filtered.Filters = []query.Filter{{Op: query.CmpGt, L: query.EVar(filtered.Beta), R: query.ENum(5)}}
	cases := []struct {
		name string
		q    *query.Query
		thr  float64
	}{
		{"count", mk([]rdf.ID{p0, p1, p2}, false, query.AggCount), DefaultThreshold},
		{"count-lowthr", mk([]rdf.ID{p0, p1, p2}, false, query.AggCount), 3},
		{"distinct", mk([]rdf.ID{p0, p1, p2}, true, query.AggCount), DefaultThreshold},
		{"sum", mk([]rdf.ID{p0, p1}, false, query.AggSum), DefaultThreshold},
		{"avg", mk([]rdf.ID{p0, p1}, false, query.AggAvg), DefaultThreshold},
		{"filter", filtered, DefaultThreshold},
	}
	exact := 0
	for _, tc := range cases {
		pl, err := query.Compile(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, shared := range []bool{false, true} {
			opts := Options{Threshold: tc.thr, Seed: 2022}
			cache := "private"
			if shared {
				opts.Shared = ctj.NewSharedCache()
				cache = "shared"
			}
			r := New(st, pl, opts)
			for _, k := range []int{40, 400, 4000} {
				exec.RunN(r, k-int(r.Walks()))
				key := fmt.Sprintf("%s/%s@%d", tc.name, cache, k)
				if got := accDigest(r.Acc()); got != sampleGolden[key] {
					t.Errorf("%s: sample digest %s, recorded %q", key, got, sampleGolden[key])
				}
			}
			if r.Exact() {
				exact++
			}
		}
	}
	if exact == 0 {
		t.Error("no case turned exact: the test does not cover the sample after exactness")
	}
}

// sampleGolden holds accDigest of the seeded accumulators as ff4a843 produced
// them, keyed case/cache@walks.
var sampleGolden = map[string]string{
	"count/private@40":          "5f427725d7db47ae",
	"count/private@400":         "1bc264e6330df3a2",
	"count/private@4000":        "2059ceb43d248c47",
	"count/shared@40":           "5f427725d7db47ae",
	"count/shared@400":          "1bc264e6330df3a2",
	"count/shared@4000":         "2059ceb43d248c47",
	"count-lowthr/private@40":   "b389a99852607b5d",
	"count-lowthr/private@400":  "dc29e81f2644c5bc",
	"count-lowthr/private@4000": "cf81b981ab7984b2",
	"count-lowthr/shared@40":    "b389a99852607b5d",
	"count-lowthr/shared@400":   "dc29e81f2644c5bc",
	"count-lowthr/shared@4000":  "cf81b981ab7984b2",
	"distinct/private@40":       "4a3aff62d24f1828",
	"distinct/private@400":      "55ad4f4a2013f4cd",
	"distinct/private@4000":     "807212042f159767",
	"distinct/shared@40":        "4a3aff62d24f1828",
	"distinct/shared@400":       "55ad4f4a2013f4cd",
	"distinct/shared@4000":      "807212042f159767",
	"sum/private@40":            "091be85dd80bb3b9",
	"sum/private@400":           "ba27310a03069504",
	"sum/private@4000":          "a8387a7c2ca5f41e",
	"sum/shared@40":             "091be85dd80bb3b9",
	"sum/shared@400":            "ba27310a03069504",
	"sum/shared@4000":           "a8387a7c2ca5f41e",
	"avg/private@40":            "686a90db2cf20696",
	"avg/private@400":           "75661502a754c3ae",
	"avg/private@4000":          "eb46ca204887cb5c",
	"avg/shared@40":             "686a90db2cf20696",
	"avg/shared@400":            "75661502a754c3ae",
	"avg/shared@4000":           "eb46ca204887cb5c",
	"filter/private@40":         "a0a0cf8402963a5c",
	"filter/private@400":        "17185e0c7bd6e16c",
	"filter/private@4000":       "84e52a1f3ccea85f",
	"filter/shared@40":          "a0a0cf8402963a5c",
	"filter/shared@400":         "17185e0c7bd6e16c",
	"filter/shared@4000":        "84e52a1f3ccea85f",
}

// hubFixture is a two-step chain ?x p ?y . ?y q ?z whose root span has one
// hub: a single y with 60 q-edges among 39 roots whose y has two. At
// threshold 10 the hub root does not tip and every other root does.
func hubFixture(t *testing.T) (*index.Store, *query.Plan, map[rdf.ID]float64) {
	t.Helper()
	g := rdf.NewGraph()
	p, q := g.Dict.InternIRI("p"), g.Dict.InternIRI("q")
	id := func(s string) rdf.ID { return g.Dict.InternIRI(s) }
	for i := 0; i < 40; i++ {
		x, y := id(fmt.Sprintf("x%d", i)), id(fmt.Sprintf("y%d", i))
		g.AddEncoded(rdf.Triple{S: x, P: p, O: y})
		fan := 2
		if i == 17 {
			fan = 60
		}
		for k := 0; k < fan; k++ {
			g.AddEncoded(rdf.Triple{S: y, P: q, O: id(fmt.Sprintf("z%d_%d", i, k))})
		}
	}
	qq := &query.Query{Alpha: query.NoVar, Beta: 2, Patterns: []query.Pattern{
		{S: query.V(0), P: query.C(p), O: query.V(1)},
		{S: query.V(1), P: query.C(q), O: query.V(2)},
	}}
	pl, err := query.Compile(qq)
	if err != nil {
		t.Fatal(err)
	}
	st := index.Build(g)
	return st, pl, ctj.Evaluate(st, pl)
}

// TestSweepAbandonsAtHubRoot: a span with one root that does not tip never
// claims exactness, gives the sweep up at most once — by the judge when no
// walk met the hub in time, silently when one did — publishes that verdict
// for later runners, and leaves the estimator unbiased.
func TestSweepAbandonsAtHubRoot(t *testing.T) {
	st, pl, truth := hubFixture(t)
	want := truth[GlobalGroup]
	const seeds, walks = 200, 400
	var sum, sumSq float64
	abandoned := 0
	for s := int64(1); s <= seeds; s++ {
		sc := ctj.NewSharedCache()
		r := New(st, pl, Options{Threshold: 10, Seed: s, Shared: sc})
		exec.RunN(r, walks)
		if r.Exact() || r.Snapshot().Exact {
			t.Fatalf("seed %d: claims an exact answer over a span it cannot sweep", s)
		}
		d := r.TipDiag()
		if d.SweepAbandoned > 1 || d.ExactSweep+d.ExactTable+d.ExactPublished != 0 {
			t.Fatalf("seed %d: diagnostics %+v", s, d)
		}
		abandoned += int(d.SweepAbandoned)
		if w := sc.Whole(); w == nil || w.Values != nil {
			t.Fatalf("seed %d: the cannot-sweep verdict was not published: %+v", s, w)
		}
		// A later runner on the cache adopts the verdict and never starts.
		next := New(st, pl, Options{Threshold: 10, Seed: s + 1000, Shared: sc})
		exec.RunN(next, walks)
		if nd := next.TipDiag(); next.Exact() || nd.SweepAbandoned != 0 {
			t.Fatalf("seed %d: runner after the verdict swept anyway: %+v", s, nd)
		}
		x := r.Snapshot().Estimates[GlobalGroup]
		sum += x
		sumSq += x * x
	}
	// 40 roots, 40 walks before the trigger: the hub goes unseen (39/40)^40 =
	// 36 % of the time, and only then does the judge have to find it.
	if abandoned == 0 || abandoned == seeds {
		t.Errorf("%d of %d runs abandoned a started sweep; want some but not all", abandoned, seeds)
	}
	mean := sum / seeds
	se := math.Sqrt(math.Max(sumSq/seeds-mean*mean, 0) / (seeds - 1))
	if d := math.Abs(mean - want); d > 4*se {
		t.Errorf("mean of %d seeds %.2f vs exact %.0f: %.1f standard errors", seeds, mean, want, d/se)
	}
}

// exactFixture is a small grouped COUNT chain every runner sweeps within a
// few hundred walks.
func exactFixture(t *testing.T) (*index.Store, *query.Plan, map[rdf.ID]float64) {
	t.Helper()
	g := testkit.RandomGraph(5, 25, 3, 15, 300)
	q := testkit.ChainQuery(g, []rdf.ID{25, 26}, true, false)
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	st := index.Build(g)
	return st, pl, ctj.Evaluate(st, pl)
}

// TestDriversTerminateOnExactStepper: every driving loop comes back from a
// stepper that turns exact under it. Drive ends early with exactly one
// snapshot, the Final one; RunN performs its count (an exact runner keeps
// extending its sample); RunParallel, the union and the stratified drivers
// keep estimating from the accumulators and run to their walk caps.
func TestDriversTerminateOnExactStepper(t *testing.T) {
	st, pl, truth := exactFixture(t)
	opts := Options{Threshold: DefaultThreshold, Seed: 9}

	for _, xo := range []exec.Options{
		{MaxWalks: 1 << 20},
		{Budget: time.Minute, Interval: time.Hour},
		{}, // no limit at all: only exactness ends this drive
	} {
		r := New(st, pl, opts)
		var events []exec.Progress
		xo.OnSnapshot = func(p exec.Progress) bool { events = append(events, p); return true }
		rep, err := exec.Drive(context.Background(), r, xo)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Final.Exact || len(events) != 1 || !events[0].Final || !events[0].Snapshot.Exact {
			t.Fatalf("Drive(%+v): final exact=%v, %d events %+v", xo, rep.Final.Exact, len(events), events)
		}
		if rep.Walks >= 1<<20 || rep.Elapsed > 30*time.Second {
			t.Errorf("Drive did not end early: %d walks in %v", rep.Walks, rep.Elapsed)
		}
		checkExact(t, "Drive", pl.Query, rep.Final, truth)
		// Driving an already exact runner returns at once, Final event included.
		events = nil
		rep, err = exec.Drive(context.Background(), r, xo)
		if err != nil || rep.Walks != 0 || len(events) != 1 || !events[0].Final {
			t.Errorf("second Drive: %d walks, %d events, err %v", rep.Walks, len(events), err)
		}
	}

	r := New(st, pl, opts)
	exec.RunN(r, 5000)
	if r.Walks() != 5000 || !r.Exact() {
		t.Errorf("RunN: %d walks, exact %v", r.Walks(), r.Exact())
	}

	res, err := RunParallel(context.Background(), st, pl, opts, 3, exec.Options{MaxWalks: 2000})
	if err != nil || res.Walks != 6000 || res.Exact {
		t.Errorf("RunParallel: %d walks, exact %v, err %v; want the full 6000-walk sample", res.Walks, res.Exact, err)
	}

	u := exec.NewUnion([]exec.AccStepper{New(st, pl, opts), New(st, pl, Options{Threshold: DefaultThreshold, Seed: 10})}, nil)
	rep, err := exec.Drive(context.Background(), u, exec.Options{MaxWalks: 4000})
	if err != nil || rep.Walks != 4000 || rep.Final.Exact {
		t.Errorf("union: %d walks, exact %v, err %v", rep.Walks, rep.Final.Exact, err)
	}
	for a, w := range truth { // two identical branches: the union sums to twice the answer
		if got := rep.Final.Estimates[a]; math.Abs(got-2*w) > 0.5*math.Max(1, 2*w) {
			t.Errorf("union group %d: %v, want about %v", a, got, 2*w)
		}
	}

	s := NewStratified(st, pl, StratifiedOptions{Options: opts})
	rep, err = exec.Drive(context.Background(), s, exec.Options{MaxWalks: 4000})
	if err != nil || rep.Walks != 4000 || rep.Final.Exact {
		t.Errorf("stratified: %d walks, exact %v, err %v", rep.Walks, rep.Final.Exact, err)
	}
}

// TestSharedCacheExactPublishRace: two runners sweep one shared cache at the
// same time and both publish; whichever wins, both report the CTJ answer, and
// a third runner created afterwards is exact at its first snapshot. Run under
// -race.
func TestSharedCacheExactPublishRace(t *testing.T) {
	st, pl, truth := exactFixture(t)
	for round := 0; round < 20; round++ {
		sc := ctj.NewSharedCache()
		var wg sync.WaitGroup
		snaps := make([]wj.Result, 2)
		for w := range snaps {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := New(st, pl, Options{Threshold: DefaultThreshold, Seed: int64(100*round + w), Shared: sc})
				for i := 0; i < 50_000 && !r.Exact(); i++ {
					r.Step()
				}
				snaps[w] = r.Snapshot()
			}(w)
		}
		wg.Wait()
		for w, snap := range snaps {
			checkExact(t, fmt.Sprintf("round %d racer %d", round, w), pl.Query, snap, truth)
		}
		if w := sc.Whole(); w == nil || w.Values == nil {
			t.Fatalf("round %d: nothing published", round)
		}
		third := New(st, pl, Options{Threshold: DefaultThreshold, Seed: 7, Shared: sc})
		snap := third.Snapshot()
		checkExact(t, fmt.Sprintf("round %d third", round), pl.Query, snap, truth)
		if snap.Walks != 0 || third.ExactSource() != ExactPublished {
			t.Errorf("round %d: third runner walked %d, exact by %v", round, snap.Walks, third.ExactSource())
		}
	}
}

// TestStratumRunnerNeverExact: a runner restricted to one root stratum
// estimates that stratum's total, which no whole-query answer describes — it
// must ignore even a published one.
func TestStratumRunnerNeverExact(t *testing.T) {
	st, pl, _ := exactFixture(t)
	sc := ctj.NewSharedCache()
	driveToExact(t, "publisher", New(st, pl, Options{Threshold: DefaultThreshold, Seed: 1, Shared: sc}), 50_000)
	static := pl.ResolveStatic(st)
	strata := index.StratifyRoots(st, pl.Steps[0].Order, static[0].Span, 4)
	if len(strata) == 0 {
		t.Skip("fixture has a single root bucket")
	}
	r := New(st, pl, Options{Threshold: DefaultThreshold, Seed: 2, Shared: sc, Root: &strata[0]})
	exec.RunN(r, 2000)
	if r.Exact() || r.Snapshot().Exact {
		t.Fatal("a stratum runner adopted the whole-query answer")
	}
}
