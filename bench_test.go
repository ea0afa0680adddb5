// Benchmarks regenerating the paper's tables and figures (one benchmark per
// artifact; see DESIGN.md §4 for the experiment index) plus ablations and
// microbenchmarks of the substrates.
//
// The figure benchmarks run the experiment harness at a reduced scale so the
// suite completes on one core; `cmd/kgbench -full` runs the paper's 9s×1s
// protocol. BenchmarkSampleTime* are directly comparable to the paper's
// ~2.5µs-per-walk figure (§V-C).
package kgexplore

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kgexplore/internal/baseline"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/experiments"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/lftj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
	"kgexplore/internal/workload"
)

// benchCfg is the reduced-scale protocol used by the figure benchmarks.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Scale = 0.01
	cfg.Paths = 2
	cfg.MaxSteps = 3
	cfg.Budget = 40 * time.Millisecond
	cfg.Interval = 20 * time.Millisecond
	cfg.OrderTrials = 100
	return cfg
}

// Shared fixture: a small DBpedia-sim dataset with a selective depth-3
// query, built once.
var fixture struct {
	once  sync.Once
	graph *rdf.Graph
	store *index.Store
	plan  *query.Plan // distinct, grouped, depth 3
	exact map[rdf.ID]float64
}

func loadFixture(b *testing.B) {
	fixture.once.Do(func() {
		g, schema, err := kggen.Generate(kggen.DBpediaSim(0.02))
		if err != nil {
			panic(err)
		}
		st := index.Build(g)
		// Root -> largest subclass -> popular property -> object classes.
		state := explore.Root(schema)
		subq, err := state.Query(explore.OpSubclass)
		if err != nil {
			panic(err)
		}
		pl, err := query.Compile(subq)
		if err != nil {
			panic(err)
		}
		charts := ctj.Evaluate(st, pl)
		var topC rdf.ID
		best := -1.0
		for id, n := range charts {
			if n > best || (n == best && id < topC) {
				topC, best = id, n
			}
		}
		state, err = state.Select(explore.OpSubclass, topC)
		if err != nil {
			panic(err)
		}
		// Most popular domain property.
		var topP rdf.ID
		bestN := -1
		it := st.Level(index.PSO, st.FullSpan(index.PSO), 0)
		for it.Next() {
			k := it.Key()
			if k == schema.Type || k == schema.SubClassOf || k == schema.TypeClosure {
				continue
			}
			if n := it.SubSpan().Len(); n > bestN {
				topP, bestN = k, n
			}
		}
		state, err = state.Select(explore.OpOutProp, topP)
		if err != nil {
			panic(err)
		}
		q, err := state.Query(explore.OpObject)
		if err != nil {
			panic(err)
		}
		plan, err := query.Compile(q)
		if err != nil {
			panic(err)
		}
		fixture.graph = g
		fixture.store = st
		fixture.plan = plan
		fixture.exact = ctj.Evaluate(st, plan)
	})
	if len(fixture.exact) == 0 {
		b.Fatal("fixture query has no results")
	}
}

// --- Table I ---------------------------------------------------------------

// BenchmarkTable1DatasetInfo regenerates Table I (dataset information).
func BenchmarkTable1DatasetInfo(b *testing.B) {
	loadFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := kggen.DatasetInfo("dbpedia-sim", fixture.graph)
		if info.Triples == 0 {
			b.Fatal("empty info")
		}
	}
}

// BenchmarkDatasetGenerate measures end-to-end synthetic dataset generation
// (including closure materialization), the offline phase of Table I.
func BenchmarkDatasetGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, err := kggen.Generate(kggen.DBpediaSim(0.01))
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

// --- Figures 8-11 ----------------------------------------------------------

// BenchmarkFig8SelectedQueries regenerates Fig. 8 (six selected queries,
// exact runtimes + MAE series) at reduced scale.
func BenchmarkFig8SelectedQueries(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(io.Discard, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig9AllQueriesDistinct regenerates Fig. 9 (all queries with
// DISTINCT, Tukey stats per step).
func BenchmarkFig9AllQueriesDistinct(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells, err := s.FigAllQueries(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig10AllQueriesNoDistinct regenerates Fig. 10 (all queries,
// plain COUNT).
func BenchmarkFig10AllQueriesNoDistinct(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells, err := s.FigAllQueries(io.Discard, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig11RejectionRates regenerates Fig. 11 (per-query rejection
// rates, WJ vs AJ).
func BenchmarkFig11RejectionRates(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := s.Fig11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- §V-C sample times (S1) ------------------------------------------------

// BenchmarkSampleTimeWJ measures one Wander Join walk; ns/op is the paper's
// per-sample time (~2.5µs on their hardware).
func BenchmarkSampleTimeWJ(b *testing.B) {
	loadFixture(b)
	r := wj.New(fixture.store, fixture.plan, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkSampleTimeAJ measures one Audit Join walk including tipping-point
// checks, partial exact computations and the cached Pr(a,b) lookups.
func BenchmarkSampleTimeAJ(b *testing.B) {
	loadFixture(b)
	r := core.New(fixture.store, fixture.plan, core.Options{Threshold: core.DefaultThreshold, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkSampleTimeWJAlloc measures the steady-state allocation profile of
// a Wander Join walk: the runner is warmed first so one-time growth (the
// accumulator maps, the distinct dedup set) is excluded and allocs/op must
// read 0 — the walk loop itself allocates nothing.
func BenchmarkSampleTimeWJAlloc(b *testing.B) {
	loadFixture(b)
	r := wj.New(fixture.store, fixture.plan, 1)
	for i := 0; i < 20_000; i++ {
		r.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkSampleTimeAJAlloc is the Audit Join counterpart: warmed past the
// CTJ cache build-up so allocs/op reflects only the recurring walk work.
func BenchmarkSampleTimeAJAlloc(b *testing.B) {
	loadFixture(b)
	r := core.New(fixture.store, fixture.plan, core.Options{Threshold: core.DefaultThreshold, Seed: 1})
	for i := 0; i < 20_000; i++ {
		r.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

// BenchmarkAuditJoinTimeToExact measures a cold runner's whole way to an
// exact answer through the finite-population finish: the fixture's
// COUNT(DISTINCT) plan, exact as soon as its first finished walk has
// materialized the probability table, and the same join as a plain COUNT,
// which must walk once per root and then sweep the span. walks/op is the
// sample drawn on the way.
func BenchmarkAuditJoinTimeToExact(b *testing.B) {
	loadFixture(b)
	plain := *fixture.plan.Query
	plain.Distinct = false
	countPlan, err := query.Compile(&plain)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		pl   *query.Plan
		by   core.ExactSource
	}{
		{"distinct-table", fixture.plan, core.ExactTable},
		{"count-sweep", countPlan, core.ExactSweep},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var walks int64
			for i := 0; i < b.N; i++ {
				r := core.New(fixture.store, bc.pl, core.Options{Threshold: core.DefaultThreshold, Seed: int64(i) + 1})
				for !r.Exact() && r.Walks() < 1<<20 {
					r.Step()
				}
				if r.ExactSource() != bc.by {
					b.Fatalf("exact by %q after %d walks, want %q", r.ExactSource(), r.Walks(), bc.by)
				}
				walks += r.Walks()
			}
			b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
		})
	}
}

// --- Ablations -------------------------------------------------------------

// pathCountPlan builds a 3-hop path-counting query over the most popular
// property: ?a p ?b . ?b p ?c . ?c p ?d, COUNT(?d). The Zipfian object hubs
// make many prefixes reconverge on the same join values — the regime of
// Example IV.1, where LFTJ recomputes each shared suffix and CTJ serves it
// from the cache.
func pathCountPlan(b *testing.B) *query.Plan {
	loadFixture(b)
	st := fixture.store
	var topP rdf.ID
	bestN := -1
	it := st.Level(index.PSO, st.FullSpan(index.PSO), 0)
	for it.Next() {
		k := it.Key()
		if term := fixture.graph.Dict.Term(k); len(term.Value) > 2 && term.Value[:2] == "p:" {
			if n := it.SubSpan().Len(); n > bestN {
				topP, bestN = k, n
			}
		}
	}
	q := &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(topP), O: query.V(1)},
			{S: query.V(1), P: query.C(topP), O: query.V(2)},
			{S: query.V(2), P: query.C(topP), O: query.V(3)},
		},
		Alpha: query.NoVar,
		Beta:  3,
	}
	pl, err := query.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

// BenchmarkAblationCTJvsLFTJ compares the exact engines on a hub-heavy path
// count (Example IV.1: CTJ's cache removes LFTJ's suffix recomputation)
// plus the baseline hash-join engine.
func BenchmarkAblationCTJvsLFTJ(b *testing.B) {
	pl := pathCountPlan(b)
	want := lftj.Count(fixture.store, pl)
	b.Run("LFTJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := lftj.Count(fixture.store, pl); got != want {
				b.Fatalf("count %d != %d", got, want)
			}
		}
	})
	b.Run("CTJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := ctj.Count(fixture.store, pl); got != want {
				b.Fatalf("count %d != %d", got, want)
			}
		}
	})
	b.Run("Baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := baseline.Evaluate(fixture.store, pl)
			if err != nil {
				b.Fatal(err)
			}
			if int64(res[baseline.GlobalGroup]) != want {
				b.Fatalf("count %v != %d", res[baseline.GlobalGroup], want)
			}
		}
	})
}

// BenchmarkAblationTippingPoint sweeps Audit Join's tipping threshold
// (DESIGN.md §4 A2): -1 never tips (pure walks with the unbiased distinct
// estimator), +Inf tips at the first step. Each run reports the MAE reached
// after a fixed walk budget as the "mae" metric alongside the usual ns/op.
func BenchmarkAblationTippingPoint(b *testing.B) {
	loadFixture(b)
	thresholds := []struct {
		name string
		v    float64
	}{
		{"never", -1},
		{"t1", 1},
		{"t10", 10},
		{"t1000", 1000},
		{"always", math.Inf(1)},
	}
	const walks = 5000
	for _, th := range thresholds {
		b.Run(th.name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				r := core.New(fixture.store, fixture.plan, core.Options{Threshold: th.v, Seed: 7})
				RunWalks(r, walks)
				mae = stats.MAE(r.Snapshot().Estimates, fixture.exact)
			}
			b.ReportMetric(mae, "mae")
			b.ReportMetric(float64(walks), "walks/op")
		})
	}
}

// BenchmarkAblationTippingOracle compares the paper's statistics-based
// tipping oracle against the probe-walk oracle (the "more sophisticated
// estimates" future-work direction), reporting the MAE after a fixed walk
// budget alongside the cost.
func BenchmarkAblationTippingOracle(b *testing.B) {
	loadFixture(b)
	const walks = 5000
	oracles := []struct {
		name string
		mk   func() core.Options
	}{
		{"stats", func() core.Options {
			return core.Options{Threshold: core.DefaultThreshold, Seed: 7}
		}},
		{"probe4", func() core.Options {
			return core.Options{
				Threshold: core.DefaultThreshold, Seed: 7,
				Oracle: core.NewProbeOracle(fixture.store, fixture.plan, 4, 7),
			}
		}},
	}
	for _, o := range oracles {
		b.Run(o.name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				r := core.New(fixture.store, fixture.plan, o.mk())
				RunWalks(r, walks)
				mae = stats.MAE(r.Snapshot().Estimates, fixture.exact)
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// --- Substrate microbenchmarks ----------------------------------------------

// BenchmarkClosureMaterialize measures the offline preprocessing step.
func BenchmarkClosureMaterialize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _, err := kggen.Generate(kggen.DBpediaSim(0.01))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		explore.MaterializeClosure(g, rdf.OWLThing)
	}
}

// BenchmarkWorkloadGeneration measures the §V-B random-exploration
// generator including its exact ground-truth evaluations.
func BenchmarkWorkloadGeneration(b *testing.B) {
	loadFixture(b)
	schema, err := explore.SchemaOf(fixture.graph.Dict, rdf.OWLThing)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := &workload.Generator{Store: fixture.store, Schema: schema, Seed: int64(i), MaxSteps: 3}
		if recs := gen.Paths(2); len(recs) == 0 {
			b.Fatal("no workload")
		}
	}
}

// BenchmarkSnapshotIO measures binary snapshot write+read round trips.
func BenchmarkSnapshotIO(b *testing.B) {
	loadFixture(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := rdf.WriteBinary(&buf, fixture.graph); err != nil {
			b.Fatal(err)
		}
		if _, err := rdf.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkIndexBuild measures building the four trie orders (radix-sorted,
// one goroutine per order).
func BenchmarkIndexBuild(b *testing.B) {
	loadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(fixture.graph)
	}
}

var benchSpanSink int

// BenchmarkSpanL1 measures the dense direct-indexed level-1 span lookup.
func BenchmarkSpanL1(b *testing.B) {
	loadFixture(b)
	st := fixture.store
	nd := rdf.ID(fixture.graph.Dict.Len())
	b.ReportAllocs()
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += st.SpanL1(index.SPO, rdf.ID(i)%nd).Len()
	}
	benchSpanSink = acc
}

// BenchmarkSpanL2 measures the packed-key level-2 hash span lookup.
func BenchmarkSpanL2(b *testing.B) {
	loadFixture(b)
	st := fixture.store
	nd := rdf.ID(fixture.graph.Dict.Len())
	b.ReportAllocs()
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += st.SpanL2(index.PSO, rdf.ID(i)%nd, rdf.ID(i*7)%nd).Len()
	}
	benchSpanSink = acc
}

// BenchmarkTrieSeek measures LFTJ-style leapfrog seeks across a level.
func BenchmarkTrieSeek(b *testing.B) {
	loadFixture(b)
	st := fixture.store
	sp := st.FullSpan(index.SPO)
	// Gather subject keys once.
	var keys []rdf.ID
	it := st.Level(index.SPO, sp, 0)
	for it.Next() {
		keys = append(keys, it.Key())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		it := st.Level(index.SPO, sp, 0)
		if !it.Seek(k) || it.Key() != k {
			b.Fatal("seek failed")
		}
	}
}

// BenchmarkUniformSample measures O(1) span sampling (the walk primitive).
func BenchmarkUniformSample(b *testing.B) {
	loadFixture(b)
	st := fixture.store
	sp := st.FullSpan(index.PSO)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sample(index.PSO, sp, rng)
	}
}

// BenchmarkPathProb measures the cached Pr(b) computation of the distinct
// estimator (first call per b computes, later calls hit the cache; the mix
// here reflects steady-state AJ behaviour).
func BenchmarkPathProb(b *testing.B) {
	loadFixture(b)
	e := ctj.New(fixture.store, fixture.plan)
	var betas []rdf.ID
	lftj.Enumerate(fixture.store, fixture.plan, func(bind query.Bindings) bool {
		betas = append(betas, bind[fixture.plan.Query.Beta])
		return len(betas) < 512
	})
	if len(betas) == 0 {
		b.Skip("no results")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PathProbB(betas[i%len(betas)])
	}
}
