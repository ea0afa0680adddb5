// Integration tests: end-to-end consistency of every engine on generated
// datasets and realistic exploration workloads, plus facade-level features
// (snapshots, explain). These complement the per-package unit tests by
// exercising the full pipeline: generator -> closure -> indexes -> workload
// -> plans -> engines -> estimators.
package kgexplore

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"kgexplore/internal/baseline"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
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

// TestEnginesAgreeOnWorkload runs a random exploration workload over both
// synthetic datasets and checks that all three exact engines agree on every
// chart query, in both distinct and plain modes.
func TestEnginesAgreeOnWorkload(t *testing.T) {
	for _, cfg := range []kggen.Config{kggen.DBpediaSim(0.01), kggen.LGDSim(0.01)} {
		g, schema, err := kggen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := index.Build(g)
		gen := &workload.Generator{Store: st, Schema: schema, Seed: 5, MaxSteps: 3}
		recs := gen.Paths(4)
		if len(recs) == 0 {
			t.Fatalf("%s: empty workload", cfg.Name)
		}
		for _, rec := range recs {
			for _, distinct := range []bool{true, false} {
				q := *rec.Query
				q.Distinct = distinct
				pl, err := query.Compile(&q)
				if err != nil {
					t.Fatal(err)
				}
				want := lftj.Evaluate(st, pl)
				if got := ctj.Evaluate(st, pl); !mapsEq(got, want) {
					t.Errorf("%s path %d step %d distinct=%v: CTJ disagrees with LFTJ",
						cfg.Name, rec.Path, rec.Step, distinct)
				}
				got, err := baseline.Evaluate(st, pl)
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				if !mapsEq(got, want) {
					t.Errorf("%s path %d step %d distinct=%v: baseline disagrees with LFTJ",
						cfg.Name, rec.Path, rec.Step, distinct)
				}
			}
		}
	}
}

// TestEstimatorsConvergeOnWorkload verifies that on every workload query
// Audit Join's estimate approaches the exact answer, and beats Wander Join
// on the median in distinct mode.
func TestEstimatorsConvergeOnWorkload(t *testing.T) {
	g, schema, err := kggen.Generate(kggen.DBpediaSim(0.01))
	if err != nil {
		t.Fatal(err)
	}
	st := index.Build(g)
	gen := &workload.Generator{Store: st, Schema: schema, Seed: 9, MaxSteps: 3}
	recs := gen.Paths(3)
	var ajMAEs, wjMAEs []float64
	for _, rec := range recs {
		ajr := core.New(st, rec.Plan, core.Options{Threshold: core.DefaultThreshold, Seed: 2})
		RunWalks(ajr, 60000)
		ajMAEs = append(ajMAEs, stats.MAE(ajr.Snapshot().Estimates, rec.Exact))
		wjr := wj.New(st, rec.Plan, 2)
		RunWalks(wjr, 60000)
		wjMAEs = append(wjMAEs, stats.MAE(wjr.Snapshot().Estimates, rec.Exact))
	}
	ajMed := stats.TukeyOf(ajMAEs).Median
	wjMed := stats.TukeyOf(wjMAEs).Median
	if ajMed > 0.35 {
		t.Errorf("AJ median MAE %.3f too high after 60k walks", ajMed)
	}
	if !(ajMed < wjMed) {
		t.Errorf("AJ median %.3f not below WJ median %.3f", ajMed, wjMed)
	}
}

// TestSnapshotRoundTripThroughFacade saves a dataset snapshot and reloads
// it, checking that a chart query gives identical results.
func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.005)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NumTriples() != ds.NumTriples() {
		t.Fatalf("triples %d vs %d", ds2.NumTriples(), ds.NumTriples())
	}
	bars1, err := ds.Chart(ds.Root(), OpSubclass)
	if err != nil {
		t.Fatal(err)
	}
	bars2, err := ds2.Chart(ds2.Root(), OpSubclass)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars1) != len(bars2) {
		t.Fatalf("bar counts differ: %d vs %d", len(bars1), len(bars2))
	}
	for i := range bars1 {
		if bars1[i].Category.Value != bars2[i].Category.Value || bars1[i].Count != bars2[i].Count {
			t.Errorf("bar %d differs: %+v vs %+v", i, bars1[i], bars2[i])
		}
	}
}

// TestExplainThroughFacade sanity-checks the EXPLAIN output on an
// exploration query.
func TestExplainThroughFacade(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.005)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.Root().Query(OpOutProp)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ds.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	out := ds.Explain(pl)
	if !strings.Contains(out, "step 0") || !strings.Contains(out, "estimated join size") {
		t.Errorf("Explain output:\n%s", out)
	}
}

// TestSumAvgEndToEnd runs SUM and AVG through the facade on a dataset whose
// value nodes are numeric.
func TestSumAvgEndToEnd(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Find a property with numeric (literal) objects.
	var prop ID
	found := false
	st := storeOf(ds)
	it := st.Level(index.PSO, st.FullSpan(index.PSO), 0)
	for it.Next() && !found {
		sp := it.SubSpan()
		for i := 0; i < sp.Len() && i < 10; i++ {
			o := st.At(index.PSO, sp, i).O
			if _, ok := st.Numeric(o); ok {
				prop = it.Key()
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no numeric-valued property in the generated dataset")
	}
	p, err := ds.ParseQuery(`SELECT SUM(?v) WHERE { ?s <` + ds.Dict().Term(prop).Value + `> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ds.Compile(p.Query)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ds.Exact(pl, EngineCTJ)
	if err != nil {
		t.Fatal(err)
	}
	if exact[GlobalGroup] <= 0 {
		t.Fatalf("exact sum = %v", exact)
	}
	aj := ds.NewAuditJoin(pl, AuditJoinOptions{Threshold: DefaultTippingThreshold, Seed: 4})
	RunWalks(aj, 50000)
	est := aj.Snapshot().Estimates[GlobalGroup]
	if math.Abs(est-exact[GlobalGroup])/exact[GlobalGroup] > 0.15 {
		t.Errorf("AJ SUM %.1f vs exact %.1f", est, exact[GlobalGroup])
	}
}

// storeOf reaches the dataset's store for white-box inspection (same
// package as the facade).
func storeOf(d *Dataset) *index.Store { return d.store }

// TestCyclicThroughInternals verifies a cyclic plan runs end-to-end on a
// generated dataset.
func TestCyclicThroughInternals(t *testing.T) {
	g, schema, err := kggen.Generate(kggen.DBpediaSim(0.01))
	if err != nil {
		t.Fatal(err)
	}
	_ = schema
	st := index.Build(g)
	var topP rdf.ID
	bestN := -1
	it := st.Level(index.PSO, st.FullSpan(index.PSO), 0)
	for it.Next() {
		if term := g.Dict.Term(it.Key()); strings.HasPrefix(term.Value, "p:") {
			if n := it.SubSpan().Len(); n > bestN {
				topP, bestN = it.Key(), n
			}
		}
	}
	q := &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(topP), O: query.V(1)},
			{S: query.V(1), P: query.C(topP), O: query.V(2)},
			{S: query.V(2), P: query.C(topP), O: query.V(0)},
		},
		Alpha: query.NoVar,
		Beta:  0,
	}
	pl, err := query.CompileCyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	want := lftj.Count(st, pl)
	if got := ctj.Count(st, pl); got != want {
		t.Errorf("cyclic CTJ %d vs LFTJ %d", got, want)
	}
	// Exploration-model queries must still compile the strict way.
	s := explore.Root(schema)
	if _, err := s.Query(explore.OpSubclass); err != nil {
		t.Fatal(err)
	}
}

func mapsEq(a, b map[rdf.ID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestAutoPicksStrategy checks the hybrid Auto evaluator: a tiny join is
// answered exactly by CTJ; a huge one goes to Audit Join, which reports an
// exact answer when it finishes one and an estimate otherwise.
func TestAutoPicksStrategy(t *testing.T) {
	// Large enough that the root out-property join exceeds AutoExactLimit.
	ds, err := GenerateDBpediaSim(0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Small: subclass chart of the root.
	q, err := ds.Root().Query(OpSubclass)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ds.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Auto(pl, 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || len(res.Counts) == 0 {
		t.Errorf("small join: exact=%v counts=%d", res.Exact, len(res.Counts))
	}
	// Large: out-property chart of the root (the full-graph join), too big
	// for the CTJ branch. It is COUNT(DISTINCT) and its probability table
	// materializes on the first finished walk, so the online branch comes
	// back exact — no CI map, a handful of walks — and agrees with CTJ.
	q, err = ds.Root().Query(OpOutProp)
	if err != nil {
		t.Fatal(err)
	}
	pl, err = ds.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err = ds.Auto(pl, 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.CI != nil || res.Walks == 0 {
		t.Errorf("large distinct join: exact=%v ci=%v walks=%d; want the online branch to end exact", res.Exact, res.CI != nil, res.Walks)
	}
	truth, err := ds.Exact(pl, EngineCTJ)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) != len(truth) {
		t.Errorf("large distinct join: %d groups, ctj %d", len(res.Counts), len(truth))
	}
	for a, w := range truth {
		if res.Counts[a] != w {
			t.Errorf("group %d: %v, ctj %v", a, res.Counts[a], w)
		}
	}
	// The same join as a plain COUNT has no table, and its root span — every
	// triple — cannot be swept in 5 ms: an estimate with intervals.
	plain := *q
	plain.Distinct = false
	pl, err = ds.Compile(&plain)
	if err != nil {
		t.Fatal(err)
	}
	res, err = ds.Auto(pl, 5*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("large join answered exactly; want an estimate")
	}
	if res.Walks == 0 || len(res.Counts) == 0 || res.CI == nil {
		t.Errorf("estimate missing fields: %+v", res)
	}
}

// TestReplayAndCompare exercises the multi-KG comparison feature: record a
// path, replay it on two datasets, and align the charts by category.
func TestReplayAndCompare(t *testing.T) {
	a, err := LoadNTriples(strings.NewReader(compareNT("alice", "bob")))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadNTriples(strings.NewReader(compareNT("x", "y")))
	if err != nil {
		t.Fatal(err)
	}
	// Path: select subclass Person from the root.
	steps := []PathStep{{Op: OpSubclass, Category: Term{Value: "Person"}}}
	sa, err := a.Replay(steps)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Kind != ClassBar {
		t.Fatalf("replayed state kind = %v", sa.Kind)
	}
	bars, err := CompareChart(a, b, steps, OpOutProp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) == 0 {
		t.Fatal("empty comparison")
	}
	// The worksAt property must appear with counts from both graphs.
	found := false
	for _, cb := range bars {
		if cb.Category.Value == "worksAt" {
			found = true
			if cb.A != 2 || cb.B != 2 {
				t.Errorf("worksAt = %v/%v, want 2/2", cb.A, cb.B)
			}
		}
	}
	if !found {
		t.Error("worksAt missing from comparison")
	}
	// Replaying a path with a category absent from the graph fails clearly.
	bad := []PathStep{{Op: OpSubclass, Category: Term{Value: "Nonexistent"}}}
	if _, err := a.Replay(bad); err == nil {
		t.Error("replay of unknown category succeeded")
	}
}

func compareNT(p1, p2 string) string {
	ty := "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	return "<" + p1 + "> <worksAt> <acme> .\n" +
		"<" + p2 + "> <worksAt> <acme> .\n" +
		"<" + p1 + "> " + ty + " <Person> .\n" +
		"<" + p2 + "> " + ty + " <Person> .\n" +
		"<acme> " + ty + " <Company> .\n"
}
