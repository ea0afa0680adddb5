package core

import (
	"fmt"
	"math"
	"testing"

	"kgexplore/internal/index"
	"kgexplore/internal/lftj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// skewedFixture builds the stratification stress graph: a few hub subjects
// with many out-edges and many leaf subjects with one — two characteristic
// sets whose walk contributions differ wildly, so uniform root sampling has
// high variance and semantic strata should slash it. Hub friends carry two
// pop values each (5 and 13); only two thirds of the pals carry one (900),
// so both strata keep genuine walk variance (fan-out spread in one,
// rejections in the other). The exact answer is returned analytically:
//
//	COUNT = 160·2 + 100        = 420
//	SUM   = 160·18 + 100·900   = 92880
//	AVG   = SUM/COUNT          ≈ 221.14
//	COUNT(DISTINCT pop)        = 3   {5, 13, 900}
func skewedFixture(t *testing.T, agg query.AggFunc, distinct bool) (*query.Plan, *index.Store, float64) {
	t.Helper()
	g := rdf.NewGraph()
	for h := 0; h < 4; h++ {
		hub := fmt.Sprintf("hub%d", h)
		g.AddIRIs(hub, "hubFlag", "yes")
		for j := 0; j < 40; j++ {
			o := fmt.Sprintf("friend%d_%d", h, j)
			g.AddIRIs(hub, "knows", o)
			for _, lex := range []string{"5", "13"} {
				g.Add(rdf.NewIRI(o), rdf.NewIRI("pop"), rdf.NewLiteral(lex))
			}
		}
	}
	for p := 0; p < 150; p++ {
		person := fmt.Sprintf("person%d", p)
		g.AddIRIs(person, rdf.RDFType, "Person")
		o := fmt.Sprintf("pal%d", p)
		g.AddIRIs(person, "knows", o)
		if p%3 != 0 {
			g.Add(rdf.NewIRI(o), rdf.NewIRI("pop"), rdf.NewLiteral("900"))
		}
	}
	g.Dedup()
	knows, _ := g.Dict.LookupIRI("knows")
	pop, _ := g.Dict.LookupIRI("pop")
	q := &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(knows), O: query.V(1)},
			{S: query.V(1), P: query.C(pop), O: query.V(2)},
		},
		Alpha:    query.NoVar,
		Beta:     2,
		Agg:      agg,
		Distinct: distinct,
	}
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	st := index.Build(g)

	count, sum := 160.0*2+100, 160.0*18+100*900
	var exact float64
	switch {
	case distinct:
		exact = 3
	case agg == query.AggSum:
		exact = sum
	case agg == query.AggAvg:
		exact = sum / count
	default:
		exact = count
	}
	// Sanity: the analytic COUNT/DISTINCT must match LFTJ on the fixture.
	if distinct {
		if got := lftj.GroupDistinct(st, pl)[GlobalGroup]; float64(got) != exact {
			t.Fatalf("fixture drifted: distinct %d, want %.0f", got, exact)
		}
	} else if got := lftj.GroupCount(st, pl)[GlobalGroup]; float64(got) != count {
		t.Fatalf("fixture drifted: count %d, want %.0f", got, count)
	}
	return pl, st, exact
}

// TestStratifiedUnbiasedCIValid is the stratification property test:
// across seeds, semantic-stratified estimates must stay unbiased (their
// mean converges to the exact answer) and CI-valid (the exact answer falls
// inside the 95% interval in ≈95% of runs), for COUNT and SUM, and the
// stratified CI must not exceed the uniform CI on this skewed fixture.
func TestStratifiedUnbiasedCIValid(t *testing.T) {
	const (
		seeds = 20
		walks = 4000
	)
	for _, tc := range []struct {
		name string
		agg  query.AggFunc
	}{
		{"count", query.AggCount},
		{"sum", query.AggSum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, st, exact := skewedFixture(t, tc.agg, false)
			var estSum, stratCI, unifCI float64
			covered := 0
			for seed := int64(0); seed < seeds; seed++ {
				s := NewStratified(st, pl, StratifiedOptions{
					Options: Options{Threshold: -1, Seed: 1000 + seed},
				})
				if s.Fallback() != "" {
					t.Fatalf("unexpected fallback %q", s.Fallback())
				}
				if got := s.Stats().Strata; got < 2 {
					t.Fatalf("expected >=2 strata, got %d", got)
				}
				for i := 0; i < walks; i++ {
					s.Step()
				}
				res := s.Snapshot()
				est, ci := res.Estimates[GlobalGroup], res.CI[GlobalGroup]
				estSum += est
				stratCI += ci
				if math.Abs(est-exact) <= ci {
					covered++
				}

				u := New(st, pl, Options{Threshold: -1, Seed: 1000 + seed})
				for i := 0; i < walks; i++ {
					u.Step()
				}
				unifCI += u.Snapshot().CI[GlobalGroup]
			}
			mean := estSum / seeds
			if rel := math.Abs(mean-exact) / exact; rel > 0.05 {
				t.Fatalf("stratified mean over %d seeds off by %.1f%% (mean %.1f, exact %.1f)",
					seeds, rel*100, mean, exact)
			}
			if covered < seeds*8/10 {
				t.Fatalf("exact answer inside the 95%% CI in only %d/%d runs", covered, seeds)
			}
			if stratCI > unifCI {
				t.Fatalf("stratified CI (%.1f avg) wider than uniform (%.1f avg) on the skewed fixture",
					stratCI/seeds, unifCI/seeds)
			}
			t.Logf("%s: exact %.0f, stratified mean %.1f, avg CI %.1f vs uniform %.1f (%.2fx)",
				tc.name, exact, mean, stratCI/seeds, unifCI/seeds, unifCI/stratCI)
		})
	}
}

// TestStratifiedAvg checks the ratio estimator under stratification: AVG
// merges as the ratio of stratum sums and must converge to the exact
// average.
func TestStratifiedAvg(t *testing.T) {
	pl, st, exact := skewedFixture(t, query.AggAvg, false)
	s := NewStratified(st, pl, StratifiedOptions{Options: Options{Threshold: -1, Seed: 7}})
	if s.Fallback() != "" {
		t.Fatalf("unexpected fallback %q", s.Fallback())
	}
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	got := s.Snapshot().Estimates[GlobalGroup]
	if rel := math.Abs(got-exact) / exact; rel > 0.05 {
		t.Fatalf("stratified AVG %.2f, exact %.2f (%.1f%% off)", got, exact, rel*100)
	}
}

// TestStratifiedDistinctFallback checks the documented DISTINCT fallback:
// the unbiased distinct estimator needs uniform walk-hit probabilities, so
// stratified runs degrade to one uniform stratum — and still converge.
func TestStratifiedDistinctFallback(t *testing.T) {
	pl, st, exact := skewedFixture(t, query.AggCount, true)
	s := NewStratified(st, pl, StratifiedOptions{Options: Options{Threshold: DefaultThreshold, Seed: 3}})
	if s.Fallback() != FallbackDistinct {
		t.Fatalf("fallback = %q, want %q", s.Fallback(), FallbackDistinct)
	}
	if s.Stats().Strata != 1 {
		t.Fatalf("fallback should run one uniform stratum, got %d", s.Stats().Strata)
	}
	for i := 0; i < 4000; i++ {
		s.Step()
	}
	got := s.Snapshot().Estimates[GlobalGroup]
	if rel := math.Abs(got-exact) / exact; rel > 0.1 {
		t.Fatalf("distinct fallback estimate %.2f, exact %.2f", got, exact)
	}
	// The fallback snapshot must equal a plain uniform runner's sample (same
	// seed, same walk count) — the stepper contract does not change shape.
	// The plain runner itself reads the exact answer off its distinct table.
	u := New(st, pl, Options{Threshold: DefaultThreshold, Seed: 3,
		Shared: s.SharedCache()})
	for i := 0; i < 4000; i++ {
		u.Step()
	}
	ur := u.Acc().Snapshot(stats.Z95)
	if math.Abs(ur.Estimates[GlobalGroup]-got) > 1e-9 {
		t.Fatalf("fallback estimate %.4f differs from plain runner %.4f", got, ur.Estimates[GlobalGroup])
	}
}

// TestStratifiedAdaptsAllocation checks the Neyman loop actually fires and
// shifts walks toward the high-variance stratum.
func TestStratifiedAdaptsAllocation(t *testing.T) {
	pl, st, _ := skewedFixture(t, query.AggCount, false)
	s := NewStratified(st, pl, StratifiedOptions{
		Options:    Options{Threshold: -1, Seed: 11},
		PilotWalks: 32,
		AdaptEvery: 128,
	})
	for i := 0; i < 4000; i++ {
		s.Step()
	}
	stats := s.Stats()
	if stats.Reallocs == 0 {
		t.Fatal("allocator never re-derived Neyman weights")
	}
	// Weights must have moved off the proportional shares.
	var moved bool
	total := 0
	for _, ps := range stats.PerStratum {
		total += ps.RootCard
	}
	for _, ps := range stats.PerStratum {
		prop := float64(ps.RootCard) / float64(total)
		if math.Abs(ps.Weight-prop) > 0.05 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("weights never moved off proportional: %+v", stats.PerStratum)
	}
}

// TestMergeStratifiedSingleEqualsSnapshot pins the fallback equivalence at
// the accumulator level: merging one uniform stratum reproduces the plain
// snapshot (estimates and CIs).
func TestMergeStratifiedSingleEqualsSnapshot(t *testing.T) {
	pl, st, _ := skewedFixture(t, query.AggCount, false)
	r := New(st, pl, Options{Threshold: -1, Seed: 5})
	for i := 0; i < 500; i++ {
		r.Step()
	}
	want := r.Snapshot()
	got := wj.MergeStratified([]*wj.Acc{r.Acc()}, stats.Z95)
	for a, w := range want.Estimates {
		if math.Abs(got.Estimates[a]-w) > 1e-9 {
			t.Fatalf("estimate drifted: %v vs %v", got.Estimates[a], w)
		}
		if math.Abs(got.CI[a]-want.CI[a]) > 1e-9 {
			t.Fatalf("CI drifted: %v vs %v", got.CI[a], want.CI[a])
		}
	}
}
