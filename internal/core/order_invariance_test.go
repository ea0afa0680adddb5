package core

import (
	"math"
	"testing"

	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/testkit"
)

// TestWalkOrderInvariance is the metamorphic property the walk-order
// optimizer rests on: the Audit Join estimator is unbiased for EVERY connected
// walk order, so whichever one the optimizer picks changes variance and cost,
// never the expectation. For each valid permutation of each query shape, the
// mean estimate over 200 independent seeds must pass a z-test against the
// CTJ answer, group by group. The tipping threshold is set low enough that
// walks end all three ways: full paths, tipped finishes and dead ends.
func TestWalkOrderInvariance(t *testing.T) {
	g := testkit.RandomGraph(7, 30, 4, 20, 400)
	st := testkit.BuildStore(g)
	const p0, p1, p2 = rdf.ID(30), rdf.ID(31), rdf.ID(32)

	chain := func(preds []rdf.ID, distinct bool, agg query.AggFunc) *query.Query {
		q := testkit.ChainQuery(g, preds, true, distinct)
		q.Agg = agg
		return q
	}
	filtered := chain([]rdf.ID{p0, p1}, false, query.AggCount)
	filtered.Filters = []query.Filter{{Op: query.CmpGt, L: query.EVar(filtered.Beta), R: query.ENum(5)}}

	cases := []struct {
		name string
		q    *query.Query
		// AVG is a ratio of two unbiased estimators: consistent, with an
		// O(1/walks) bias, so it gets ten times the walks and 2% of slack.
		ratio bool
	}{
		{"count", chain([]rdf.ID{p0, p1, p2}, false, query.AggCount), false},
		{"count-distinct", chain([]rdf.ID{p0, p1, p2}, true, query.AggCount), false},
		{"sum", chain([]rdf.ID{p0, p1}, false, query.AggSum), false},
		{"avg", chain([]rdf.ID{p0, p1}, false, query.AggAvg), true},
		{"filter", filtered, false},
		// What the fixed-length path ?x p0{2}/p1 ?y desugars to.
		{"path", chain([]rdf.ID{p0, p0, p1}, false, query.AggCount), false},
	}

	const seeds, walks = 200, 300
	for _, tc := range cases {
		orders := tc.q.ValidOrders()
		if len(orders) < 2 {
			t.Fatalf("%s: only %d valid orders; the fixture cannot vary the walk", tc.name, len(orders))
		}
		var truth map[rdf.ID]float64
		for _, ord := range orders {
			rq, err := tc.q.Reorder(ord)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, ord, err)
			}
			pl, err := query.Compile(rq)
			if err != nil {
				continue // an order the index cannot serve is not a candidate
			}
			exact := ctj.Evaluate(st, pl)
			if truth == nil {
				truth = exact
				if len(truth) == 0 {
					t.Fatalf("%s: empty result; the fixture tests nothing", tc.name)
				}
			} else if !testkit.MapsEqual(exact, truth, 1e-9) {
				t.Fatalf("%s %v: CTJ disagrees with itself across orders", tc.name, ord)
			}

			sum := map[rdf.ID]float64{}
			sumSq := map[rdf.ID]float64{}
			seen := map[rdf.ID]float64{}
			for s := int64(1); s <= seeds; s++ {
				r := New(st, pl, Options{Threshold: 3, Seed: s*7919 + int64(len(ord))})
				if exec.RunN(r, walks); tc.ratio {
					exec.RunN(r, 9*walks)
				}
				// The sample's estimate, not Snapshot's: on spans this small
				// some runners finish exactly, and an exact answer has no
				// bias to test.
				for a, x := range r.Acc().Snapshot(stats.Z95).Estimates {
					sum[a] += x
					sumSq[a] += x * x
					seen[a]++
				}
			}
			for a := range sum {
				if _, ok := truth[a]; !ok {
					t.Errorf("%s %v: estimated group %d, which the exact answer does not have", tc.name, ord, a)
				}
			}
			for a, want := range truth {
				// A run that never reached the group estimates its count or
				// sum as 0 and belongs in the mean; it has no average to offer.
				n := float64(seeds)
				if tc.ratio {
					n = seen[a]
				}
				mean := sum[a] / n
				se := math.Sqrt(math.Max(sumSq[a]/n-mean*mean, 0) / (n - 1))
				tol := 4*se + 1e-9*math.Abs(want)
				if tc.ratio {
					tol += 0.02 * math.Abs(want)
				}
				if d := math.Abs(mean - want); d > tol {
					t.Errorf("%s order %v group %d: mean of %d seeds %.4f vs exact %.4f (|Δ| %.4f, %.1f standard errors)",
						tc.name, ord, a, seeds, mean, want, d, d/se)
				}
			}
		}
	}
}
