package core

import (
	"math"
	"testing"

	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/testkit"
)

// rawStep is the reference walk: Step's loop with the finisher the runner
// had before reductions were memoized — every walk re-reduces the raw
// (A,B,N,P) suffix aggregate, looking up Pr(a,b) per entry. It draws from
// the runner's random source exactly as Step does, so a runner stepped with
// rawStep and one stepped with Step under the same seed see the same walks.
func rawStep(r *Runner) {
	r.acc.N++
	b := r.b
	b.Reset()
	prodD := 1.0
	last := len(r.pl.Steps) - 1
	for i := range r.pl.Steps {
		st := &r.pl.Steps[i]
		sp, ok := r.static[i].Span, r.static[i].OK
		if !st.Static {
			sp, ok = st.ResolveSpan(r.store, b)
		}
		if !ok {
			r.acc.Rejected++
			return
		}
		if st.Kind != query.AccessMembership {
			st.Bind(r.store.Sample(st.Order, sp, r.rng), b)
			prodD *= float64(sp.Len())
			if len(st.Filters) > 0 && !r.pl.StepFiltersOK(i, r.store, b) {
				r.acc.Rejected++
				return
			}
		}
		if i == last || r.oracle.EstimateSuffix(i, b) <= r.opts.Threshold {
			rawFinish(r, r.eval.SuffixAgg(i, b), prodD)
			return
		}
	}
}

func rawFinish(r *Runner, agg []ctj.SuffixGroup, prodD float64) {
	if len(agg) == 0 {
		r.acc.Rejected++
		return
	}
	q := r.pl.Query
	num, den := map[rdf.ID]float64{}, map[rdf.ID]float64{}
	for _, e := range agg {
		switch {
		case q.Distinct:
			if pab := r.eval.PathProbAB(e.A, e.B); pab > 0 {
				num[e.A] += e.P / pab
			}
		case q.Agg == query.AggCount:
			num[e.A] += float64(e.N) * prodD
		default:
			if v, ok := r.store.Numeric(e.B); ok {
				num[e.A] += v * float64(e.N) * prodD
				den[e.A] += float64(e.N) * prodD
			}
		}
	}
	for a, x := range num {
		if q.Agg == query.AggAvg {
			r.acc.AddRatio(a, x, den[a])
		} else {
			r.acc.Add(a, x)
		}
	}
}

// TestReducedFinisherMatchesRaw holds the memoized reduction to the raw
// finisher on seeded runners, with private and shared caches. COUNT sums
// integers times an integer-valued ∏ d_j and DISTINCT never multiplies, so
// both agree bit for bit; SUM/AVG compute (Σ v·N)·d where the raw finisher
// computed Σ (v·N·d), equal up to the last ulp of each term.
func TestReducedFinisherMatchesRaw(t *testing.T) {
	g := testkit.RandomGraph(21, 30, 4, 20, 400)
	st := index.Build(g)
	for _, tc := range []struct {
		name     string
		preds    []rdf.ID
		distinct bool
		agg      query.AggFunc
		tol      float64
	}{
		{"count", []rdf.ID{30, 31, 32}, false, query.AggCount, 0},
		{"count-distinct", []rdf.ID{30, 31, 32}, true, query.AggCount, 0},
		{"sum", []rdf.ID{30, 31}, false, query.AggSum, 1e-12},
		{"avg", []rdf.ID{30, 31}, false, query.AggAvg, 1e-12},
	} {
		q := testkit.ChainQuery(g, tc.preds, true, tc.distinct)
		q.Agg = tc.agg
		pl, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, shared := range []bool{false, true} {
			for _, thr := range []float64{3, DefaultThreshold} {
				mk := func() *Runner {
					o := Options{Threshold: thr, Seed: 99}
					if shared {
						o.Shared = ctj.NewSharedCache()
					}
					return New(st, pl, o)
				}
				got, ref := mk(), mk()
				exec.RunN(got, 5000)
				for i := 0; i < 5000; i++ {
					rawStep(ref)
				}
				// The samples: got also runs the finite-population finish
				// and may be exact by now, which is not what is compared.
				gs, rs := got.Acc().Snapshot(stats.Z95), ref.Acc().Snapshot(stats.Z95)
				if gs.Walks != rs.Walks || gs.Rejected != rs.Rejected || len(gs.Estimates) != len(rs.Estimates) {
					t.Fatalf("%s shared=%v thr=%v: walks/rejected/groups %d/%d/%d vs raw %d/%d/%d", tc.name, shared, thr,
						gs.Walks, gs.Rejected, len(gs.Estimates), rs.Walks, rs.Rejected, len(rs.Estimates))
				}
				if len(gs.Estimates) == 0 {
					t.Fatalf("%s: no estimates; the fixture tests nothing", tc.name)
				}
				for a, want := range rs.Estimates {
					if d := math.Abs(gs.Estimates[a] - want); d > tc.tol*math.Abs(want) {
						t.Errorf("%s shared=%v thr=%v group %d: estimate %v, raw finisher %v", tc.name, shared, thr, a, gs.Estimates[a], want)
					}
					if d := math.Abs(gs.CI[a] - rs.CI[a]); d > tc.tol*math.Abs(rs.CI[a]) {
						t.Errorf("%s shared=%v thr=%v group %d: CI %v, raw finisher %v", tc.name, shared, thr, a, gs.CI[a], rs.CI[a])
					}
				}
			}
		}
	}
}
