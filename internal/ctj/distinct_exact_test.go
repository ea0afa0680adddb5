package ctj

import (
	"testing"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/testkit"
)

// TestDistinctExactMatchesGroupDistinct: the distinct vector that rides on
// the materialized probability table is GroupDistinct's answer — grouped and
// not, filtered and not, private and shared — exists only once the table
// does, and never on a session that stays lazy.
func TestDistinctExactMatchesGroupDistinct(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := testkit.RandomGraph(seed, 20, 3, 12, 250)
		st := index.Build(g)
		for _, grouped := range []bool{true, false} {
			for _, filtered := range []bool{false, true} {
				q := testkit.ChainQuery(g, []rdf.ID{20, 21}, grouped, true)
				if filtered {
					q.Filters = []query.Filter{{Op: query.CmpGt, L: query.EVar(q.Beta), R: query.ENum(3)}}
				}
				pl, err := query.Compile(q)
				if err != nil {
					t.Fatal(err)
				}
				want := map[rdf.ID]float64{}
				for a, n := range GroupDistinct(st, pl) {
					want[a] = float64(n)
				}
				for _, e := range []*Evaluator{New(st, pl), NewShared(st, pl, NewSharedCache())} {
					if e.DistinctExact() != nil {
						t.Fatal("distinct answer before any probability was asked for")
					}
					e.PathProbB(0) // the first miss materializes
					got := e.DistinctExact()
					if got == nil || !testkit.MapsEqual(got, want, 0) {
						t.Errorf("seed %d grouped=%v filtered=%v shared=%v: %v, GroupDistinct %v",
							seed, grouped, filtered, e.Shared() != nil, got, want)
					}
				}
				lazy := lazyEvaluator(st, pl)
				lazy.PathProbB(0)
				if lazy.DistinctExact() != nil {
					t.Error("a lazy session has a distinct answer")
				}
			}
		}
	}
}

// TestPublishWholeFirstWriterWins: a shared cache holds one verdict for life.
func TestPublishWholeFirstWriterWins(t *testing.T) {
	sc := NewSharedCache()
	if sc.Whole() != nil {
		t.Fatal("fresh cache has a verdict")
	}
	first := &Whole{Values: map[rdf.ID]float64{1: 2}}
	sc.PublishWhole(first)
	sc.PublishWhole(&Whole{})
	if sc.Whole() != first {
		t.Error("a later verdict replaced the published one")
	}
}
