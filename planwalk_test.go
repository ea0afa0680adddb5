package kgexplore

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// subclassPlans returns the session's first chart — COUNT(DISTINCT ?x) of
// ?x typeClosure ?c . ?c subClassOf Thing — and its COUNT form, compiled in
// translation order.
func subclassPlans(t *testing.T, ds *Dataset) (distinct, count *Plan) {
	t.Helper()
	q, err := ds.Root().Query(OpSubclass)
	if err != nil {
		t.Fatal(err)
	}
	cq := *q
	cq.Distinct = false
	compile := func(q *Query) *Plan {
		pl, err := ds.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	return compile(q), compile(&cq)
}

// TestPlanWalkAtTheDatasetSeam: the single-store facade roots the chart at
// the class hierarchy, builds its runners on that plan, and binds a shared
// cache to the CHOSEN signature — so a caller that keys caches on the
// translation plan, as the bench replay does, stays consistent.
func TestPlanWalkAtTheDatasetSeam(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.01)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := subclassPlans(t, ds)
	chosen := ds.PlanWalk(pl)
	if !reflect.DeepEqual(chosen.Order, []int{1, 0}) {
		t.Fatalf("walk order %v (cards %v), want the subclass pattern rooted: [1 0]", chosen.Order, chosen.StepCard)
	}
	if chosen.StepCard[0] >= chosen.StepCard[1] {
		t.Errorf("step cardinalities %v are not ascending", chosen.StepCard)
	}
	if ds.PlanWalk(chosen) != chosen {
		t.Error("a chosen plan was planned again")
	}
	if out := ds.Explain(pl); !strings.Contains(out, "walk order: [1 0]") {
		t.Errorf("Explain does not show the chosen order:\n%s", out)
	}

	cache := NewSharedCTJCache()
	for seed := int64(1); seed <= 2; seed++ {
		r := ds.NewAuditJoin(pl, AuditJoinOptions{Threshold: DefaultTippingThreshold, Seed: seed, Shared: cache})
		RunWalks(r, 500)
	}
	cache.Bind(chosen) // same signature: no panic
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the shared cache accepted the translation-order plan; NewAuditJoin did not run the chosen one")
			}
		}()
		cache.Bind(pl)
	}()

	// The estimate is still the chart: every group within 5 half-widths.
	exact, err := ds.Exact(pl, EngineCTJ)
	if err != nil {
		t.Fatal(err)
	}
	r := ds.NewAuditJoin(pl, AuditJoinOptions{Threshold: DefaultTippingThreshold, Seed: 7})
	RunWalks(r, 20000)
	snap := r.Snapshot()
	for a, want := range exact {
		if d := snap.Estimates[a] - want; d > 5*snap.CI[a]+1e-6*want || -d > 5*snap.CI[a]+1e-6*want {
			t.Errorf("group %d: estimate %.1f ± %.1f, exact %.1f", a, snap.Estimates[a], snap.CI[a], want)
		}
	}
}

// TestPlanWalkKeepsShardedDistinctRoot: on a sharded set the root pattern of
// a COUNT(DISTINCT) plan decides between the owned-variable estimator and
// the exact union, so the optimizer must not move it; COUNT plans re-root
// freely.
func TestPlanWalkKeepsShardedDistinctRoot(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.01)
	if err != nil {
		t.Fatal(err)
	}
	sds, err := ds.BuildSharded(2, "")
	if err != nil {
		t.Fatal(err)
	}
	owned, count := subclassPlans(t, ds)

	// An un-owned DISTINCT chart: β is the object of the root pattern.
	st, err := ds.Root().Select(OpOutProp, firstOutProp(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	uq, err := st.Query(OpObject)
	if err != nil {
		t.Fatal(err)
	}
	unowned, err := ds.Compile(uq)
	if err != nil {
		t.Fatal(err)
	}
	if !ShardScatterOwned(owned) || ShardScatterOwned(unowned) {
		t.Fatalf("fixture: owned=%v unowned=%v, want true/false", ShardScatterOwned(owned), ShardScatterOwned(unowned))
	}

	for name, pl := range map[string]*Plan{"owned": owned, "unowned": unowned} {
		chosen := sds.PlanWalk(pl)
		if chosen.Order[0] != 0 || chosen.Steps[0].Pattern != pl.Steps[0].Pattern {
			t.Errorf("%s: DISTINCT root moved: order %v", name, chosen.Order)
		}
		if ShardScatterOwned(chosen) != ShardScatterOwned(pl) {
			t.Errorf("%s: ownership verdict changed with the walk order", name)
		}
		_, stats, err := sds.RunScatter(context.Background(), pl, ShardScatterOptions{Seed: 1, Threshold: DefaultTippingThreshold}, DriveOptions{MaxWalks: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ExactFallback != !ShardScatterOwned(pl) || stats.OwnedDistinct != ShardScatterOwned(pl) {
			t.Errorf("%s: routed exact=%v owned=%v", name, stats.ExactFallback, stats.OwnedDistinct)
		}
	}
	if got := sds.PlanWalk(count).Order; !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("sharded COUNT walk order %v, want it re-rooted: [1 0]", got)
	}
	// The single store has no such constraint.
	if got := ds.PlanWalk(owned).Order; !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("single-store DISTINCT walk order %v, want [1 0]", got)
	}
}

// firstOutProp picks the root chart's largest outgoing property.
func firstOutProp(t *testing.T, ds *Dataset) ID {
	t.Helper()
	bars, err := ds.Chart(ds.Root(), OpOutProp)
	if err != nil || len(bars) == 0 {
		t.Fatalf("no out-property bars: %v", err)
	}
	id, ok := ds.Dict().LookupIRI(bars[0].Category.Value)
	if !ok {
		t.Fatalf("bar category %q not in the dictionary", bars[0].Category.Value)
	}
	return id
}

// TestPlanWalkOnLiveView: the live facade plans on the view its walker
// captures, and the walker's estimate stays within its interval of the
// merged-view exact answer.
func TestPlanWalkOnLiveView(t *testing.T) {
	ds, err := GenerateDBpediaSim(0.01)
	if err != nil {
		t.Fatal(err)
	}
	_, count := subclassPlans(t, ds)
	lds, err := ds.Live(LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lds.Close()
	if got := lds.PlanWalk(count).Order; !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("live walk order %v, want [1 0]", got)
	}
	w, err := lds.NewLiveWalker(count, LiveWalkerOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	RunWalks(w, 20000)
	exact, err := lds.ExactCtx(context.Background(), count)
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	for a, want := range exact {
		if d := snap.Estimates[a] - want; d > 5*snap.CI[a]+1e-6*want || -d > 5*snap.CI[a]+1e-6*want {
			t.Errorf("group %d: estimate %.1f ± %.1f, exact %.1f", a, snap.Estimates[a], snap.CI[a], want)
		}
	}
}
