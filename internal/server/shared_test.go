package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"kgexplore"
)

// testPlan compiles the out-property exploration query of the dataset root,
// the same plan the chart handler builds for {"op": "out-property"}.
func testPlan(t *testing.T, ds *kgexplore.Dataset) *kgexplore.Plan {
	t.Helper()
	q, err := ds.Root().Query(kgexplore.OpOutProp)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ds.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func testDataset(t *testing.T) *kgexplore.Dataset {
	t.Helper()
	ds, err := kgexplore.LoadNTriples(strings.NewReader(tinyNT))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func missTotal(cs kgexplore.CTJCacheStats) int64 {
	return cs.CountMisses + cs.AggMisses + cs.ExistMisses + cs.ProbMisses
}

func hitTotal(cs kgexplore.CTJCacheStats) int64 {
	return cs.CountHits + cs.AggHits + cs.ExistHits + cs.ProbHits
}

// TestSharedCacheForWarmStart drives two identical aj runs at the same fixed
// seed through the server's warm-start cache: the second run replays the
// first's walks, so every CTJ lookup it makes must be answered by the cache
// the first run populated — zero new misses. When the first run finished the
// query exactly, the second adopts its published answer and looks nothing up.
func TestSharedCacheForWarmStart(t *testing.T) {
	ds := testDataset(t)
	srv := New(ds)
	pl := testPlan(t, ds)

	run := func() *kgexplore.AuditJoin {
		r := ds.NewAuditJoin(pl, kgexplore.AuditJoinOptions{
			Threshold: kgexplore.DefaultTippingThreshold,
			Seed:      42,
			Shared:    srv.sharedCacheFor(pl),
		})
		if _, err := kgexplore.Drive(context.Background(), r, kgexplore.DriveOptions{MaxWalks: 200}); err != nil {
			t.Fatal(err)
		}
		return r
	}

	first := run().CacheStats()
	if missTotal(first) == 0 {
		t.Fatalf("first run populated nothing: %+v", first)
	}
	r := run()
	second := r.CacheStats()
	if got := missTotal(second); got != 0 {
		t.Errorf("warm-started identical run missed %d times: %+v", got, second)
	}
	if hitTotal(second) == 0 && r.Walks() > 0 {
		t.Errorf("warm-started run walked without a cache hit: %+v", second)
	}
}

// TestSharedCacheForIdentity checks the warm-start map's keying: same plan
// signature → same cache object, different signature → different object.
func TestSharedCacheForIdentity(t *testing.T) {
	ds := testDataset(t)
	srv := New(ds)
	pl := testPlan(t, ds)

	c1 := srv.sharedCacheFor(pl)
	c2 := srv.sharedCacheFor(pl)
	if c1 == nil || c1 != c2 {
		t.Fatalf("same signature should share one cache: %p vs %p", c1, c2)
	}

	q, err := ds.Root().Query(kgexplore.OpInProp)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ds.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if c3 := srv.sharedCacheFor(other); c3 == c1 {
		t.Error("different signatures must not share a cache")
	}
}

func TestInvalidateSharedDropsWarmStarts(t *testing.T) {
	ds := testDataset(t)
	srv := New(ds)
	pl := testPlan(t, ds)

	before := srv.sharedCacheFor(pl)
	srv.InvalidateShared()
	if after := srv.sharedCacheFor(pl); after == before {
		t.Error("InvalidateShared must discard existing caches")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	ds := testDataset(t)
	srv := New(ds)
	srv.MaxPlanCaches = 1
	// Deterministic LRU clock.
	tick := time.Unix(0, 0)
	srv.now = func() time.Time { tick = tick.Add(time.Second); return tick }
	pl := testPlan(t, ds)

	first := srv.sharedCacheFor(pl)
	q, err := ds.Root().Query(kgexplore.OpInProp)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ds.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	srv.sharedCacheFor(other) // evicts the out-property entry

	srv.mu.Lock()
	n := len(srv.planCaches)
	srv.mu.Unlock()
	if n != 1 {
		t.Fatalf("planCaches size = %d, want 1", n)
	}
	if again := srv.sharedCacheFor(pl); again == first {
		t.Error("evicted entry must be rebuilt, not resurrected")
	}
}

func TestMaxPlanCachesZeroDisablesWarmStart(t *testing.T) {
	ds := testDataset(t)
	srv := New(ds)
	srv.MaxPlanCaches = 0
	if c := srv.sharedCacheFor(testPlan(t, ds)); c != nil {
		t.Errorf("expected nil cache with warm starts disabled, got %p", c)
	}
}

// TestChartResponseCacheStats checks the HTTP payload: aj charts report run
// and shared cache stats, and the shared view grows across requests.
func TestChartResponseCacheStats(t *testing.T) {
	ts := newTestServer(t)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)

	chart := func() ChartResponse {
		var c ChartResponse
		resp := post(t, ts.URL+"/api/session/"+st.Session+"/chart",
			ChartRequest{Op: "out-property", Engine: "aj", BudgetMS: 30}, &c)
		if resp.StatusCode != 200 {
			t.Fatalf("chart status %d", resp.StatusCode)
		}
		return c
	}

	first := chart()
	if first.Cache == nil || first.Cache.Shared == nil {
		t.Fatalf("aj chart must report run+shared cache stats: %+v", first.Cache)
	}
	second := chart()
	if second.Cache == nil || second.Cache.Shared == nil {
		t.Fatalf("second aj chart lost cache stats: %+v", second.Cache)
	}
	bodyOps := func(b *CacheStatsBody) int64 {
		return b.CountHits + b.CountMisses + b.AggHits + b.AggMisses +
			b.ExistHits + b.ExistMisses + b.ProbHits + b.ProbMisses
	}
	firstOps := bodyOps(first.Cache.Shared)
	secondOps := bodyOps(second.Cache.Shared)
	// A second request that finds the exact answer already in the warm cache
	// adds nothing to its counters; one that has to walk must.
	if secondOps < firstOps || (secondOps == firstOps && !second.Exact) {
		t.Errorf("shared view should accumulate across requests: %d then %d (exactBy %q)", firstOps, secondOps, second.ExactBy)
	}

	// Exact engines have no CTJ run stats to report.
	var exact ChartResponse
	post(t, ts.URL+"/api/session/"+st.Session+"/chart",
		ChartRequest{Op: "out-property", Engine: "baseline"}, &exact)
	if exact.Cache != nil {
		t.Errorf("exact engine should not report cache stats: %+v", exact.Cache)
	}
}
