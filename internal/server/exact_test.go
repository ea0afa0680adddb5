package server

import (
	"context"
	"testing"
	"time"

	"kgexplore"
)

// TestExactAnswersOnTheWire: an aj request whose query Audit Join finishes
// exactly ends long before its budget and says so — `exact` beside
// `walkOrder` on chart and /api/sparql responses, exactly one
// `final:true, exact:true` SSE event, last — with every bar equal to CTJ's
// and no interval; /healthz counts the routes.
func TestExactAnswersOnTheWire(t *testing.T) {
	_, ts := newStreamServer(t, 30*time.Second)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)
	chartURL := ts.URL + "/api/session/" + st.Session + "/chart"

	sameBars := func(label string, got, want ChartResponse) {
		t.Helper()
		if !got.Exact || got.ExactBy == "" || got.WalkOrder == nil {
			t.Fatalf("%s: exact=%v exactBy=%q walkOrder=%v", label, got.Exact, got.ExactBy, got.WalkOrder)
		}
		if got.NumBars != want.NumBars || len(got.Bars) != len(want.Bars) {
			t.Fatalf("%s: %d bars, ctj %d", label, got.NumBars, want.NumBars)
		}
		truth := map[string]float64{}
		for _, b := range want.Bars {
			truth[b.Category] = b.Count
		}
		for _, b := range got.Bars {
			if w, ok := truth[b.Category]; !ok || b.Count != w || b.CI != 0 {
				t.Errorf("%s: bar %s = %v ± %v, ctj %v", label, b.Category, b.Count, b.CI, w)
			}
		}
	}

	// The session's subclass chart is COUNT(DISTINCT): exact by its table.
	var truth, c ChartResponse
	post(t, chartURL, ChartRequest{Op: "subclass", Engine: "ctj"}, &truth)
	start := time.Now()
	post(t, chartURL, ChartRequest{Op: "subclass", Engine: "aj", BudgetMS: 20_000}, &c)
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("exact chart took %v of a 20 s budget", el)
	}
	sameBars("chart", c, truth)

	resp := postStream(t, chartURL+"?stream=1", ChartRequest{Op: "subclass", BudgetMS: 20_000, IntervalMS: 5})
	events := readEvents(t, resp, 0)
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	for i, e := range events {
		last := i == len(events)-1
		if e.Final != last || e.Exact != last {
			t.Errorf("event %d of %d: final=%v exact=%v; exactly the last is final and exact", i, len(events), e.Final, e.Exact)
		}
	}
	sameBars("final event", events[len(events)-1], truth)

	// A plain COUNT has no table: the first request sweeps the root span, the
	// second adopts the published answer from the warm cache.
	const q = `SELECT ?c COUNT(?o) WHERE { ?s <birthPlace> ?o . ?o a ?c } GROUP BY ?c`
	var spTruth, sp1, sp2 ChartResponse
	post(t, ts.URL+"/api/sparql", SPARQLRequest{Query: q, Engine: "ctj"}, &spTruth)
	post(t, ts.URL+"/api/sparql", SPARQLRequest{Query: q, BudgetMS: 20_000}, &sp1)
	post(t, ts.URL+"/api/sparql", SPARQLRequest{Query: q, BudgetMS: 20_000}, &sp2)
	sameBars("sparql", sp1, spTruth)
	sameBars("sparql again", sp2, spTruth)
	if sp1.ExactBy != "sweep" || sp2.ExactBy != "published" {
		t.Errorf("sparql exactBy %q then %q, want sweep then published", sp1.ExactBy, sp2.ExactBy)
	}

	// wj never claims exactness.
	var w ChartResponse
	post(t, chartURL, ChartRequest{Op: "subclass", Engine: "wj", BudgetMS: 20}, &w)
	if w.Exact || w.ExactBy != "" {
		t.Errorf("wj chart claims exact: %+v", w)
	}

	tips := getHealth(t, ts.URL).Tips
	if tips == nil || tips.ExactSweep != 1 || tips.ExactPublished != 1 || tips.ExactTable < 2 || tips.SweepsAbandoned != 0 {
		t.Errorf("healthz tips = %+v, want 1 sweep, 1 published, >= 2 table, 0 abandoned", tips)
	}
}

// TestSwapDropsPublishedExact: a published whole-query answer lives in the
// plan's warm cache, whose keys and values are the old epoch's dictionary
// IDs; a swap must drop it with the rest of the cache.
func TestSwapDropsPublishedExact(t *testing.T) {
	ds := loadNT(t, tinyNT)
	srv := New(ds)
	parsed, err := ds.ParseQuery(`SELECT ?c COUNT(?o) WHERE { ?s <birthPlace> ?o . ?o a ?c } GROUP BY ?c`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ds.Compile(parsed.Query)
	if err != nil {
		t.Fatal(err)
	}
	pl = ds.PlanWalk(pl)
	run := func(d *kgexplore.Dataset, p *kgexplore.Plan) *kgexplore.AuditJoin {
		r := d.NewAuditJoin(p, kgexplore.AuditJoinOptions{
			Threshold: kgexplore.DefaultTippingThreshold, Seed: 1, Shared: srv.sharedCacheFor(p),
		})
		if _, err := kgexplore.Drive(context.Background(), r, kgexplore.DriveOptions{MaxWalks: 100_000}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := run(ds, pl); !r.Exact() {
		t.Fatal("first run did not finish exactly; the fixture tests nothing")
	}
	warm := srv.sharedCacheFor(pl)
	if w := warm.Whole(); w == nil || w.Values == nil {
		t.Fatal("nothing published in the warm cache")
	}
	if r := run(ds, pl); r.Walks() != 0 || r.ExactSource().String() != "published" {
		t.Fatalf("warm run: %d walks, exact by %q", r.Walks(), r.ExactSource())
	}

	srv.Swap(loadNT(t, tinyNT), Provenance{Kind: "parsed"}, nil)
	fresh := srv.sharedCacheFor(pl)
	if fresh == warm || fresh.Whole() != nil {
		t.Fatal("the published answer survived the swap")
	}
}
