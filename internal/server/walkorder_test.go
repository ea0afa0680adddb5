package server

import (
	"net/http"
	"testing"
	"time"
)

// TestWalkOrderSurfaced: online chart and SPARQL responses report the walk
// order the optimizer chose with the cardinalities it was scored on; the
// stream carries it on its final event; exact engines, which keep the
// translation order, report none.
func TestWalkOrderSurfaced(t *testing.T) {
	_, ts := newStreamServer(t, 5*time.Second)
	var st StateResponse
	post(t, ts.URL+"/api/session", struct{}{}, &st)
	chartURL := ts.URL + "/api/session/" + st.Session + "/chart"

	check := func(label string, c ChartResponse) {
		t.Helper()
		if len(c.WalkOrder) != 2 || len(c.StepCard) != 2 {
			t.Fatalf("%s: walkOrder %v stepCard %v, want one entry per pattern", label, c.WalkOrder, c.StepCard)
		}
		// ?x typeClosure ?c (9 triples here) . ?c subClassOf Thing (a handful):
		// the hierarchy is rooted.
		if c.WalkOrder[0] != 1 || c.WalkOrder[1] != 0 || c.StepCard[0] > c.StepCard[1] {
			t.Errorf("%s: walkOrder %v stepCard %v, want the smaller pattern first", label, c.WalkOrder, c.StepCard)
		}
	}

	var c ChartResponse
	post(t, chartURL, ChartRequest{Op: "subclass", Engine: "aj", BudgetMS: 20}, &c)
	check("chart", c)

	resp := postStream(t, chartURL+"?stream=1", ChartRequest{Op: "subclass", BudgetMS: 60, IntervalMS: 10})
	events := readEvents(t, resp, 0)
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	for i, e := range events[:len(events)-1] {
		if e.WalkOrder != nil {
			t.Errorf("progressive event %d carries a walk order", i)
		}
	}
	check("final event", events[len(events)-1])

	var sp ChartResponse
	if r := post(t, ts.URL+"/api/sparql", SPARQLRequest{
		Query:    `SELECT ?c COUNT(?o) WHERE { ?s <birthPlace> ?o . ?o a ?c } GROUP BY ?c`,
		BudgetMS: 20,
	}, &sp); r.StatusCode != http.StatusOK {
		t.Fatalf("sparql status %d", r.StatusCode)
	}
	if len(sp.WalkOrder) != 2 || len(sp.StepCard) != 2 {
		t.Errorf("sparql: walkOrder %v stepCard %v", sp.WalkOrder, sp.StepCard)
	}

	var exact ChartResponse
	post(t, chartURL, ChartRequest{Op: "subclass", Engine: "ctj"}, &exact)
	if exact.WalkOrder != nil || exact.StepCard != nil {
		t.Errorf("exact engine reports a walk order: %v %v", exact.WalkOrder, exact.StepCard)
	}
}

// TestWarmCacheKeysOnChosenPlan: the same join written in two pattern orders
// is two translation-order signatures but one chosen plan, hence one warm
// cache — which must have been bound to that plan's signature, or the second
// request would panic in SharedCache.Bind.
func TestWarmCacheKeysOnChosenPlan(t *testing.T) {
	srv, ts := newStreamServer(t, 5*time.Second)
	for _, q := range []string{
		`SELECT ?c COUNT(?o) WHERE { ?s <birthPlace> ?o . ?o a ?c } GROUP BY ?c`,
		`SELECT ?c COUNT(?o) WHERE { ?o a ?c . ?s <birthPlace> ?o } GROUP BY ?c`,
	} {
		var c ChartResponse
		if r := post(t, ts.URL+"/api/sparql", SPARQLRequest{Query: q, BudgetMS: 20}, &c); r.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", r.StatusCode, q)
		}
		if c.NumBars != 1 || c.Cache == nil || c.Cache.Shared == nil {
			t.Fatalf("response %+v, want one bar and warm-cache stats", c)
		}
	}
	srv.mu.Lock()
	n := len(srv.planCaches)
	srv.mu.Unlock()
	if n != 1 {
		t.Errorf("%d warm caches for one chosen plan, want 1", n)
	}
}
