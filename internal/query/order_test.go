package query_test

import (
	"fmt"
	"reflect"
	"testing"

	"kgexplore/internal/card"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// fixedCards is a statistics stub: pattern cardinalities by predicate ID (or
// by the constant in whatever position has one).
type fixedCards map[rdf.ID]float64

func (f fixedCards) PatternCard(p query.Pattern) query.Est {
	for _, a := range []query.Atom{p.P, p.S, p.O} {
		if !a.IsVar() {
			return query.Est{Value: f[a.ID], Confidence: 1}
		}
	}
	return query.Est{Value: 1e9, Confidence: 1}
}

func (f fixedCards) JoinSize(*query.Plan) query.Est { return query.Est{} }

func mustCompile(t *testing.T, q *query.Query) *query.Plan {
	t.Helper()
	pl, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// bruteBest scores every Query.ValidOrders() permutation the way ChooseOrder
// documents — lexicographically smallest per-step cardinalities among the
// compilable orders, ties to the earlier permutation — by exhaustion.
func bruteBest(q *query.Query, est query.Estimator, pinRoot bool) []int {
	var best []int
	var bestCards []float64
	for _, ord := range q.ValidOrders() {
		if pinRoot && ord[0] != 0 {
			continue
		}
		rq, err := q.Reorder(ord)
		if err != nil {
			continue
		}
		if _, err := query.Compile(rq); err != nil {
			continue
		}
		cards := make([]float64, len(ord))
		for i, pi := range ord {
			cards[i] = est.PatternCard(q.Patterns[pi]).Value
		}
		if best == nil || lexLess(cards, bestCards) {
			best, bestCards = ord, cards
		}
	}
	return best
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// starChain is ?0 p10 ?1 . ?1 p11 ?2 . ?2 p12 ?3 plus two single-variable
// patterns on ?1 and ?3: a join tree with enough valid orders (dozens) for
// the exhaustive comparison to mean something.
func starChain() *query.Query {
	return &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(10), O: query.V(1)},
			{S: query.V(1), P: query.C(11), O: query.V(2)},
			{S: query.V(2), P: query.C(12), O: query.V(3)},
			{S: query.V(1), P: query.C(13), O: query.C(99)},
			{S: query.V(3), P: query.C(14), O: query.C(98)},
		},
		Alpha: 0, Beta: 3,
	}
}

func TestChooseOrderMatchesExhaustiveScore(t *testing.T) {
	q := starChain()
	pl := mustCompile(t, q)
	for name, est := range map[string]fixedCards{
		"leaf-filter-smallest": {10: 500, 11: 400, 12: 300, 13: 200, 14: 7},
		"middle-smallest":      {10: 500, 11: 3, 12: 300, 13: 200, 14: 100},
		"all-tied":             {10: 5, 11: 5, 12: 5, 13: 5, 14: 5},
		"ties-after-root":      {10: 9, 11: 9, 12: 9, 13: 1, 14: 9},
		"translation-is-best":  {10: 1, 11: 2, 12: 3, 13: 4, 14: 5},
	} {
		for _, pin := range []bool{false, true} {
			got := query.ChooseOrder(pl, est, pin)
			want := bruteBest(q, est, pin)
			if !reflect.DeepEqual(got.Order, want) {
				t.Errorf("%s pin=%v: chose %v, exhaustive best is %v", name, pin, got.Order, want)
			}
			if pin && got.Order[0] != 0 {
				t.Errorf("%s: pinned root moved: %v", name, got.Order)
			}
			for i, pi := range got.Order {
				if got.Steps[i].Pattern != q.Patterns[pi] {
					t.Errorf("%s: step %d walks %v, Order says pattern %d", name, i, got.Steps[i].Pattern, pi)
				}
				if want := est.PatternCard(q.Patterns[pi]).Value; got.StepCard[i] != want {
					t.Errorf("%s: StepCard[%d] = %v, want %v", name, i, got.StepCard[i], want)
				}
			}
			// Connectivity: the reordered query is inside the fragment.
			if err := got.Query.Validate(); err != nil {
				t.Errorf("%s: chosen order is not a valid walk: %v", name, err)
			}
		}
	}
	if got := query.ChooseOrder(pl, fixedCards{10: 1, 11: 2, 12: 4, 13: 3, 14: 5}, false); !reflect.DeepEqual(got.Order, []int{0, 1, 3, 2, 4}) {
		t.Errorf("smallest connected pattern at every step: got %v", got.Order)
	}
}

func TestChooseOrderDeterministicAndOnce(t *testing.T) {
	q := starChain()
	est := fixedCards{10: 50, 11: 40, 12: 30, 13: 20, 14: 10}
	a := query.ChooseOrder(mustCompile(t, q), est, false)
	b := query.ChooseOrder(mustCompile(t, q), est, false)
	if !reflect.DeepEqual(a.Order, b.Order) || a.Query.Signature() != b.Query.Signature() {
		t.Fatalf("same query and statistics chose %v then %v", a.Order, b.Order)
	}
	// A chosen plan is final: other statistics do not re-plan it.
	if again := query.ChooseOrder(a, fixedCards{10: 1, 11: 2, 12: 3, 13: 4, 14: 5}, false); again != a {
		t.Error("a plan that already carries an Order was planned again")
	}
	// The caller's plan is never written to, even when its order is kept.
	pl := mustCompile(t, q)
	same := query.ChooseOrder(pl, fixedCards{10: 1, 11: 2, 12: 3, 13: 4, 14: 5}, false)
	if !reflect.DeepEqual(same.Order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("chose %v, want the translation order", same.Order)
	}
	if pl.Order != nil || same == pl {
		t.Error("ChooseOrder marked the caller's plan instead of a copy")
	}
}

func TestChooseOrderSkipsUnservableAccess(t *testing.T) {
	// ?0 ?1 ?2 between two selective single-variable patterns: rooting both
	// of them first would leave the variable-predicate pattern with subject
	// and object bound, which no index order serves. The optimizer must
	// place it before one of its ends is bound.
	q := &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.V(1), O: query.V(2)},
			{S: query.V(0), P: query.C(20), O: query.C(90)},
			{S: query.V(2), P: query.C(21), O: query.C(91)},
		},
		Alpha: 1, Beta: 0,
	}
	est := fixedCards{20: 2, 21: 3}
	got := query.ChooseOrder(mustCompile(t, q), est, false)
	if want := bruteBest(q, est, false); !reflect.DeepEqual(got.Order, want) {
		t.Fatalf("chose %v, exhaustive best compilable order is %v", got.Order, want)
	}
	if !reflect.DeepEqual(got.Order, []int{1, 0, 2}) {
		t.Errorf("chose %v, want the selective end, then the open pattern, then the other end", got.Order)
	}
}

func TestChooseOrderReanchorsFilters(t *testing.T) {
	q := &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(10), O: query.V(1)},
			{S: query.V(1), P: query.C(11), O: query.V(2)},
		},
		Alpha: 0, Beta: 2,
		Filters: []query.Filter{{Op: query.CmpGt, L: query.EVar(1), R: query.ENum(0)}},
	}
	got := query.ChooseOrder(mustCompile(t, q), fixedCards{10: 100, 11: 1}, false)
	if !reflect.DeepEqual(got.Order, []int{1, 0}) {
		t.Fatalf("chose %v, want [1 0]", got.Order)
	}
	// ?1 is now bound by step 0, so the filter is decidable there.
	if len(got.Steps[0].Filters) != 1 || len(got.Steps[1].Filters) != 0 {
		t.Errorf("filter anchors %v / %v, want it on the new root", got.Steps[0].Filters, got.Steps[1].Filters)
	}
	if got.AlphaStep != 1 || got.BetaStep != 0 {
		t.Errorf("α/β sites %d/%d, want 1/0", got.AlphaStep, got.BetaStep)
	}
}

// TestChooseOrderRootsSelectivePattern runs the optimizer on real span
// statistics: a class hierarchy of 3 subclass triples over 600 membership
// triples, the shape of the session's first chart.
func TestChooseOrderRootsSelectivePattern(t *testing.T) {
	g := rdf.NewGraph()
	for c := 0; c < 3; c++ {
		g.AddIRIs(fmt.Sprintf("class%d", c), "subClassOf", "Thing")
		for i := 0; i < 200; i++ {
			g.AddIRIs(fmt.Sprintf("n%d-%d", c, i), "typeClosure", fmt.Sprintf("class%d", c))
		}
	}
	g.Dedup()
	st := index.Build(g)
	id := func(iri string) rdf.ID {
		v, ok := g.Dict.LookupIRI(iri)
		if !ok {
			t.Fatalf("no term %s", iri)
		}
		return v
	}
	q := &query.Query{
		Patterns: []query.Pattern{
			{S: query.V(0), P: query.C(id("typeClosure")), O: query.V(1)},
			{S: query.V(1), P: query.C(id("subClassOf")), O: query.C(id("Thing"))},
		},
		Alpha: 1, Beta: 0, Distinct: true,
	}
	got := query.ChooseOrder(mustCompile(t, q), card.NewSpanStats(st), false)
	if !reflect.DeepEqual(got.Order, []int{1, 0}) || got.StepCard[0] != 3 || got.StepCard[1] != 600 {
		t.Errorf("order %v cards %v, want the 3-triple hierarchy rooted before the 600 memberships", got.Order, got.StepCard)
	}
	if got.Steps[1].Kind != query.AccessL2 {
		t.Errorf("memberships resolve as %v, want an l2 (p,o) span once the class is bound", got.Steps[1].Kind)
	}
	// A sharded backend pins the root of a DISTINCT plan.
	if pinned := query.ChooseOrder(mustCompile(t, q), card.NewSpanStats(st), true); pinned.Order[0] != 0 {
		t.Errorf("pinned root moved: %v", pinned.Order)
	}
}
