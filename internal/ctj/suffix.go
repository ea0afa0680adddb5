package ctj

import (
	"sync/atomic"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// EnumerateSuffix enumerates all completions of steps i+1..n-1 given the
// bindings of steps 0..i, invoking cb with the full bindings and the walk
// probability of the completion, prob = ∏_{j>i} 1/d_j, where d_j is the size
// of the candidate set the random walk would see at step j. Audit Join calls
// this at the tipping point, where the suffix is small by construction, so
// the enumeration is uncached.
func (e *Evaluator) EnumerateSuffix(i int, b query.Bindings, cb func(b query.Bindings, prob float64)) {
	var rec func(j int, prob float64)
	rec = func(j int, prob float64) {
		if j == len(e.pl.Steps) {
			cb(b, prob)
			return
		}
		st := &e.pl.Steps[j]
		sp, ok := st.ResolveSpan(e.store, b)
		if !ok {
			return
		}
		if st.Kind == query.AccessMembership {
			rec(j+1, prob) // d_j = 1
			return
		}
		p := prob / float64(sp.Len())
		ts := e.store.Triples(st.Order)
		for t := sp.Lo; t < sp.Hi; t++ {
			st.Bind(ts[t], b)
			// Filter-failing completions are invisible to the walk estimator
			// (the walk would have been rejected), so they contribute neither
			// a completion nor probability mass.
			if len(st.Filters) > 0 && !e.pl.StepFiltersOK(j, e.store, b) {
				continue
			}
			rec(j+1, p)
		}
		st.Unbind(b)
	}
	rec(i+1, 1)
}

// SuffixAgg returns the completions of steps i+1..n-1 aggregated per
// (group value A, counted value B): the completion count N and the walk
// probability mass P = Σ ∏_{j>i} 1/d_j. Results are cached per boundary
// interface (extended with the already-bound values of Alpha and Beta, which
// determine the aggregation even when the interface does not mention them).
// This cache is what lets Audit Join reuse a prior exact computation when a
// later walk reaches the same prefix interface (paper §IV-D).
func (e *Evaluator) SuffixAgg(i int, b query.Bindings) []SuffixGroup {
	return e.suffixEntry(i, b).agg
}

// SuffixReduced returns the finisher reduction of SuffixAgg(i, b) (see
// Reduce), memoized beside the aggregate in the same cache entry: the first
// walk to end at a prefix interface pays O(|agg|) map work and, for distinct
// plans, one Pr(a,b) per entry; every later one reads O(groups) terms.
func (e *Evaluator) SuffixReduced(i int, b query.Bindings) *Reduced {
	ent := e.suffixEntry(i, b)
	if red := ent.red.Load(); red != nil {
		return red
	}
	// Evaluators racing on a shared entry compute identical reductions (the
	// aggregate is immutable and Pr(a,b) exact), so the last store wins
	// harmlessly.
	red := Reduce(e.pl.Query, ent.agg, e.store, e.PathProbAB)
	ent.red.Store(red)
	return red
}

// aggEntry is one cached suffix aggregate with its lazily memoized reduction.
type aggEntry struct {
	agg []SuffixGroup
	red atomic.Pointer[Reduced]
}

func (e *Evaluator) suffixEntry(i int, b query.Bindings) *aggEntry {
	alpha, beta := e.pl.Query.Alpha, e.pl.Query.Beta
	var aBound, bBound rdf.ID = rdf.NoID, rdf.NoID
	if alpha != query.NoVar && b[alpha] != rdf.NoID {
		aBound = b[alpha]
	}
	if b[beta] != rdf.NoID {
		bBound = b[beta]
	}
	k := e.key(i+1, b, aBound, bBound)
	if e.shared != nil {
		return e.sharedSuffixAgg(k, i, b)
	}
	if ent, ok := e.aggCache[k]; ok {
		e.stats.AggHits++
		return ent
	}
	e.stats.AggMisses++
	ent := &aggEntry{agg: e.computeSuffixAgg(i, b)}
	e.aggCache[k] = ent
	return ent
}

// GroupTerm is one group's share of a finished walk's contribution; see
// Reduced for what Num and Den hold per aggregate.
type GroupTerm struct {
	A        rdf.ID
	Num, Den float64
}

// Reduced is the finisher reduction of one suffix aggregate: everything
// Audit Join adds to its accumulator when a walk ends at that prefix
// interface, with the only per-walk factor — the prefix's inverse
// probability ∏ d_j — left out so the vector can be cached. Per group a:
//
//	COUNT            Num = ΣN
//	SUM, AVG         Num = Σ v(b)·N and Den = ΣN over numeric b
//	COUNT(DISTINCT)  Num = Σ_b P/Pr(a,b), already complete: P is
//	                 Pr(δ,(a,b))/Pr(δ), so the prefix probability cancels
//
// Groups without a contribution (no numeric b, no reachable pair) have no
// term. Total is ΣN over the whole aggregate, the exact suffix size.
type Reduced struct {
	Total int64
	Terms []GroupTerm
}

// Reduce folds a suffix aggregate into its per-group terms for query q. ns
// resolves numeric literals for SUM/AVG; pab supplies Pr(a,b) for distinct
// plans and may be nil otherwise. Terms keep the aggregate's first-seen
// group order, so equal aggregates reduce to equal vectors bit for bit.
func Reduce(q *query.Query, agg []SuffixGroup, ns query.NumSource, pab func(a, b rdf.ID) float64) *Reduced {
	r := reducer{q: q, ns: ns}
	for _, e := range agg {
		if q.Distinct {
			r.red.Total += e.N
			if p := pab(e.A, e.B); p > 0 {
				r.term(e.A).Num += e.P / p
			}
			continue
		}
		r.add(e.A, e.B, e.N)
	}
	return &r.red
}

// ReducePaths is Reduce for walkers that enumerate a suffix path by path
// instead of holding its aggregate (the sharded and live walkers, which
// never finish distinct plans this way): enumerate calls visit once per
// completion with its group and counted values.
func ReducePaths(q *query.Query, ns query.NumSource, enumerate func(visit func(a, beta rdf.ID))) *Reduced {
	r := reducer{q: q, ns: ns}
	enumerate(func(a, beta rdf.ID) { r.add(a, beta, 1) })
	return &r.red
}

// reducer builds one Reduced, group terms in first-seen order.
type reducer struct {
	q   *query.Query
	ns  query.NumSource
	red Reduced
	idx map[rdf.ID]int
}

// term returns group a's term, appending it on first sight.
func (r *reducer) term(a rdf.ID) *GroupTerm {
	if n := len(r.red.Terms); n > 0 && r.red.Terms[n-1].A == a {
		return &r.red.Terms[n-1] // enumeration order clusters groups
	}
	j, ok := r.idx[a]
	if !ok {
		if r.idx == nil {
			r.idx = make(map[rdf.ID]int)
		}
		j = len(r.red.Terms)
		r.idx[a] = j
		r.red.Terms = append(r.red.Terms, GroupTerm{A: a})
	}
	return &r.red.Terms[j]
}

// add credits n completions with group a and counted value beta to a
// COUNT, SUM or AVG reduction.
func (r *reducer) add(a, beta rdf.ID, n int64) {
	r.red.Total += n
	if r.q.Agg == query.AggCount {
		r.term(a).Num += float64(n)
		return
	}
	if v, ok := r.ns.Numeric(beta); ok {
		t := r.term(a)
		t.Num += v * float64(n)
		t.Den += float64(n)
	}
}

// computeSuffixAgg is the uncached enumeration-and-aggregation body of
// SuffixAgg. The returned slice is treated as immutable once cached (shared
// caches publish it across goroutines).
func (e *Evaluator) computeSuffixAgg(i int, b query.Bindings) []SuffixGroup {
	alpha := e.pl.Query.Alpha
	beta := e.pl.Query.Beta

	type akey struct{ a, b rdf.ID }
	accum := make(map[akey]*SuffixGroup)
	order := make([]akey, 0, 4)
	e.EnumerateSuffix(i, b, func(bind query.Bindings, prob float64) {
		a := GlobalGroup
		if alpha != query.NoVar {
			a = bind[alpha]
		}
		key := akey{a, bind[beta]}
		g := accum[key]
		if g == nil {
			g = &SuffixGroup{A: a, B: bind[beta]}
			accum[key] = g
			order = append(order, key)
		}
		g.N++
		g.P += prob
	})
	agg := make([]SuffixGroup, 0, len(order))
	for _, key := range order {
		agg = append(agg, *accum[key])
	}
	return agg
}
