package ctj

import (
	"math"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// probMaterializeLimit bounds the estimated join size up to which the
// evaluator computes every Pr(a,b) in a single full-join pass instead of
// lazily per pair. Exploration queries are highly selective (the paper
// reports average selectivities near 1), so their filtered joins are small
// and one pass is far cheaper than per-pair path enumeration — especially
// with hub values whose in-degree makes single-pair enumeration expensive.
const probMaterializeLimit = 1 << 20

// PathProbB returns Pr(b): the probability that a random walk over the plan
// completes with Beta = b — the sum over all full paths γ with β(γ) = b of
// ∏_j 1/d_j (paper §IV-D, "Distinct"). Results are cached per b; the paper
// computes these online with CTJ in the same way ("materialize all paths
// leading to the sampled b, summing up their probabilities, and caching the
// results").
func (e *Evaluator) PathProbB(b rdf.ID) float64 {
	key := probKey(rdf.NoID, b)
	if e.shared != nil {
		return e.sharedProb(key, func() float64 {
			return e.pathProb(map[query.Var]rdf.ID{e.pl.Query.Beta: b})
		})
	}
	if p, ok := e.probCache[key]; ok {
		e.stats.ProbHits++
		return p
	}
	if e.maybeMaterializeProbs() {
		return e.probCache[key] // zero for unreachable b
	}
	e.stats.ProbMisses++
	p := e.pathProb(map[query.Var]rdf.ID{e.pl.Query.Beta: b})
	e.probCache[key] = p
	return p
}

// PathProbAB returns Pr(a, b): the probability that a random walk completes
// with Alpha = a and Beta = b. For ungrouped queries pass a = GlobalGroup;
// the group constraint is then vacuous and the result equals Pr(b).
func (e *Evaluator) PathProbAB(a, b rdf.ID) float64 {
	if e.pl.Query.Alpha == query.NoVar || a == GlobalGroup {
		return e.PathProbB(b)
	}
	key := probKey(a, b)
	if e.shared != nil {
		return e.sharedProb(key, func() float64 {
			return e.pathProb(map[query.Var]rdf.ID{e.pl.Query.Alpha: a, e.pl.Query.Beta: b})
		})
	}
	if p, ok := e.probCache[key]; ok {
		e.stats.ProbHits++
		return p
	}
	if e.maybeMaterializeProbs() {
		return e.probCache[key]
	}
	e.stats.ProbMisses++
	p := e.pathProb(map[query.Var]rdf.ID{e.pl.Query.Alpha: a, e.pl.Query.Beta: b})
	e.probCache[key] = p
	return p
}

// maybeMaterializeProbs decides once, on the first probability miss, whether
// to compute every Pr(b) and Pr(a,b) in one pass over the (filtered) join.
// Returns true when the cache is fully materialized.
func (e *Evaluator) maybeMaterializeProbs() bool {
	if e.probsMaterialized {
		return true
	}
	if e.probDecided {
		return false
	}
	e.probDecided = true
	size := e.estimator().JoinSize(e.pl).Value
	if size > probMaterializeLimit {
		return false
	}
	// The one-pass enumeration is the cache-fill work, so it is accounted as
	// a single ProbMiss: per-worker miss counts then reflect who actually
	// paid for the probabilities (each private evaluator once; with a shared
	// cache, one worker per run), instead of hiding the pass behind the
	// ProbMaterialized flag.
	t := e.materializeProbs(size)
	e.probCache, e.distinct = t.probs, t.distinct
	e.stats.ProbMisses++
	e.stats.ProbMaterialized = true
	e.probsMaterialized = true
	return true
}

// DistinctExact returns the exact COUNT(DISTINCT) answer — reachable counted
// values per group — once this session's cache holds the materialized
// probability table (the pass that fills the table counts the pairs), and nil
// before that or when the session stays lazy. It never triggers the pass.
// The map is read-only.
func (e *Evaluator) DistinctExact() map[rdf.ID]float64 {
	if e.shared == nil {
		return e.distinct
	}
	if t := e.shared.probMat.Load(); t != nil {
		return t.distinct
	}
	return nil
}

// probTable is one materialized pass over the full join: every reachable
// Pr(b) and Pr(a,b), and the exact COUNT(DISTINCT) answer those keys spell
// out — the number of reachable b per group. Immutable once built (shared
// caches publish it across goroutines).
type probTable struct {
	probs    map[uint64]float64
	distinct map[rdf.ID]float64
}

// probTableHintCap bounds the presized table. The join-size estimate is off
// by 4x at the median and 35x at the 90th percentile on the benchmark's
// plans, in both directions: an uncapped hint measured 50 % slower on a plan
// estimated at 584K paths whose table holds 250K pairs (a 38 MB map to clear
// and miss in), and would pin that memory per warm plan cache for tables
// that end up empty. Up to the cap the hint saves the early regrowth of
// small and middling tables; past it the map's own growth is the better
// estimator.
const probTableHintCap = 1 << 14

// materializeProbs enumerates the full join once, accumulating the walk
// probability ∏ 1/d_j of every path into its Pr(a,b) and Pr(b) entries. The
// d_j come for free: they are the very span lengths the enumeration descends
// into. joinSize is the estimate the materialize-or-lazy decision has just
// computed; the table is presized from it (see probTableHintCap).
func (e *Evaluator) materializeProbs(joinSize float64) *probTable {
	alpha, beta := e.pl.Query.Alpha, e.pl.Query.Beta
	grouped := alpha != query.NoVar
	hint := int(math.Min(joinSize, probTableHintCap))
	if grouped {
		hint *= 2 // a Pr(b) and a Pr(a,b) entry per pair, at worst
	}
	m := make(map[uint64]float64, hint)
	b := e.pl.NewBindings()
	var rec func(j int, prob float64)
	rec = func(j int, prob float64) {
		if j == len(e.pl.Steps) {
			bb := b[beta]
			m[probKey(rdf.NoID, bb)] += prob
			if grouped {
				m[probKey(b[alpha], bb)] += prob
			}
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
			if len(st.Filters) > 0 && !e.pl.StepFiltersOK(j, e.store, b) {
				continue // a rejected walk contributes no probability mass
			}
			rec(j+1, p)
		}
		st.Unbind(b)
	}
	rec(0, 1)
	// Every key is a reachable value or pair (a path's probability is
	// positive), so the table already is the distinct answer: one scan here,
	// once, instead of a test per enumerated path.
	distinct := make(map[rdf.ID]float64)
	if !grouped {
		if len(m) > 0 {
			distinct[GlobalGroup] = float64(len(m))
		}
	} else {
		for k := range m {
			if a := rdf.ID(k >> 32); a != rdf.NoID {
				distinct[a]++
			}
		}
	}
	return &probTable{probs: m, distinct: distinct}
}

// pathProb sums walk probabilities over all full paths whose variable
// assignment agrees with presets.
//
// The paths are enumerated through a *constrained* plan in which the preset
// variables are replaced by constants and the patterns are reordered to
// start from the most-constrained pattern — so the enumeration touches only
// the few paths that actually lead to the preset values, never the whole
// join. Each enumerated path's probability is then computed against the
// ORIGINAL plan: d_j is the size of the candidate set the unconstrained walk
// would see at step j given the path's bindings.
func (e *Evaluator) pathProb(presets map[query.Var]rdf.ID) float64 {
	cpl := e.constrainedPlan(presets)
	if cpl == nil {
		return 0
	}
	var sum float64
	origBind := e.pl.NewBindings()
	b := cpl.NewBindings()
	var rec func(j int)
	rec = func(j int) {
		if j == len(cpl.Steps) {
			// The fallback plan binds preset variables during enumeration;
			// skip paths that contradict a preset. (Under the constrained
			// plan preset variables stay unbound — the constants did the
			// filtering — so this check passes trivially.)
			for v, want := range presets {
				if int(v) < len(b) && b[v] != rdf.NoID && b[v] != want {
					return
				}
			}
			sum += e.walkProbability(b, origBind, presets)
			return
		}
		st := &cpl.Steps[j]
		sp, ok := st.ResolveSpan(e.store, b)
		if !ok {
			return
		}
		if st.Kind == query.AccessMembership {
			rec(j + 1)
			return
		}
		ts := e.store.Triples(st.Order)
		for t := sp.Lo; t < sp.Hi; t++ {
			st.Bind(ts[t], b)
			rec(j + 1)
		}
		st.Unbind(b)
	}
	rec(0)
	return sum
}

// walkProbability computes ∏_j 1/d_j for one full path under the original
// plan, where the path's bindings are the enumeration bindings b completed
// with the preset values.
func (e *Evaluator) walkProbability(b, orig query.Bindings, presets map[query.Var]rdf.ID) float64 {
	for v := range orig {
		if v < len(b) {
			orig[v] = b[v]
		} else {
			orig[v] = rdf.NoID
		}
	}
	for v, val := range presets {
		if orig[v] == rdf.NoID {
			orig[v] = val
		}
	}
	// The constrained plan enumerates without the query's filters (preset
	// variables may have turned into constants there), so the filter check
	// happens here, on the completed original bindings: filter-failing paths
	// are walks that would have been rejected and carry no probability.
	if e.pl.HasFilters() && !e.pl.FiltersOK(e.store, orig) {
		return 0
	}
	prob := 1.0
	for j := range e.pl.Steps {
		st := &e.pl.Steps[j]
		if st.Kind == query.AccessMembership {
			continue // d_j = 1
		}
		sp, ok := st.ResolveSpan(e.store, orig)
		if !ok {
			return 0 // cannot happen for a genuine path; defensive
		}
		prob /= float64(sp.Len())
	}
	return prob
}

// constrainedPlan compiles the original query with the preset variables
// replaced by constants, reordered so that the most-constrained patterns
// are enumerated first. Returns nil when no servable order exists (then the
// probability is computed as zero; with the four maintained index orders
// this does not occur for exploration queries).
func (e *Evaluator) constrainedPlan(presets map[query.Var]rdf.ID) *query.Plan {
	q := e.pl.Query
	subst := func(a query.Atom) query.Atom {
		if a.IsVar() {
			if v, ok := presets[a.Var]; ok {
				return query.C(v)
			}
		}
		return a
	}
	pats := make([]query.Pattern, len(q.Patterns))
	for i, p := range q.Patterns {
		pats[i] = query.Pattern{S: subst(p.S), P: subst(p.P), O: subst(p.O)}
	}

	// Greedy connected order: start from the pattern with the most
	// constants; repeatedly append the connected pattern with the most
	// bound positions. Ties break on the original index for determinism.
	n := len(pats)
	used := make([]bool, n)
	bound := map[query.Var]bool{}
	consts := func(i int) int {
		c := 0
		for _, a := range []query.Atom{pats[i].S, pats[i].P, pats[i].O} {
			if !a.IsVar() || bound[a.Var] {
				c++
			}
		}
		return c
	}
	connected := func(i int) bool {
		for _, a := range []query.Atom{pats[i].S, pats[i].P, pats[i].O} {
			if a.IsVar() && bound[a.Var] {
				return true
			}
		}
		return false
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if len(order) > 0 && !connected(i) {
				continue
			}
			if s := consts(i); s > bestScore {
				best, bestScore = i, s
			}
		}
		if best < 0 {
			// Disconnected remainder (outside the fragment): append the
			// densest remaining pattern; it becomes a cartesian step.
			for i := 0; i < n; i++ {
				if !used[i] && consts(i) > bestScore {
					best, bestScore = i, consts(i)
				}
			}
		}
		used[best] = true
		order = append(order, best)
		for _, a := range []query.Atom{pats[best].S, pats[best].P, pats[best].O} {
			if a.IsVar() {
				bound[a.Var] = true
			}
		}
	}

	cq := &query.Query{Alpha: query.NoVar, Beta: q.Beta, Agg: q.Agg}
	for _, i := range order {
		cq.Patterns = append(cq.Patterns, pats[i])
	}
	// Beta may have become a constant; CompileUnchecked does not validate,
	// so that is fine — the plan is only used for enumeration.
	pl, err := query.CompileUnchecked(cq)
	if err != nil {
		// A mask like (s,o)-bound without p can arise for unusual preset
		// positions; fall back to the original plan, which always compiles.
		// The presets then act as enumeration filters only (the leaf check
		// in pathProb), which is slow but always valid.
		return e.pl
	}
	return pl
}
