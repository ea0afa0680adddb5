package shard

import (
	"errors"
	"fmt"
	"math/rand"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// ErrDistinctNotOwned reports a COUNT(DISTINCT) plan whose distinct
// variable is not owned by the partition key; per-stratum estimation would
// double-count values across shards, so callers must use Set.Exact (which
// RunScatter does automatically).
var ErrDistinctNotOwned = errors.New(
	"shard: COUNT(DISTINCT) with a distinct variable the partition key does not own; fall back to Set.Exact")

// Owned reports whether COUNT(DISTINCT) over this plan can be estimated
// stratum-locally. The condition is ownership of the distinct variable by
// the partition key: β is the SUBJECT of the root pattern, so every
// distinct (group, β-value) pair is witnessed only by root triples in the
// shard that β's value hashes to, and per-stratum distinct estimates sum
// without cross-shard double counting. The subject-restricted root access
// must also be servable by the four index orders (it is not when the root
// has a constant object but a variable predicate), because the estimator
// needs the EXACT per-value root count n_v, not an estimate.
func Owned(pl *query.Plan) bool {
	q := pl.Query
	if !q.Distinct {
		return false
	}
	st0 := &pl.Steps[0]
	s := st0.Pattern.S
	if !s.IsVar() || s.Var != q.Beta {
		return false
	}
	mask := st0.Bound
	mask[index.S] = true
	_, _, err := query.AccessFor(mask)
	return err == nil
}

// WalkerOptions configure one stratum walker.
type WalkerOptions struct {
	// Threshold is the Audit Join tipping point, with core.Options
	// semantics: estimated suffix sizes at or below it switch the walk to
	// the exact finish. Negative never tips (pure Wander Join sampling);
	// +Inf always tips.
	Threshold float64
	// Seed seeds the walker's private random source.
	Seed int64
	// Cache is the stratum's shared suffix cache; nil creates a private
	// one. All walkers of one stratum's pool should share a Cache.
	Cache *Cache
	// Estimator drives the tipping oracle and the stratum's root-cardinality
	// weight; nil selects span statistics over the whole set. Root counts are
	// exact under every shipped estimator, so walk allocation does not depend
	// on the choice.
	Estimator card.Estimator
	// Root, when non-nil, restricts this walker to one SEMANTIC sub-stratum
	// of the shard's root span (index.StratifyRoots over the shard store):
	// roots sample uniformly from the sub-stratum and the inverse
	// probability uses its size, nesting characteristic-set strata inside
	// the shard strata. The (shard × bucket) leaves stay disjoint, so their
	// accumulators flat-merge through wj.MergeStratified.
	Root *index.RootStratum
}

// Walker runs stratified Audit Join walks for ONE stratum of a sharded
// set: stratum k covers exactly the join paths whose root triple lives in
// shard k. The root step samples from shard k's root span alone (d_1 = that
// span's length); every later step resolves and samples over the union of
// all shards through the resolver, so the stratum's Horvitz–Thompson
// estimate is unbiased for the stratum total. Tipped walks finish exactly
// by a resolver-backed suffix enumeration memoized in the stratum Cache —
// the sharded counterpart of Audit Join's CTJ finish.
//
// A Walker is an exec.Stepper; it is not safe for concurrent use — create
// one per goroutine and share the Cache.
type Walker struct {
	set     *Set
	pl      *query.Plan
	stratum int
	res     *resolver
	oracle  card.Suffix
	cache   *Cache
	thresh  float64
	rng     *rand.Rand
	acc     *wj.Acc

	// b is the walk binding buffer, gb the enumeration scratch buffer
	// (owned-distinct group computation must not disturb a walk in
	// progress), subBuf the reusable span-gather buffer.
	b      query.Bindings
	gb     query.Bindings
	subBuf []subspan

	// iface[i] lists the interface variables of boundary i (ctj's cache-key
	// discipline): bound before i, used at or after i.
	iface [][]query.Var

	rootSpan index.Span
	rootLen  int
	// root is the optional semantic sub-stratum restriction (nil samples the
	// whole shard root span); when set, rootLen is the sub-stratum size.
	root *index.RootStratum
	// rootCard is the stratum weight reported to the scatter allocator,
	// answered by the estimator (exactly, for both shipped estimators).
	rootCard int

	// owned-distinct state (see Owned): the access for the root pattern
	// restricted to one subject value.
	owned    bool
	ownKind  query.AccessKind
	ownOrder index.Order

	tipped int64
	diag   core.TipDiag
}

// NewWalker creates the stratum walker. It fails with ErrDistinctNotOwned
// for distinct plans the stratified estimator cannot serve.
func NewWalker(set *Set, pl *query.Plan, stratum int, opts WalkerOptions) (*Walker, error) {
	if pl.Query.Distinct && !Owned(pl) {
		return nil, ErrDistinctNotOwned
	}
	if set.stores[stratum] == nil {
		// Root sampling, the owned-distinct n_v lookup and the allocation
		// weight all need direct store access; later steps may be remote.
		return nil, fmt.Errorf("shard: stratum %d is not local to this process", stratum)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	res, err := newResolver(set, pl)
	if err != nil {
		return nil, err
	}
	est := setEstimator(set, opts.Estimator)
	w := &Walker{
		set:     set,
		pl:      pl,
		stratum: stratum,
		res:     res,
		oracle:  est.NewSuffix(pl, resolverWidth{res}),
		cache:   cache,
		thresh:  opts.Threshold,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		acc:     wj.NewAcc(),
		b:       pl.NewBindings(),
		gb:      pl.NewBindings(),
	}

	// Root span of this stratum. Step 0 has no join variables, so it is
	// always static; the stratum view absorbs the static-span cache either
	// way.
	st0 := &pl.Steps[0]
	var ss query.StaticSpan
	ss.Span, ss.OK = res.views[stratum].Resolve(0, pl.NewBindings())
	if ss.OK {
		w.rootSpan = ss.Span
		if st0.Kind == query.AccessMembership {
			w.rootLen = 1
		} else {
			w.rootLen = ss.Span.Len()
		}
	}
	if opts.Root != nil {
		// Semantic sub-stratum: roots draw from the restricted segment set.
		// The membership-root case never stratifies (callers check), so
		// rootLen is always the sub-stratum size here.
		w.root = opts.Root
		w.rootLen = opts.Root.Total
	}
	// The allocator weight comes from the estimator scoped to this stratum's
	// store, not from the span directly: both shipped estimators answer root
	// counts exactly, so this equals rootLen while keeping every budget
	// decision behind the card layer. A sub-stratified walker's weight is its
	// sub-stratum size, exact by construction.
	if w.root != nil {
		w.rootCard = w.root.Total
	} else {
		w.rootCard = int(est.Scope(set.stores[stratum]).RootCount(pl).Value)
	}

	// ctj-style interface variables for suffix-cache keys.
	n := len(pl.Steps)
	firstBound := make([]int, pl.NumVars())
	lastUse := make([]int, pl.NumVars())
	for v := range firstBound {
		firstBound[v], lastUse[v] = -1, -1
	}
	for i, st := range pl.Steps {
		for _, a := range []query.Atom{st.Pattern.S, st.Pattern.P, st.Pattern.O} {
			if a.IsVar() {
				if firstBound[a.Var] == -1 {
					firstBound[a.Var] = i
				}
				lastUse[a.Var] = i
			}
		}
		// A filter anchored at step i reads its variables at i; without this
		// the variable drops out of intermediate interfaces and the stratum
		// cache serves suffixes across bindings the filter distinguishes.
		for _, fi := range st.Filters {
			for _, v := range pl.Query.Filters[fi].Vars() {
				if lastUse[v] < i {
					lastUse[v] = i
				}
			}
		}
	}
	w.iface = make([][]query.Var, n+1)
	for i := 0; i <= n; i++ {
		for v := 0; v < pl.NumVars(); v++ {
			if firstBound[v] >= 0 && firstBound[v] < i && lastUse[v] >= i {
				w.iface[i] = append(w.iface[i], query.Var(v))
			}
		}
	}

	if pl.Query.Distinct {
		w.owned = true
		mask := st0.Bound
		mask[index.S] = true
		kind, order, err := query.AccessFor(mask)
		if err != nil {
			return nil, ErrDistinctNotOwned // unreachable: Owned checked above
		}
		w.ownKind, w.ownOrder = kind, order
	}
	return w, nil
}

// RootCard returns the stratum's root-pattern cardinality — the weight the
// proportional walk allocation uses — as answered by the estimator.
func (w *Walker) RootCard() int { return w.rootCard }

// Step performs one stratified walk.
func (w *Walker) Step() {
	w.acc.N++
	if w.rootLen == 0 {
		// Empty stratum: its true total is zero, every walk rejects. The
		// driver normally allocates no walks here.
		w.acc.Rejected++
		return
	}
	if w.owned {
		w.stepOwned()
		return
	}
	b := w.b
	b.Reset()
	st0 := &w.pl.Steps[0]
	prodD := 1.0
	if st0.Kind != query.AccessMembership {
		st0.Bind(w.sampleRoot(st0), b)
		prodD = float64(w.rootLen)
		// A failed FILTER rejects the walk — a zero-weight HT draw — exactly
		// as in the single-store runners, so stratum estimates stay unbiased
		// for the filtered totals.
		if len(st0.Filters) > 0 && !w.pl.StepFiltersOK(0, w.set, b) {
			w.acc.Rejected++
			return
		}
	}
	last := len(w.pl.Steps) - 1
	for i := 0; ; i++ {
		if i > 0 {
			st := &w.pl.Steps[i]
			subs, total, ok := w.res.resolve(i, b, w.subBuf[:0])
			w.subBuf = subs[:0]
			if !ok {
				w.acc.Rejected++
				return
			}
			if st.Kind != query.AccessMembership {
				t := w.res.sample(i, subs, total, w.rng)
				st.Bind(t, b)
				prodD *= float64(total)
				if len(st.Filters) > 0 && !w.pl.StepFiltersOK(i, w.set, b) {
					w.acc.Rejected++
					return
				}
			}
		}
		if i == last {
			w.finish(i, b, prodD, 0, false)
			return
		}
		if est := w.oracle.Estimate(i, b); est <= w.thresh {
			w.tipped++
			w.finish(i, b, prodD, est, true)
			return
		}
	}
}

// sampleRoot draws a uniform root triple: from the semantic sub-stratum
// when one is set, otherwise from the shard's whole root span. Both draw
// from exactly rootLen triples, so prodD = rootLen either way.
func (w *Walker) sampleRoot(st0 *query.Step) rdf.Triple {
	store := w.set.stores[w.stratum]
	if w.root != nil {
		return w.root.Sample(store, st0.Order, w.rng)
	}
	return store.At(st0.Order, w.rootSpan, w.rng.Intn(w.rootLen))
}

// stepOwned is the owned-distinct walk: sample a root triple uniformly
// from the stratum root span, look up (memoized) the distinct groups
// reachable from its subject v and the exact count n_v of root triples
// with that subject, and credit rootLen/n_v to each group. Summed over
// walks and divided by N this is unbiased for the stratum's per-group
// distinct count: each subject is drawn with probability n_v/rootLen and
// contributes rootLen/n_v once per group it reaches.
func (w *Walker) stepOwned() {
	st0 := &w.pl.Steps[0]
	t := w.sampleRoot(st0)
	groups, nv := w.groupsOf(t.S)
	if len(groups) == 0 || nv == 0 {
		w.acc.Rejected++
		return
	}
	x := float64(w.rootLen) / float64(nv)
	for _, a := range groups {
		w.acc.Add(a, x)
	}
}

func (w *Walker) groupsOf(v rdf.ID) ([]rdf.ID, int) {
	if ge, ok := w.cache.getGroups(v); ok {
		return ge.groups, ge.rootN
	}
	ge := w.cache.putGroups(v, w.computeGroups(v))
	return ge.groups, ge.rootN
}

// rootSpanFor resolves the root pattern restricted to subject v on the
// stratum store — the n_v lookup. Exact by construction: Owned rejected
// the one access combination the orders cannot serve.
func (w *Walker) rootSpanFor(v rdf.ID) (index.Span, int) {
	st := w.set.stores[w.stratum]
	p := w.pl.Steps[0].Pattern
	switch w.ownKind {
	case query.AccessL1:
		sp := st.SpanL1(index.SPO, v)
		return sp, sp.Len()
	case query.AccessL2:
		sp := st.SpanL2(index.PSO, p.P.ID, v)
		return sp, sp.Len()
	default: // membership: predicate and object constant
		if st.Contains(rdf.Triple{S: v, P: p.P.ID, O: p.O.ID}) {
			return index.Span{}, 1
		}
		return index.Span{}, 0
	}
}

func (w *Walker) computeGroups(v rdf.ID) groupEntry {
	sp, n := w.rootSpanFor(v)
	if n == 0 {
		return groupEntry{}
	}
	st0 := &w.pl.Steps[0]
	store := w.set.stores[w.stratum]
	q := w.pl.Query
	b := w.gb
	b.Reset()
	seen := make(map[rdf.ID]struct{})
	visit := func() error {
		a := wj.GlobalGroup
		if q.Alpha != query.NoVar {
			a = b[q.Alpha]
		}
		seen[a] = struct{}{}
		return nil
	}
	// Root-anchored filters gate each enumeration; deeper anchors are
	// enforced inside the resolver's enumerate.
	rootOK := func() bool {
		return len(st0.Filters) == 0 || w.pl.StepFiltersOK(0, w.set, b)
	}
	if w.ownKind == query.AccessMembership {
		st0.Bind(rdf.Triple{S: v, P: st0.Pattern.P.ID, O: st0.Pattern.O.ID}, b)
		if rootOK() {
			_ = w.res.enumerate(1, b, visit)
		}
	} else {
		for i := 0; i < sp.Len(); i++ {
			st0.Bind(store.At(w.ownOrder, sp, i), b)
			if rootOK() {
				_ = w.res.enumerate(1, b, visit)
			}
		}
	}
	st0.Unbind(b)
	groups := make([]rdf.ID, 0, len(seen))
	for a := range seen {
		groups = append(groups, a)
	}
	return groupEntry{groups: groups, rootN: n}
}

// finish completes a walk exactly: the reduced suffix aggregation beyond
// step i (enumerated through the resolver, or fetched from the stratum
// cache) is credited through core.Finish — core.Runner's finish over the
// resolver instead of a single-store CTJ.
func (w *Walker) finish(i int, b query.Bindings, prodD, tipEst float64, tipped bool) {
	core.Finish(w.acc, &w.diag, w.pl.Query, w.suffixReduced(i, b), prodD, tipEst, tipped)
}

func (w *Walker) suffixReduced(i int, b query.Bindings) *ctj.Reduced {
	k, ok := w.aggKeyAt(i+1, b)
	if !ok {
		return w.computeSuffixReduced(i, b)
	}
	if red, hit := w.cache.getAgg(k); hit {
		return red
	}
	return w.cache.putAgg(k, w.computeSuffixReduced(i, b))
}

// aggKeyAt builds the cache key for boundary step: the interface variable
// values plus the already-bound α/β (ctj.SuffixAgg's key discipline). ok is
// false when the values do not fit the fixed key, in which case the caller
// computes uncached.
func (w *Walker) aggKeyAt(step int, b query.Bindings) (aggKey, bool) {
	q := w.pl.Query
	k := aggKey{step: int8(step)}
	i := 0
	for _, v := range w.iface[step] {
		if i >= maxIfaceVals {
			return k, false
		}
		k.vals[i] = b[v]
		i++
	}
	for _, v := range []query.Var{q.Alpha, q.Beta} {
		if i >= maxIfaceVals {
			return k, false
		}
		if v != query.NoVar {
			k.vals[i] = b[v]
		} else {
			k.vals[i] = rdf.NoID
		}
		i++
	}
	for ; i < maxIfaceVals; i++ {
		k.vals[i] = rdf.NoID
	}
	return k, true
}

// computeSuffixReduced enumerates the suffix beyond step i and reduces it as
// it goes: only the per-group terms are cached, so a warm walk costs
// O(groups). Distinct plans never reach it (stepOwned).
func (w *Walker) computeSuffixReduced(i int, b query.Bindings) *ctj.Reduced {
	q := w.pl.Query
	return ctj.ReducePaths(q, w.set, func(visit func(a, beta rdf.ID)) {
		_ = w.res.enumerate(i+1, b, func() error {
			a := rdf.NoID
			if q.Alpha != query.NoVar {
				a = b[q.Alpha]
			}
			visit(a, b[q.Beta])
			return nil
		})
	})
}

// Walks returns the number of walks performed; with Step and Snapshot it
// makes the Walker an exec.Stepper.
func (w *Walker) Walks() int64 { return w.acc.N }

// Snapshot returns the STRATUM estimate (sum/N over this stratum's walks)
// with 0.95 intervals. Global results come from merging stratum
// accumulators with wj.MergeStratified.
func (w *Walker) Snapshot() wj.Result { return w.acc.Snapshot(stats.Z95) }

// Acc exposes the stratum accumulator.
func (w *Walker) Acc() *wj.Acc { return w.acc }

// Tipped returns how many walks switched to the exact finish.
func (w *Walker) Tipped() int64 { return w.tipped }

// TipDiag returns the walker's estimate-vs-actual tipping diagnostics.
func (w *Walker) TipDiag() core.TipDiag { return w.diag }

// Cache returns the stratum suffix cache in use.
func (w *Walker) Cache() *Cache { return w.cache }

// ViewErr returns the first sticky error a remote shard view recorded, nil
// for fully local sets. Remote views cannot fail a walk in flight (their
// resolutions degrade to empty, rejecting the walk), so drivers over
// hybrid sets must check this after a run and discard the results on
// error.
func (w *Walker) ViewErr() error { return w.res.viewErr() }
