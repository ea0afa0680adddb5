package live

import (
	"errors"
	"math/rand"

	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// ErrDistinctOverlay reports a COUNT(DISTINCT) plan on the overlay walker.
// Distinct estimation over the merged view would need tombstone-aware
// per-value dedup reconciliation across the layers; rather than risk a
// silently biased estimate, the walker refuses and callers route distinct
// queries to the exact path (Exact), which enumerates the merged view —
// the same "exact, never biased" policy the stratified sampler applies to
// DISTINCT (see DESIGN's fallback taxonomy).
var ErrDistinctOverlay = errors.New(
	"live: COUNT(DISTINCT) is not estimated over the overlay; use the exact path")

// WalkerOptions configure one overlay walker.
type WalkerOptions struct {
	// Threshold is the Audit Join tipping point with core.Options
	// semantics: suffix estimates at or below it switch the walk to the
	// exact finish. Negative never tips (pure Wander Join); zero means
	// core.DefaultThreshold.
	Threshold float64
	// Seed seeds the walker's private random source.
	Seed int64
	// Estimator drives the tipping oracle; nil selects span statistics
	// summed over base+delta. (Adjacent-step widths always come from the
	// exact merged resolver regardless.)
	Estimator card.Estimator
}

// Walker runs Audit Join walks over an overlay View: roots sample
// uniformly from the merged root span (base incl. tombstones + delta, so
// d₁ is the merged width), later steps resolve and sample through the
// two-layer resolver, and a draw that lands on a tombstoned triple rejects
// the walk — Horvitz–Thompson-unbiased for the live triple set. Tipped
// walks finish exactly by merged-view enumeration memoized per walker.
//
// A Walker is an exec.Stepper; it is not safe for concurrent use. It holds
// the View captured at creation: estimates refer to that generation, which
// is exactly the snapshot-consistency a chart run wants under ingest.
type Walker struct {
	v      *View
	pl     *query.Plan
	res    *resolver
	oracle card.Suffix
	thresh float64
	rng    *rand.Rand
	acc    *wj.Acc

	// b is the walk binding buffer, gb the suffix-enumeration scratch.
	b  query.Bindings
	gb query.Bindings

	// iface[i] lists the interface variables of boundary i (ctj's
	// cache-key discipline): bound before i, used at or after i.
	iface [][]query.Var
	cache map[aggKey]*ctj.Reduced

	rootSpan spanPair
	rootLen  int

	tipped int64
	diag   core.TipDiag
}

// maxIfaceVals bounds the fixed-size suffix cache key; walks whose
// interface does not fit compute uncached.
const maxIfaceVals = 8

type aggKey struct {
	step int8
	vals [maxIfaceVals]rdf.ID
}

// NewWalker creates an overlay walker for the view. Distinct plans fail
// with ErrDistinctOverlay.
func NewWalker(v *View, pl *query.Plan, opts WalkerOptions) (*Walker, error) {
	if pl.Query.Distinct {
		return nil, ErrDistinctOverlay
	}
	thresh := opts.Threshold
	if thresh == 0 {
		thresh = core.DefaultThreshold
	}
	res := newResolver(v, pl)
	est := opts.Estimator
	if est == nil {
		est = v.SpanStats()
	}
	w := &Walker{
		v:      v,
		pl:     pl,
		res:    res,
		oracle: est.NewSuffix(pl, resolverWidth{res}),
		thresh: thresh,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		acc:    wj.NewAcc(),
		b:      pl.NewBindings(),
		gb:     pl.NewBindings(),
		cache:  make(map[aggKey]*ctj.Reduced),
	}
	// The root step has no join variables, so its merged span is constant.
	w.rootSpan, _ = res.resolve(0, w.b)
	w.rootLen = w.rootSpan.total
	w.iface = ifaceVars(pl)
	return w, nil
}

// ifaceVars computes ctj's interface-variable sets per step boundary.
func ifaceVars(pl *query.Plan) [][]query.Var {
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
		// the variable drops out of intermediate interfaces and the suffix
		// cache serves aggregates across bindings the filter distinguishes.
		for _, fi := range st.Filters {
			for _, v := range pl.Query.Filters[fi].Vars() {
				if lastUse[v] < i {
					lastUse[v] = i
				}
			}
		}
	}
	iface := make([][]query.Var, n+1)
	for i := 0; i <= n; i++ {
		for v := 0; v < pl.NumVars(); v++ {
			if firstBound[v] >= 0 && firstBound[v] < i && lastUse[v] >= i {
				iface[i] = append(iface[i], query.Var(v))
			}
		}
	}
	return iface
}

// Step performs one walk.
func (w *Walker) Step() {
	w.acc.N++
	if w.rootLen == 0 {
		w.acc.Rejected++
		return
	}
	b := w.b
	b.Reset()
	st0 := &w.pl.Steps[0]
	prodD := 1.0
	if st0.Kind != query.AccessMembership {
		t, live := w.res.sample(0, w.rootSpan, w.rng)
		if !live {
			w.acc.Rejected++
			return
		}
		st0.Bind(t, b)
		prodD = float64(w.rootLen)
		// A failed FILTER rejects the walk — a zero-weight HT draw, the same
		// mechanism as a tombstone hit — so estimates stay unbiased for the
		// filtered live counts.
		if len(st0.Filters) > 0 && !w.pl.StepFiltersOK(0, w.v, b) {
			w.acc.Rejected++
			return
		}
	}
	last := len(w.pl.Steps) - 1
	for i := 0; ; i++ {
		if i > 0 {
			st := &w.pl.Steps[i]
			sp, ok := w.res.resolve(i, b)
			if !ok {
				w.acc.Rejected++
				return
			}
			if st.Kind != query.AccessMembership {
				t, live := w.res.sample(i, sp, w.rng)
				if !live {
					w.acc.Rejected++
					return
				}
				st.Bind(t, b)
				prodD *= float64(sp.total)
				if len(st.Filters) > 0 && !w.pl.StepFiltersOK(i, w.v, b) {
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

// finish completes a walk exactly: the reduced live suffix aggregation
// beyond step i (memoized per walker) is credited through core.Finish.
func (w *Walker) finish(i int, b query.Bindings, prodD, tipEst float64, tipped bool) {
	core.Finish(w.acc, &w.diag, w.pl.Query, w.suffixReduced(i, b), prodD, tipEst, tipped)
}

func (w *Walker) suffixReduced(i int, b query.Bindings) *ctj.Reduced {
	k, ok := w.aggKeyAt(i+1, b)
	if !ok {
		return w.computeSuffixReduced(i, b)
	}
	if red, hit := w.cache[k]; hit {
		return red
	}
	red := w.computeSuffixReduced(i, b)
	w.cache[k] = red
	return red
}

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

// computeSuffixReduced enumerates the live suffix beyond step i and reduces
// it as it goes: only the per-group terms are cached, so a warm walk costs
// O(groups).
func (w *Walker) computeSuffixReduced(i int, b query.Bindings) *ctj.Reduced {
	q := w.pl.Query
	copy(w.gb, b)
	gb := w.gb
	return ctj.ReducePaths(q, w.v, func(visit func(a, beta rdf.ID)) {
		_ = w.res.enumerate(i+1, gb, func() error {
			a := rdf.NoID
			if q.Alpha != query.NoVar {
				a = gb[q.Alpha]
			}
			visit(a, gb[q.Beta])
			return nil
		})
	})
}

// Walks returns the number of walks performed; with Step and Snapshot it
// makes the Walker an exec.Stepper.
func (w *Walker) Walks() int64 { return w.acc.N }

// RootCard returns the walker's root population size — the number of live
// root triples its walks draw from.
func (w *Walker) RootCard() int64 { return int64(w.rootLen) }

// Snapshot returns the running estimates with 0.95 confidence intervals.
func (w *Walker) Snapshot() wj.Result { return w.acc.Snapshot(stats.Z95) }

// Acc exposes the accumulator.
func (w *Walker) Acc() *wj.Acc { return w.acc }

// Tipped returns how many walks switched to the exact finish.
func (w *Walker) Tipped() int64 { return w.tipped }

// TipDiag returns the walker's estimate-vs-actual tipping diagnostics.
func (w *Walker) TipDiag() core.TipDiag { return w.diag }

// View returns the view the walker was created over.
func (w *Walker) View() *View { return w.v }
