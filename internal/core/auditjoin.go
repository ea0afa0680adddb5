// Package core implements Audit Join, the paper's primary contribution
// (§IV-D): an online-aggregation algorithm for grouped COUNT and
// COUNT(DISTINCT) over exploration queries on knowledge graphs.
//
// Audit Join runs Wander Join's random walks, but after every step it
// estimates the size of the remaining suffix join with PostgreSQL-style
// statistics; when the estimate falls below a threshold — the "tipping
// point" — it finishes the walk exactly with Cached Trie Join and folds the
// exact partial result into the estimator:
//
//	C_aj(δ) = |Γ_δ| / Pr(δ)                        (counts)
//	C_aj^d(δ) = Σ_b Pr(δ,b) / (Pr(δ)·Pr(b))        (distinct counts, Eq. 1)
//
// Both estimators are unbiased (Propositions IV.1 and IV.2); the distinct
// case needs the walk-hit probabilities Pr(a,b), which are computed online
// with CTJ and cached. Tipping early slashes the dead-end rejections that
// throttle Wander Join on highly selective exploration queries, and the CTJ
// caches make repeated prefixes nearly free.
package core

import (
	"math"
	"math/rand"

	"kgexplore/internal/card"
	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// GlobalGroup is the group key used for ungrouped queries.
const GlobalGroup = rdf.NoID

// DefaultThreshold is the default tipping-point threshold: a walk switches
// to exact computation when the estimated suffix join size drops below it.
const DefaultThreshold = 10_000

// Options configures an Audit Join runner.
type Options struct {
	// Threshold is the tipping point: estimated suffix sizes at or below it
	// trigger exact computation. Zero keeps only the degenerate tip on
	// provably empty suffixes; math.Inf(1) tips immediately at step one.
	Threshold float64
	// Seed drives the deterministic random source.
	Seed int64
	// Oracle estimates suffix sizes for the tipping decision; nil uses the
	// paper's PostgreSQL-style StatsOracle.
	Oracle TippingOracle
	// Estimator selects the cardinality estimator behind the default oracle
	// and the CTJ session's planning decisions; nil uses span statistics
	// (card.NewSpanStats). Ignored by the oracle when Oracle is set.
	Estimator card.Estimator
	// Shared, when non-nil, makes the runner's CTJ session read and write
	// this concurrency-safe shared cache instead of private maps, so several
	// runners (parallel workers, or successive server requests for the same
	// plan signature) populate one cache. The runner itself remains
	// single-threaded.
	Shared *ctj.SharedCache
	// NoSharedCache forces private per-worker caches in RunParallel, which
	// otherwise constructs one shared cache per run. It exists for the
	// shared-vs-private ablation in kgbench and has no effect on a plain New.
	NoSharedCache bool
	// Root, when non-nil, restricts the walk root to one semantic stratum:
	// step 0 samples uniformly from the stratum's segments instead of the
	// full static span, and the inverse probability uses the stratum size.
	// The runner then estimates the STRATUM total; NewStratified merges such
	// runners with wj.MergeStratified. Requires step 0 to be a static
	// sampling (non-membership) step over the span the stratum partitions.
	Root *index.RootStratum
}

// Runner executes Audit Join over one plan. It owns a CTJ evaluation
// session whose caches persist across walks. Not safe for concurrent use.
type Runner struct {
	store  *index.Store
	pl     *query.Plan
	opts   Options
	rng    *rand.Rand
	acc    *wj.Acc
	eval   *ctj.Evaluator
	oracle TippingOracle

	// b is the per-walk binding buffer and static the pre-resolved spans of
	// constant-bound steps; together they keep Step allocation-free.
	b      query.Bindings
	static []query.StaticSpan

	tipped int64 // walks that ended in a partial exact computation
	diag   TipDiag

	// fin is the finite-population finish riding beside the sample (see
	// exact.go); nil on runners that only ever sample.
	fin *finisher
}

// New creates a Runner. A non-positive Threshold in opts is kept as given
// (zero disables tipping except on empty suffixes).
func New(store *index.Store, pl *query.Plan, opts Options) *Runner {
	r := newSampler(store, pl, opts)
	if opts.Root == nil {
		// A stratum runner estimates its stratum's total, which no
		// whole-query answer describes.
		r.fin = newFinisher(r)
		r.fin.adopt(r)
	}
	return r
}

// newSampler creates a Runner that only ever samples: the workers of
// RunParallel and NewStratified, whose drivers merge accumulators and never
// read a runner's own snapshot, so a finish would be work nobody sees.
func newSampler(store *index.Store, pl *query.Plan, opts Options) *Runner {
	oracle := opts.Oracle
	if oracle == nil {
		est := opts.Estimator
		if est == nil {
			est = card.NewSpanStats(store)
		}
		oracle = NewCardOracle(est, store, pl)
	}
	eval := ctj.New(store, pl)
	if opts.Shared != nil {
		eval = ctj.NewShared(store, pl, opts.Shared)
	}
	if opts.Estimator != nil {
		eval.SetEstimator(opts.Estimator)
	}
	return &Runner{
		store:  store,
		pl:     pl,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		acc:    wj.NewAcc(),
		eval:   eval,
		oracle: oracle,
		b:      pl.NewBindings(),
		static: pl.ResolveStatic(store),
	}
}

// Step performs one Audit Join walk (Fig. 7 of the paper) and, until the
// answer is known exactly, a bounded slice of the finite-population finish.
// The finish reads no randomness and never touches the accumulator, so the
// sample after k Steps is the same with or without it.
func (r *Runner) Step() {
	r.walk()
	if r.fin != nil && r.fin.values == nil {
		r.fin.advance(r)
	}
}

// walk performs one Audit Join walk.
func (r *Runner) walk() {
	r.acc.N++
	b := r.b
	b.Reset()
	prodD := 1.0 // ∏_{j<=i} d_j = 1/Pr(δ)
	last := len(r.pl.Steps) - 1
	for i := range r.pl.Steps {
		st := &r.pl.Steps[i]
		var sp index.Span
		var ok bool
		if st.Static {
			sp, ok = r.static[i].Span, r.static[i].OK
		} else {
			sp, ok = st.ResolveSpan(r.store, b)
		}
		if !ok {
			r.acc.Rejected++
			return
		}
		if st.Kind != query.AccessMembership {
			var t rdf.Triple
			if i == 0 && r.opts.Root != nil {
				t = r.opts.Root.Sample(r.store, st.Order, r.rng)
				prodD *= float64(r.opts.Root.Total)
			} else {
				t = r.store.Sample(st.Order, sp, r.rng)
				prodD *= float64(sp.Len())
			}
			st.Bind(t, b)
			// A failed FILTER rejects the walk — a zero-weight draw, exactly
			// as in Wander Join; filters anchored past the tipping step are
			// enforced by the CTJ suffix aggregation instead.
			if len(st.Filters) > 0 && !r.pl.StepFiltersOK(i, r.store, b) {
				r.acc.Rejected++
				return
			}
		}
		if i == last {
			r.finish(i, b, prodD, 0, false)
			return
		}
		if est := r.oracle.EstimateSuffix(i, b); est <= r.opts.Threshold {
			r.tipped++
			r.finish(i, b, prodD, est, true)
			return
		}
		if i == 0 && r.fin != nil {
			r.fin.rootPassed(r)
		}
	}
}

// finish terminates a walk at prefix δ ending after step i: it aggregates
// the completions of δ exactly (via the cached CTJ suffix aggregate and its
// memoized reduction; for a full path this is the path itself) and updates
// the estimator.
func (r *Runner) finish(i int, b query.Bindings, prodD, tipEst float64, tipped bool) {
	Finish(r.acc, &r.diag, r.pl.Query, r.eval.SuffixReduced(i, b), prodD, tipEst, tipped)
}

// Finish credits one exactly finished walk to acc from the reduced suffix
// aggregate of its prefix δ, with prodD = ∏ d_j = 1/Pr(δ). It is the
// accumulator update shared by every Audit Join walker (single-store,
// sharded, live). When the walk tipped, the oracle's estimate is scored
// against the exact suffix size the aggregate reveals for free.
//
//	COUNT            C_a += |Γ_δ with α=a| × ∏ d_j
//	SUM              C_a += Σ_b v(b)·|Γ_δ with (a,b)| × ∏ d_j — the same
//	                 unbiasedness argument as Prop. IV.1 with paths weighted
//	                 by v(β(γ))
//	AVG              the ratio of two such estimators: the weighted sum over
//	                 numeric-β paths divided by their count
//	COUNT(DISTINCT)  C_a += Σ_b Pr(δ,(a,b)) / (Pr(δ)·Pr(a,b)); the reduction
//	                 already holds it, the prefix probability having cancelled
func Finish(acc *wj.Acc, diag *TipDiag, q *query.Query, red *ctj.Reduced, prodD, tipEst float64, tipped bool) {
	if tipped {
		diag.Observe(tipEst, float64(red.Total))
	}
	if red.Total == 0 {
		acc.Rejected++
		return
	}
	switch {
	case q.Distinct:
		for _, t := range red.Terms {
			acc.Add(t.A, t.Num)
		}
	case q.Agg == query.AggAvg:
		for _, t := range red.Terms {
			acc.AddRatio(t.A, t.Num*prodD, t.Den*prodD)
		}
	default:
		for _, t := range red.Terms {
			acc.Add(t.A, t.Num*prodD)
		}
	}
}

// Walks returns the total number of walks performed, including rejected
// ones. Together with Step and Snapshot it makes the Runner an exec.Stepper;
// the driving loops (budgets, intervals, cancellation) live in internal/exec.
func (r *Runner) Walks() int64 { return r.acc.N }

// Snapshot returns the current estimates with 0.95 confidence intervals —
// or, once the runner is Exact, the exact answer with zero-width intervals.
func (r *Runner) Snapshot() wj.Result {
	if r.Exact() {
		return r.acc.Exact(r.fin.values)
	}
	return r.acc.Snapshot(stats.Z95)
}

// Acc exposes the walk accumulator. It stays a plain sample of Walks() seeded
// walks whether or not the runner is Exact, so it merges with other runners'
// accumulators as before.
func (r *Runner) Acc() *wj.Acc { return r.acc }

// Tipped returns the number of walks terminated by the tipping point.
func (r *Runner) Tipped() int64 { return r.tipped }

// TipDiag returns the estimate-vs-actual diagnostics accumulated at this
// runner's tipping decisions.
func (r *Runner) TipDiag() TipDiag { return r.diag }

// CacheStats exposes the CTJ session's cache statistics: the hits and misses
// this runner observed, whether its cache is private or shared.
func (r *Runner) CacheStats() ctj.CacheStats { return r.eval.Stats() }

// SharedCache returns the shared CTJ cache the runner writes to, or nil when
// it uses a private single-threaded cache.
func (r *Runner) SharedCache() *ctj.SharedCache { return r.eval.Shared() }

// TipAlways returns options that tip at the first step (the "all exact"
// extreme); useful in tests and ablations.
func TipAlways(seed int64) Options {
	return Options{Threshold: math.Inf(1), Seed: seed}
}

// TipNever returns options that never tip (Audit Join degenerates to Wander
// Join walks, but keeps the unbiased distinct estimator).
func TipNever(seed int64) Options {
	return Options{Threshold: -1, Seed: seed}
}
