// Package wj implements Wander Join (Li et al., SIGMOD 2016) for the
// exploration-query fragment: online aggregation of grouped counts via
// independent random walks over the candidate-set graph, with the
// Horvitz–Thompson estimator C_wj(γ) = ∏ d_i (paper §IV-C).
//
// Wander Join has no unbiased estimator for COUNT(DISTINCT); following the
// paper's experimental setup, distinct mode augments it with the technique
// of Ripple Join (Haas & Hellerstein): samples whose (group, value) pair has
// been seen before are rejected. This keeps duplicates from inflating the
// count but leaves the estimator biased — the limitation Audit Join removes.
// Distinct-mode accumulators carry their dedup state (the per-pair first
// contribution and hit count) so that Merge can union two of them into what
// a single runner over the combined walks would have produced.
package wj

import (
	"math/rand"

	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/stats"
)

// GlobalGroup is the group key used for ungrouped queries.
const GlobalGroup = rdf.NoID

// Acc accumulates per-group walk contributions. It is shared by Wander Join
// and Audit Join: both divide per-group contribution sums by the total
// number of walks N (Fig. 7 line 24 of the paper) and derive CLT confidence
// intervals from the contribution second moments.
type Acc struct {
	N        int64 // all walks, including rejected ones
	Rejected int64 // walks that hit a dead end
	Dedup    int64 // distinct-mode walks dropped as already-seen (WJ only)
	Sum      map[rdf.ID]float64
	SumSq    map[rdf.ID]float64
	// Den holds denominator contributions for ratio estimators (AVG);
	// nil unless AddRatio has been used.
	Den map[rdf.ID]float64
	// Distinct marks a distinct-mode Wander Join accumulator. Its dedup
	// state lives in Vals, keyed by packed (group, value) pairs, which makes
	// the accumulator self-contained: Merge unions the value sets of two
	// distinct accumulators instead of double-counting duplicates. Audit
	// Join accumulators never set it (their distinct estimator is per-walk
	// unbiased and merges freely).
	Distinct bool
	// Vals is the distinct-mode value set: for every (group, value) pair
	// seen, the contribution currently credited to Sum and the number of
	// walks that reached the pair. Nil outside distinct mode.
	Vals map[uint64]DistinctVal
}

// DistinctVal is one entry of a distinct-mode value set: the ∏d_i
// contribution currently credited for the (group, value) pair, and how many
// walks hit the pair (the first sight plus every dedup'd repeat).
type DistinctVal struct {
	Contribution float64
	Hits         int64
}

// DistinctKey packs a (group, value) pair into a Vals key.
func DistinctKey(a, beta rdf.ID) uint64 {
	return uint64(a)<<32 | uint64(beta)
}

// NewAcc returns an empty accumulator.
func NewAcc() *Acc {
	return &Acc{Sum: make(map[rdf.ID]float64), SumSq: make(map[rdf.ID]float64)}
}

// Add records a successful walk contribution x for group a.
func (c *Acc) Add(a rdf.ID, x float64) {
	c.Sum[a] += x
	c.SumSq[a] += x * x
}

// AddRatio records a ratio-estimator contribution: num feeds the primary
// channel, den the denominator channel (used by AVG, where the estimate is
// the ratio of two Horvitz–Thompson estimators).
func (c *Acc) AddRatio(a rdf.ID, num, den float64) {
	c.Add(a, num)
	if c.Den == nil {
		c.Den = make(map[rdf.ID]float64)
	}
	c.Den[a] += den
}

// Merge folds another accumulator into c. Because walks are i.i.d., the
// merged accumulator is exactly what a single runner would have produced
// with the union of the walks; this is how parallel estimation combines
// per-goroutine runners (the paper cites parallel online aggregation as
// related work; with independent walks the combination is trivial).
//
// Distinct-mode accumulators merge by value-set union: a (group, value)
// pair seen on only one side keeps its contribution; a pair seen on both
// sides collapses into one — its contribution is reconciled to the
// hit-count-weighted mean of the two sides' recorded contributions and the
// redundant first sight is counted as a dedup, which is what a single
// runner over the combined walk stream would have recorded (up to which
// walk happened to arrive first). Mixing a distinct and a non-distinct
// accumulator is a programming error and still panics.
func (c *Acc) Merge(o *Acc) {
	if c.Distinct != o.Distinct {
		panic("wj: Merge of a distinct-mode and a non-distinct accumulator: the estimators are incompatible")
	}
	c.N += o.N
	c.Rejected += o.Rejected
	c.Dedup += o.Dedup
	if c.Distinct {
		c.mergeDistinct(o)
		return
	}
	for a, v := range o.Sum {
		c.Sum[a] += v
	}
	for a, v := range o.SumSq {
		c.SumSq[a] += v
	}
	if o.Den != nil {
		if c.Den == nil {
			c.Den = make(map[rdf.ID]float64, len(o.Den))
		}
		for a, v := range o.Den {
			c.Den[a] += v
		}
	}
}

// mergeDistinct unions o's value set into c, keeping Sum/SumSq consistent
// with exactly one contribution per surviving (group, value) pair.
func (c *Acc) mergeDistinct(o *Acc) {
	if c.Vals == nil && len(o.Vals) > 0 {
		c.Vals = make(map[uint64]DistinctVal, len(o.Vals))
	}
	for key, ov := range o.Vals {
		a := rdf.ID(key >> 32)
		cv, seen := c.Vals[key]
		if !seen {
			c.Vals[key] = ov
			c.Sum[a] += ov.Contribution
			c.SumSq[a] += ov.Contribution * ov.Contribution
			continue
		}
		rec := (cv.Contribution*float64(cv.Hits) + ov.Contribution*float64(ov.Hits)) /
			float64(cv.Hits+ov.Hits)
		c.Sum[a] += rec - cv.Contribution
		c.SumSq[a] += rec*rec - cv.Contribution*cv.Contribution
		c.Vals[key] = DistinctVal{Contribution: rec, Hits: cv.Hits + ov.Hits}
		c.Dedup++ // o's first sight of the pair collapses into a duplicate
	}
}

// AddDistinct records a distinct-mode walk that reached (group a, value
// beta) with contribution x. The first walk to reach a pair credits its
// contribution; repeats are counted as dedups. Returns whether the walk was
// a first sight.
func (c *Acc) AddDistinct(a, beta rdf.ID, x float64) bool {
	if c.Vals == nil {
		c.Vals = make(map[uint64]DistinctVal)
	}
	key := DistinctKey(a, beta)
	if dv, dup := c.Vals[key]; dup {
		dv.Hits++
		c.Vals[key] = dv
		c.Dedup++
		return false
	}
	c.Vals[key] = DistinctVal{Contribution: x, Hits: 1}
	c.Add(a, x)
	return true
}

// Clone returns a deep copy of the accumulator. Parallel estimation uses
// clones to publish a worker's state across goroutines: the worker copies
// under its own control, so the original is never read concurrently.
func (c *Acc) Clone() *Acc {
	o := &Acc{
		N:        c.N,
		Rejected: c.Rejected,
		Dedup:    c.Dedup,
		Sum:      make(map[rdf.ID]float64, len(c.Sum)),
		SumSq:    make(map[rdf.ID]float64, len(c.SumSq)),
		Distinct: c.Distinct,
	}
	for a, v := range c.Sum {
		o.Sum[a] = v
	}
	for a, v := range c.SumSq {
		o.SumSq[a] = v
	}
	if c.Den != nil {
		o.Den = make(map[rdf.ID]float64, len(c.Den))
		for a, v := range c.Den {
			o.Den[a] = v
		}
	}
	if c.Vals != nil {
		o.Vals = make(map[uint64]DistinctVal, len(c.Vals))
		for k, v := range c.Vals {
			o.Vals[k] = v
		}
	}
	return o
}

// Result is a point-in-time snapshot of an online aggregation.
type Result struct {
	Estimates map[rdf.ID]float64 // per-group estimate
	CI        map[rdf.ID]float64 // per-group 0.95 CI half-width
	Walks     int64
	Rejected  int64
	Dedup     int64
	// Exact marks a result whose Estimates are the exact answer, not an
	// estimate: every CI is then zero. Audit Join sets it once it has
	// finished the whole query exactly (core.Runner).
	Exact bool
}

// RejectionRate returns the fraction of walks that hit a dead end.
func (r Result) RejectionRate() float64 {
	if r.Walks == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(r.Walks)
}

// Snapshot converts the accumulator into estimates: sum/N per group, with
// CLT confidence intervals at level z. When the denominator channel is in
// use (AVG), the estimate is the ratio of the two channels' sums and the
// CI is left at zero (a delta-method interval is future work, matching the
// paper's focus on counts).
func (c *Acc) Snapshot(z float64) Result {
	r := Result{
		Estimates: make(map[rdf.ID]float64, len(c.Sum)),
		CI:        make(map[rdf.ID]float64, len(c.Sum)),
		Walks:     c.N,
		Rejected:  c.Rejected,
		Dedup:     c.Dedup,
	}
	if c.N == 0 {
		return r
	}
	for a, s := range c.Sum {
		if c.Den != nil {
			if d := c.Den[a]; d > 0 {
				r.Estimates[a] = s / d
			}
			continue
		}
		r.Estimates[a] = s / float64(c.N)
		r.CI[a] = stats.CIHalfWidth(s, c.SumSq[a], c.N, z)
	}
	return r
}

// Exact returns the snapshot of a run that knows its answer exactly: the
// given per-group values with zero-width intervals, beside the walk counts of
// the sample that preceded the finding.
func (c *Acc) Exact(values map[rdf.ID]float64) Result {
	r := Result{
		Estimates: make(map[rdf.ID]float64, len(values)),
		CI:        make(map[rdf.ID]float64, len(values)),
		Walks:     c.N,
		Rejected:  c.Rejected,
		Dedup:     c.Dedup,
		Exact:     true,
	}
	for a, v := range values {
		r.Estimates[a] = v
		r.CI[a] = 0
	}
	return r
}

// Runner executes Wander Join walks over one plan. Not safe for concurrent
// use; create one Runner per goroutine.
type Runner struct {
	store *index.Store
	pl    *query.Plan
	rng   *rand.Rand
	acc   *Acc

	// b is the per-walk binding buffer and static the pre-resolved spans of
	// constant-bound steps; together they keep Step allocation-free at
	// steady state.
	b      query.Bindings
	static []query.StaticSpan
}

// New creates a Runner with a deterministic random source.
func New(store *index.Store, pl *query.Plan, seed int64) *Runner {
	acc := NewAcc()
	// Distinct-mode dedup state lives in the accumulator itself (Acc.Vals),
	// so merging two runners' accumulators unions their value sets.
	acc.Distinct = pl.Query.Distinct
	return &Runner{
		store:  store,
		pl:     pl,
		rng:    rand.New(rand.NewSource(seed)),
		acc:    acc,
		b:      pl.NewBindings(),
		static: pl.ResolveStatic(store),
	}
}

// Step performs one random walk, updating the estimator state.
func (r *Runner) Step() {
	r.acc.N++
	b := r.b
	b.Reset()
	prod := 1.0 // ∏ d_i
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
		if st.Kind == query.AccessMembership {
			continue // d_i = 1
		}
		t := r.store.Sample(st.Order, sp, r.rng)
		st.Bind(t, b)
		// A failed FILTER rejects the walk: a zero-weight Horvitz–Thompson
		// draw, so the estimator stays unbiased for the filtered count.
		if len(st.Filters) > 0 && !r.pl.StepFiltersOK(i, r.store, b) {
			r.acc.Rejected++
			return
		}
		prod *= float64(sp.Len())
	}
	q := r.pl.Query
	a := GlobalGroup
	if q.Alpha != query.NoVar {
		a = b[q.Alpha]
	}
	switch q.Agg {
	case query.AggSum:
		if v, ok := r.store.Numeric(b[q.Beta]); ok {
			r.acc.Add(a, v*prod)
		}
		return
	case query.AggAvg:
		if v, ok := r.store.Numeric(b[q.Beta]); ok {
			r.acc.AddRatio(a, v*prod, prod)
		}
		return
	}
	if q.Distinct {
		r.acc.AddDistinct(a, b[q.Beta], prod)
		return
	}
	r.acc.Add(a, prod)
}

// Walks returns the total number of walks performed, including rejected
// ones. Together with Step and Snapshot it makes the Runner an exec.Stepper;
// the driving loops (budgets, intervals, cancellation) live in internal/exec.
func (r *Runner) Walks() int64 { return r.acc.N }

// Snapshot returns the current estimates with 0.95 confidence intervals.
func (r *Runner) Snapshot() Result { return r.acc.Snapshot(stats.Z95) }

// Acc exposes the accumulator (used by tests and the harness).
func (r *Runner) Acc() *Acc { return r.acc }
