// Semantic-aware stratified Audit Join: walk roots are stratified by the
// characteristic-set bucket of their subject (index.StratifyRoots over the
// typed graph summary), one Runner per stratum estimates that stratum's
// total, and a wj.NeymanAlloc schedules the walk budget across strata —
// proportional to stratum size at first, shifting toward Neyman allocation
// (∝ sqrt of per-stratum contribution variance) as early walk returns
// arrive. Snapshots merge through wj.MergeStratified, so estimates stay
// unbiased and CIs combine in quadrature exactly as in the sharded path.
package core

import (
	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/stats"
	"kgexplore/internal/wj"
)

// StratifiedOptions configures a stratified Audit Join stepper.
type StratifiedOptions struct {
	Options
	// MaxStrata caps the number of root strata (< 2 selects
	// index.DefaultMaxStrata); the smallest buckets merge into a tail
	// stratum.
	MaxStrata int
	// PilotWalks is the per-stratum walk count required before the first
	// Neyman reallocation (default 64).
	PilotWalks int64
	// AdaptEvery is the walk period between reallocation checks
	// (default 512).
	AdaptEvery int64
}

// StratumInfo describes one stratum of a stratified run.
type StratumInfo struct {
	Bucket   int32   `json:"bucket"`
	RootCard int     `json:"root_card"`
	Walks    int64   `json:"walks"`
	Weight   float64 `json:"weight"`
}

// StratifiedStats reports a stratified run's shape: how many strata ran,
// why the run fell back to uniform sampling (empty string when it did
// not), and how often the allocator re-derived its Neyman weights.
type StratifiedStats struct {
	Strata     int           `json:"strata"`
	Fallback   string        `json:"fallback,omitempty"`
	Reallocs   int           `json:"reallocs"`
	PerStratum []StratumInfo `json:"per_stratum,omitempty"`
}

// Stratified is the stratified Audit Join stepper (an exec.Stepper). Not
// safe for concurrent use.
type Stratified struct {
	runners  []*Runner
	accs     []*wj.Acc
	strata   []index.RootStratum
	alloc    *wj.NeymanAlloc
	fallback string
}

// FallbackDistinct marks COUNT(DISTINCT) plans: the unbiased distinct
// estimator needs walk-hit probabilities Pr(b) under the UNIFORM root
// distribution (eval.PathProbAB), which stratified roots would skew, so
// distinct plans run the plain uniform Audit Join.
const (
	FallbackDistinct   = "distinct"
	FallbackMembership = "membership-root"
	FallbackEmptyRoot  = "empty-root"
	FallbackNoBuckets  = "no-buckets"
)

// NewStratified builds the stratified stepper. When the plan cannot be
// stratified (distinct aggregate, membership root, empty or single-bucket
// root span) it degrades to one uniform Runner and records why; the
// stepper contract is identical either way. Unless opts.Shared is set (or
// NoSharedCache), the per-stratum runners share one CTJ cache — suffix
// aggregates are conditioned on bindings, not on how the root was drawn,
// so cross-stratum reuse is sound.
func NewStratified(store *index.Store, pl *query.Plan, opts StratifiedOptions) *Stratified {
	s := &Stratified{}
	st0 := &pl.Steps[0]
	var span index.Span
	switch {
	case pl.Query.Distinct:
		s.fallback = FallbackDistinct
	case st0.Kind == query.AccessMembership:
		s.fallback = FallbackMembership
	default:
		static := pl.ResolveStatic(store)
		if !static[0].OK || static[0].Span.Len() == 0 {
			s.fallback = FallbackEmptyRoot
		} else {
			span = static[0].Span
		}
	}
	if s.fallback == "" {
		s.strata = index.StratifyRoots(store, st0.Order, span, opts.MaxStrata)
		if s.strata == nil {
			s.fallback = FallbackNoBuckets
		}
	}

	base := opts.Options
	if base.Shared == nil && !base.NoSharedCache {
		base.Shared = ctj.NewSharedCache()
	}
	if s.fallback != "" {
		base.Root = nil
		r := newSampler(store, pl, base)
		s.runners = []*Runner{r}
		s.accs = []*wj.Acc{r.Acc()}
		return s
	}
	sizes := make([]float64, len(s.strata))
	s.runners = make([]*Runner, len(s.strata))
	s.accs = make([]*wj.Acc, len(s.strata))
	for k := range s.strata {
		o := base
		o.Root = &s.strata[k]
		o.Seed = WorkerSeed(opts.Seed, k)
		s.runners[k] = newSampler(store, pl, o)
		s.accs[k] = s.runners[k].Acc()
		sizes[k] = float64(s.strata[k].Total)
	}
	s.alloc = wj.NewNeymanAlloc(sizes, opts.PilotWalks, opts.AdaptEvery)
	return s
}

// Step runs one walk on the stratum the allocator picks.
func (s *Stratified) Step() {
	k := 0
	if s.alloc != nil {
		k = s.alloc.Next(s.accs)
	}
	s.runners[k].Step()
}

// Walks sums the stratum walk counts.
func (s *Stratified) Walks() int64 {
	var n int64
	for _, a := range s.accs {
		n += a.N
	}
	return n
}

// Snapshot returns the stratified-merged estimates with quadrature CIs.
// With a single uniform fallback stratum this equals the plain runner's
// snapshot.
func (s *Stratified) Snapshot() wj.Result {
	return wj.MergeStratified(s.accs, stats.Z95)
}

// Stats reports the run's stratification shape.
func (s *Stratified) Stats() StratifiedStats {
	st := StratifiedStats{Strata: len(s.runners), Fallback: s.fallback}
	if s.alloc == nil {
		return st
	}
	st.Reallocs = s.alloc.Reallocs()
	w := s.alloc.Weights()
	st.PerStratum = make([]StratumInfo, len(s.strata))
	for k := range s.strata {
		st.PerStratum[k] = StratumInfo{
			Bucket:   s.strata[k].Bucket,
			RootCard: s.strata[k].Total,
			Walks:    s.accs[k].N,
			Weight:   w[k],
		}
	}
	return st
}

// Fallback returns why the run degraded to uniform sampling ("" when it
// is genuinely stratified).
func (s *Stratified) Fallback() string { return s.fallback }

// Tipped sums the strata's tipped-walk counts.
func (s *Stratified) Tipped() int64 {
	var n int64
	for _, r := range s.runners {
		n += r.Tipped()
	}
	return n
}

// TipDiag merges the strata's tipping diagnostics.
func (s *Stratified) TipDiag() TipDiag {
	var d TipDiag
	for _, r := range s.runners {
		d.Merge(r.TipDiag())
	}
	return d
}

// CacheStats sums the strata's CTJ cache statistics.
func (s *Stratified) CacheStats() ctj.CacheStats {
	var cs ctj.CacheStats
	for _, r := range s.runners {
		rs := r.CacheStats()
		cs.CountHits += rs.CountHits
		cs.CountMisses += rs.CountMisses
		cs.AggHits += rs.AggHits
		cs.AggMisses += rs.AggMisses
		cs.ExistHits += rs.ExistHits
		cs.ExistMisses += rs.ExistMisses
		cs.ProbHits += rs.ProbHits
		cs.ProbMisses += rs.ProbMisses
		cs.ProbMaterialized = cs.ProbMaterialized || rs.ProbMaterialized
	}
	return cs
}

// SharedCache returns the CTJ cache the strata share (nil when the caller
// forced private caches).
func (s *Stratified) SharedCache() *ctj.SharedCache {
	return s.runners[0].SharedCache()
}
