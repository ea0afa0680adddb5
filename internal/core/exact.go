package core

import (
	"math"

	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// The finite-population finish. Audit Join samples walk roots with
// replacement from a span of N triples, and on the selective queries of an
// exploration session every one of them often tips at step 0: each walk then
// ends in the exact CTJ finish of its root's whole suffix, and after a few
// thousand walks the runner has quietly computed — and cached — most of the
// exact answer while still reporting a confidence interval around it. The
// finisher notices. It rides beside the sample, never inside it:
//
//   - Root sweep. Once the runner has performed as many walks as the root
//     span has triples and no walk has gone past step 0 untipped, a sweep of
//     the N roots costs about what those N walks did (rent-or-buy). The
//     finisher first asks the oracle for every root's tipping verdict —
//     estimates only, and the first root that would not tip abandons the
//     sweep for good — and then finishes the roots in index order through
//     the same cached reduction a tipped walk uses (eval.SuffixReduced(0, ·)),
//     keeping only per-group sums. A few roots per Step, so exec.Drive's
//     batch, deadline and cancellation granularity is unchanged.
//   - DISTINCT table. A distinct plan whose probability table is materialized
//     has its exact answer sitting in that table (ctj.Evaluator.DistinctExact).
//   - Published verdicts. A finished sweep, and the finding that a span
//     cannot be swept, are published in the plan's ctj.SharedCache, so the
//     next runner on a warm cache is exact at once or does not try.
//
// None of this draws from the runner's random source or touches its
// accumulator: Acc() after k Steps is the same seeded sample with or without
// a finisher, and stays a valid sample after the runner turns exact.

// ExactSource says how a runner came to know its answer exactly.
type ExactSource uint8

const (
	// NotExact: the runner is still estimating.
	NotExact ExactSource = iota
	// ExactSweep: this runner finished every root of the span.
	ExactSweep
	// ExactTable: a distinct plan read its materialized probability table.
	ExactTable
	// ExactPublished: an earlier runner on the shared cache finished the
	// sweep and this one adopted its result.
	ExactPublished
)

func (s ExactSource) String() string {
	return [...]string{"", "sweep", "table", "published"}[s]
}

// Sweep pacing: roots handled per Step. Judging a root is a bind and an
// oracle call; finishing one is a cache lookup at best and a CTJ suffix
// computation at worst, the same range as the walk it rides beside.
const (
	judgePerStep  = 32
	finishPerStep = 4
)

type sweepPhase uint8

const (
	sweepWaiting   sweepPhase = iota // sampling; the trigger has not fired
	sweepJudging                     // asking the oracle for every root's verdict
	sweepFinishing                   // every root tips; finishing them in index order
	sweepOff                         // done, abandoned, or never possible
)

// finisher is one runner's finite-population state.
type finisher struct {
	values map[rdf.ID]float64 // the exact answer; nil until known
	source ExactSource

	phase  sweepPhase
	roots  index.Span // step 0's static span
	cursor int        // next root of the current pass, relative to roots.Lo
	// num and den are the sweep's per-group sums of the roots' reduced
	// terms; den is used by AVG only.
	num, den map[rdf.ID]float64
}

// newFinisher sets up the finish for a runner with a uniform root. Only a
// static sampling root has a span to sweep; a membership root leaves the
// table and published-verdict routes.
func newFinisher(r *Runner) *finisher {
	f := &finisher{phase: sweepOff}
	if st := &r.pl.Steps[0]; st.Static && st.Kind != query.AccessMembership {
		f.phase = sweepWaiting
		if r.static[0].OK {
			f.roots = r.static[0].Span
		}
	}
	return f
}

// adopt takes over an answer that is already known — a materialized distinct
// table, or a verdict published in the shared cache — and reports whether
// the runner is exact now.
func (f *finisher) adopt(r *Runner) bool {
	if r.pl.Query.Distinct {
		if v := r.eval.DistinctExact(); v != nil {
			f.settle(r, v, ExactTable)
			return true
		}
	}
	if sc := r.eval.Shared(); sc != nil {
		if w := sc.Whole(); w != nil {
			if w.Values == nil {
				f.phase = sweepOff
				return false
			}
			f.settle(r, w.Values, ExactPublished)
			return true
		}
	}
	return false
}

func (f *finisher) settle(r *Runner, values map[rdf.ID]float64, src ExactSource) {
	f.values, f.source, f.phase = values, src, sweepOff
	f.num, f.den = nil, nil
	switch src {
	case ExactSweep:
		r.diag.ExactSweep++
	case ExactTable:
		r.diag.ExactTable++
	case ExactPublished:
		r.diag.ExactPublished++
	}
}

// rootPassed records that a walk went past step 0 without tipping: some root
// is too heavy to finish, so the span cannot be swept.
func (f *finisher) rootPassed(r *Runner) {
	if f.phase != sweepOff {
		f.giveUp(r)
	}
}

// giveUp ends the sweep for good and tells later runners on the cache not to
// try. A sweep that had already started counts as abandoned.
func (f *finisher) giveUp(r *Runner) {
	if f.phase != sweepWaiting {
		r.diag.SweepAbandoned++
	}
	f.phase = sweepOff
	f.num, f.den = nil, nil
	if sc := r.eval.Shared(); sc != nil {
		sc.PublishWhole(&ctj.Whole{})
	}
}

// advance does one Step's share of the finish.
func (f *finisher) advance(r *Runner) {
	if f.adopt(r) {
		return
	}
	switch f.phase {
	case sweepWaiting:
		if r.acc.N >= int64(f.roots.Len()) {
			f.phase, f.cursor = sweepJudging, 0
		}
	case sweepJudging:
		f.pass(r, judgePerStep)
	case sweepFinishing:
		f.pass(r, finishPerStep)
	}
}

// pass handles up to n roots of the current pass and moves to the next phase
// when the pass is through.
func (f *finisher) pass(r *Runner, n int) {
	st := &r.pl.Steps[0]
	ts := r.store.Triples(st.Order)
	b := r.b
	single := len(r.pl.Steps) == 1
	for ; n > 0 && f.cursor < f.roots.Len(); n, f.cursor = n-1, f.cursor+1 {
		b.Reset()
		st.Bind(ts[f.roots.Lo+f.cursor], b)
		if len(st.Filters) > 0 && !r.pl.StepFiltersOK(0, r.store, b) {
			continue // a rejected root: it contributes nothing
		}
		if f.phase == sweepJudging {
			if !single && r.oracle.EstimateSuffix(0, b) > r.opts.Threshold {
				f.giveUp(r)
				return
			}
			continue
		}
		f.add(r.eval.SuffixReduced(0, b))
	}
	if f.cursor < f.roots.Len() {
		return
	}
	if f.phase == sweepJudging {
		f.phase, f.cursor = sweepFinishing, 0
		f.num = make(map[rdf.ID]float64)
		if r.pl.Query.Agg == query.AggAvg {
			f.den = make(map[rdf.ID]float64)
		}
		return
	}
	values := f.total(r.pl.Query)
	f.settle(r, values, ExactSweep)
	if sc := r.eval.Shared(); sc != nil {
		sc.PublishWhole(&ctj.Whole{Values: values})
	}
}

// add folds one root's reduced suffix into the sweep's sums. With the root
// drawn uniformly from N triples, Finish credits a walk ending there with
// Num·N (COUNT, SUM), the ratio channels Num·N and Den·N (AVG), or Num
// (DISTINCT); the mean of those over all N roots is what total returns.
func (f *finisher) add(red *ctj.Reduced) {
	for _, t := range red.Terms {
		f.num[t.A] += t.Num
		if f.den != nil {
			f.den[t.A] += t.Den
		}
	}
}

// total turns the finished sweep's sums into the exact per-group answer:
// ΣNum for COUNT and SUM (a whole number for COUNT, whose Nums are completion
// counts), the ratio of the two channels for AVG, and ΣNum/N for
// COUNT(DISTINCT), where each group's sum is N times its number of reachable
// values up to float round-off, hence the rounding.
func (f *finisher) total(q *query.Query) map[rdf.ID]float64 {
	out := make(map[rdf.ID]float64, len(f.num))
	for a, s := range f.num {
		switch {
		case q.Distinct:
			out[a] = math.Round(s / float64(f.roots.Len()))
		case q.Agg == query.AggAvg:
			if d := f.den[a]; d > 0 {
				out[a] = s / d
			}
		default:
			out[a] = s
		}
	}
	return out
}

// Exact reports whether the runner knows its answer exactly; Snapshot then
// returns it with zero-width intervals and further Steps only extend the
// sample in Acc. exec.Drive ends an exact stepper early.
func (r *Runner) Exact() bool { return r.fin != nil && r.fin.values != nil }

// ExactSource reports how the runner became exact (NotExact while it is
// still estimating).
func (r *Runner) ExactSource() ExactSource {
	if r.fin == nil {
		return NotExact
	}
	return r.fin.source
}
