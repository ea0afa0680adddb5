// Package exec is the unified streaming execution layer for the online
// estimators: one driving loop, Drive, shared by every consumer — the
// experiment harness, the HTTP tier, the CLI and parallel estimation —
// instead of per-engine Run/RunFor loops.
//
// Drive honors context cancellation between walk batches, measures budgets
// and snapshot pacing on the monotonic wall clock, and streams a progressive
// snapshot to an OnSnapshot callback at each interval. This is the paper's
// online-aggregation protocol (a 9s budget reported every 1s, §V-B) turned
// into a reusable primitive: a chart request that a user abandons is
// cancelled through its context and stops burning cores.
package exec

import (
	"context"
	"time"

	"kgexplore/internal/wj"
)

// Stepper is the unit of online estimation: one random walk per Step. Both
// wj.Runner (Wander Join) and core.Runner (Audit Join) implement it.
// Steppers are not safe for concurrent use; Drive runs one stepper on the
// calling goroutine.
type Stepper interface {
	// Step performs one walk, updating the estimator state.
	Step()
	// Walks returns the total number of walks performed so far.
	Walks() int64
	// Snapshot returns the current estimates with confidence intervals.
	Snapshot() wj.Result
}

// exacter is the optional capability of a stepper whose answer can become
// exact (core.Runner's finite-population finish): once Exact reports true,
// Snapshot is the answer and further walks cannot improve it, so Drive ends
// the run there.
type exacter interface {
	Exact() bool
}

// DefaultBatch is the number of walks performed between clock and context
// checks when Options.Batch is zero.
const DefaultBatch = 256

// Options configures one Drive call.
type Options struct {
	// Budget is the wall-clock time to run for. Zero means no time limit:
	// Drive then runs until MaxWalks is reached or ctx is done (callers that
	// pass neither get an endless run — only do that with a cancellable
	// context).
	Budget time.Duration
	// Interval is the snapshot cadence for OnSnapshot. Zero disables
	// intermediate snapshots (OnSnapshot then only sees the final one).
	Interval time.Duration
	// MaxWalks caps the number of walks performed by this call. Zero means
	// unlimited. Drive never overshoots the cap: the last batch is clipped.
	MaxWalks int64
	// Batch is the number of walks between clock/context checks; it bounds
	// cancellation latency to one batch of walks. Zero means DefaultBatch.
	Batch int
	// OnSnapshot, when non-nil, receives a progressive snapshot at each
	// interval and always exactly one final snapshot (Final=true), last, on
	// normal completion — early, when the stepper turns exact. Walk counts
	// strictly increase from one progressive snapshot to the next; the final
	// one repeats the last count in the rare run whose budget ran out while
	// that snapshot was being delivered.
	// Returning false stops the drive early (with a nil error). The callback
	// runs on the driving goroutine.
	OnSnapshot func(Progress) bool
}

// Progress is one streamed snapshot of a running drive.
type Progress struct {
	// Seq numbers the snapshots of one Drive call from 1.
	Seq int
	// Elapsed is the monotonic wall-clock time since Drive started.
	Elapsed time.Duration
	// Walks is the number of walks performed by this Drive call so far.
	Walks int64
	// Snapshot is the estimator state (its Walks field counts the stepper's
	// lifetime walks, which exceed Progress.Walks on reused runners).
	Snapshot wj.Result
	// Final marks the completion snapshot.
	Final bool
}

// Report summarizes a completed (or cancelled) Drive call.
type Report struct {
	// Walks is the number of walks performed by this call.
	Walks int64
	// Elapsed is the monotonic wall-clock duration of the call.
	Elapsed time.Duration
	// Snapshots is the number of OnSnapshot deliveries.
	Snapshots int
	// Final is the estimator snapshot at return time. It is consistent even
	// when the drive was cancelled: steps are never interrupted mid-walk.
	Final wj.Result
}

// Drive runs the stepper until the budget elapses, MaxWalks is reached, the
// stepper's answer is exact, the context is done, or OnSnapshot asks to stop.
// It returns ctx.Err() when the context ended the run and nil otherwise; in
// both cases the Report carries a consistent final snapshot.
func Drive(ctx context.Context, s Stepper, opts Options) (Report, error) {
	batch := opts.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	start := time.Now()
	startWalks := s.Walks()
	var rep Report
	finish := func(err error) (Report, error) {
		rep.Elapsed = time.Since(start)
		rep.Walks = s.Walks() - startWalks
		rep.Final = s.Snapshot()
		return rep, err
	}

	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}
	var nextEmit time.Time
	if opts.Interval > 0 && opts.OnSnapshot != nil {
		nextEmit = start.Add(opts.Interval)
	}
	emit := func(final bool) bool {
		if opts.OnSnapshot == nil {
			return true
		}
		rep.Snapshots++
		return opts.OnSnapshot(Progress{
			Seq:      rep.Snapshots,
			Elapsed:  time.Since(start),
			Walks:    s.Walks() - startWalks,
			Snapshot: s.Snapshot(),
			Final:    final,
		})
	}
	ex, _ := s.(exacter)
	// ended reports that the run is over at time now: the budget elapsed,
	// the walk cap was reached, or there is nothing left to estimate.
	ended := func(now time.Time) bool {
		return (!deadline.IsZero() && !now.Before(deadline)) ||
			(opts.MaxWalks > 0 && s.Walks()-startWalks >= opts.MaxWalks) ||
			(ex != nil && ex.Exact())
	}

	for {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if ended(time.Now()) {
			break
		}
		n := batch
		if opts.MaxWalks > 0 {
			if rem := opts.MaxWalks - (s.Walks() - startWalks); rem < int64(n) {
				n = int(rem)
			}
		}
		for i := 0; i < n; i++ {
			s.Step()
		}
		if !nextEmit.IsZero() {
			// An interval snapshot that falls due as the run ends is left to
			// the final emit below: the stream's last event is always the one
			// marked Final, without a copy of itself just before it.
			if now := time.Now(); !now.Before(nextEmit) && !ended(now) {
				if !emit(false) {
					return finish(nil)
				}
				nextEmit = now.Add(opts.Interval)
			}
		}
	}
	emit(true)
	return finish(nil)
}

// RunN performs exactly n steps. It is the bounded-count companion of Drive
// for warmup, trial runs and tests: no clock, context or snapshots.
func RunN(s interface{ Step() }, n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}
