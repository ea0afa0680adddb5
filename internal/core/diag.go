package core

// TipDiag accumulates estimate-vs-actual diagnostics at tipping decisions:
// every time a walk tips, the oracle's suffix estimate is compared against
// the exact suffix size CTJ then computes anyway. The mean q-error over
// tipped walks is a free, per-run measure of estimator quality, surfaced by
// the server's /healthz and chart payloads.
type TipDiag struct {
	// Tips counts tipping decisions observed (walks that tipped).
	Tips int64 `json:"tips"`
	// SumEstimate/SumActual total the estimated and exact suffix sizes at
	// those decisions.
	SumEstimate float64 `json:"sum_estimate"`
	SumActual   float64 `json:"sum_actual"`
	// SumQError totals max(est/act, act/est) over the QObs decisions where
	// both sides were positive (q-error is undefined when a side is 0).
	SumQError float64 `json:"sum_q_error"`
	QObs      int64   `json:"q_obs"`
	// Finite-population finish outcomes (see exact.go), one count per runner
	// at most: answered exactly by its own root sweep, from a distinct plan's
	// materialized table, or from a result an earlier runner published in
	// the shared cache; and sweeps given up at a root that would not tip.
	ExactSweep     int64 `json:"exact_sweep,omitempty"`
	ExactTable     int64 `json:"exact_table,omitempty"`
	ExactPublished int64 `json:"exact_published,omitempty"`
	SweepAbandoned int64 `json:"sweep_abandoned,omitempty"`
}

// Observe records one tipping decision.
func (d *TipDiag) Observe(estimate, actual float64) {
	d.Tips++
	d.SumEstimate += estimate
	d.SumActual += actual
	if estimate > 0 && actual > 0 {
		q := estimate / actual
		if q < 1 {
			q = 1 / q
		}
		d.SumQError += q
		d.QObs++
	}
}

// Merge folds another accumulator in (for parallel workers and shards).
func (d *TipDiag) Merge(o TipDiag) {
	d.Tips += o.Tips
	d.SumEstimate += o.SumEstimate
	d.SumActual += o.SumActual
	d.SumQError += o.SumQError
	d.QObs += o.QObs
	d.ExactSweep += o.ExactSweep
	d.ExactTable += o.ExactTable
	d.ExactPublished += o.ExactPublished
	d.SweepAbandoned += o.SweepAbandoned
}

// MeanQError returns the mean q-error over observed decisions, 0 when none.
func (d TipDiag) MeanQError() float64 {
	if d.QObs == 0 {
		return 0
	}
	return d.SumQError / float64(d.QObs)
}
