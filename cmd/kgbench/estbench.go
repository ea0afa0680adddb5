package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"kgexplore"
	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/query"
	"kgexplore/internal/workload"
)

// estBenchQuery is one workload query's row in BENCH_estimate.json: how well
// each estimator predicted the exact join size (q-error), and how many Audit
// Join walks each needed to reach the target confidence interval.
type estBenchQuery struct {
	Path     int     `json:"path"`
	Step     int     `json:"step"`
	Patterns int     `json:"patterns"`
	Exact    float64 `json:"exact"`

	SpanEstimate    float64 `json:"span_estimate"`
	SummaryEstimate float64 `json:"summary_estimate"`
	SpanQError      float64 `json:"span_q_error"`
	SummaryQError   float64 `json:"summary_q_error"`

	// Walks until every group's 0.95 CI half-width fell under relTarget of
	// its estimate (0 when the budget walk cap was hit first).
	SpanWalks    int64 `json:"span_walks_to_ci"`
	SummaryWalks int64 `json:"summary_walks_to_ci"`
}

// estBenchReport is the BENCH_estimate.json schema. Committed as a baseline:
// the summary estimator must hold median q-error at or below span statistics
// on the multi-pattern workload, without regressing walks-to-target-CI.
type estBenchReport struct {
	Dataset      string  `json:"dataset"`
	Scale        float64 `json:"scale"`
	Triples      int     `json:"triples"`
	Seed         int64   `json:"seed"`
	Paths        int     `json:"paths"`
	RelCI        float64 `json:"rel_ci_target"`
	MaxWalks     int64   `json:"max_walks"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`

	Queries      []estBenchQuery `json:"queries"`
	MultiPattern int             `json:"multi_pattern_queries"`

	// Medians over the multi-pattern subset (single patterns are exact span
	// lookups under both estimators and carry no signal).
	SpanMedianQError    float64 `json:"span_median_q_error"`
	SummaryMedianQError float64 `json:"summary_median_q_error"`
	SpanMedianWalks     float64 `json:"span_median_walks_to_ci"`
	SummaryMedianWalks  float64 `json:"summary_median_walks_to_ci"`
}

func estQErr(est, actual float64) float64 {
	if est <= 0 || actual <= 0 {
		return math.Inf(1)
	}
	return math.Max(est/actual, actual/est)
}

func estMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// estWalksToCI steps an Audit Join runner — built through the facade, so in
// the walk order the serving path would choose — until every group's CI
// half-width is within rel of its estimate (tipped-exact groups report CI 0),
// returning the walk count; 0 when maxWalks walks were not enough.
func estWalksToCI(ds *kgexplore.Dataset, pl *query.Plan, est card.Estimator, seed int64, rel float64, maxWalks int64) int64 {
	r := ds.NewAuditJoin(pl, kgexplore.AuditJoinOptions{Threshold: core.DefaultThreshold, Seed: seed, Estimator: est})
	const batch = 64
	for r.Walks() < maxWalks {
		for i := 0; i < batch; i++ {
			r.Step()
		}
		snap := r.Snapshot()
		if len(snap.Estimates) == 0 {
			continue
		}
		ok := true
		for g, e := range snap.Estimates {
			if e <= 0 {
				continue
			}
			if snap.CI[g] > rel*e {
				ok = false
				break
			}
		}
		if ok {
			return r.Walks()
		}
	}
	return 0
}

// runEstBench generates the exploration workload over dbpedia-sim, scores
// both cardinality estimators' join-size predictions against exact CTJ
// counts, measures walks-to-target-CI per estimator, and writes the report.
func runEstBench(w io.Writer, outPath string, scale float64, seed int64, paths int) error {
	cfg := kggen.DBpediaSim(scale)
	g, schema, err := kggen.Generate(cfg)
	if err != nil {
		return err
	}
	st := index.Build(g)
	ds, err := kgexplore.FromStore(st, kgexplore.RootThing)
	if err != nil {
		return err
	}
	gen := &workload.Generator{Store: st, Schema: schema, Seed: seed, MaxSteps: 4}
	recs := gen.Paths(paths)

	const relCI = 0.10
	const maxWalks = 50000
	report := estBenchReport{
		Dataset:    cfg.Name,
		Scale:      scale,
		Triples:    g.Len(),
		Seed:       seed,
		Paths:      paths,
		RelCI:      relCI,
		MaxWalks:   maxWalks,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	span := card.NewSpanStats(st)
	summary := card.NewGraphSummary(st)
	var spanQ, sumQ, spanW, sumW []float64
	for _, r := range recs {
		exact := float64(ctj.Count(st, r.Plan))
		if exact == 0 {
			continue
		}
		row := estBenchQuery{
			Path:            r.Path,
			Step:            r.Step,
			Patterns:        len(r.Plan.Steps),
			Exact:           exact,
			SpanEstimate:    span.JoinSize(r.Plan).Value,
			SummaryEstimate: summary.JoinSize(r.Plan).Value,
		}
		row.SpanQError = estQErr(row.SpanEstimate, exact)
		row.SummaryQError = estQErr(row.SummaryEstimate, exact)
		row.SpanWalks = estWalksToCI(ds, r.Plan, span, seed, relCI, maxWalks)
		row.SummaryWalks = estWalksToCI(ds, r.Plan, summary, seed, relCI, maxWalks)
		report.Queries = append(report.Queries, row)
		if row.Patterns < 2 {
			continue
		}
		report.MultiPattern++
		spanQ = append(spanQ, row.SpanQError)
		sumQ = append(sumQ, row.SummaryQError)
		if row.SpanWalks > 0 {
			spanW = append(spanW, float64(row.SpanWalks))
		}
		if row.SummaryWalks > 0 {
			sumW = append(sumW, float64(row.SummaryWalks))
		}
	}
	report.SpanMedianQError = estMedian(spanQ)
	report.SummaryMedianQError = estMedian(sumQ)
	report.SpanMedianWalks = estMedian(spanW)
	report.SummaryMedianWalks = estMedian(sumW)

	fmt.Fprintf(w, "estimator benchmark: %d queries (%d multi-pattern) over %s scale %g\n",
		len(report.Queries), report.MultiPattern, cfg.Name, scale)
	fmt.Fprintf(w, "%-10s %18s %22s\n", "estimator", "median q-error", "median walks-to-CI")
	fmt.Fprintf(w, "%-10s %18.3f %22.0f\n", "span", report.SpanMedianQError, report.SpanMedianWalks)
	fmt.Fprintf(w, "%-10s %18.3f %22.0f\n", "summary", report.SummaryMedianQError, report.SummaryMedianWalks)
	if report.MultiPattern > 0 && report.SummaryMedianQError > report.SpanMedianQError {
		fmt.Fprintf(w, "WARNING: summary median q-error exceeds span on the multi-pattern workload\n")
	}

	report.PeakRSSBytes = peakRSSBytes()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}
