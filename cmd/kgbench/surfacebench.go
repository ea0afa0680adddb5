package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"kgexplore"
	"kgexplore/internal/core"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/wj"
	"kgexplore/internal/workload"
)

// surfaceBenchRow is one extended-surface query's row in BENCH_surface.json:
// how fast the online estimator converged on the filtered/union/path query
// and how close it landed to the exact answer. DISTINCT unions have no
// estimator (their cross-branch overlap is unobservable per branch) and
// report only the exact side with estimated=false.
type surfaceBenchRow struct {
	Kind     string `json:"kind"` // filter | union | path
	Patterns int    `json:"patterns"`
	Branches int    `json:"branches,omitempty"`
	Distinct bool   `json:"distinct,omitempty"`
	Groups   int    `json:"groups"`

	ExactTotal float64 `json:"exact_total"`
	Estimated  bool    `json:"estimated"`
	EstTotal   float64 `json:"est_total,omitempty"`
	RelErr     float64 `json:"rel_err,omitempty"`
	// Walks until every group's 0.95 CI half-width fell under the relative
	// target (0 when the walk cap was hit first).
	WalksToCI    int64   `json:"walks_to_ci,omitempty"`
	RejectedFrac float64 `json:"rejected_frac,omitempty"`
}

// surfaceBenchReport is the BENCH_surface.json schema, committed as the CI
// baseline for the wider query surface: per-kind convergence and accuracy
// of online aggregation over FILTER, UNION and path-chain queries must not
// regress as the engines evolve.
type surfaceBenchReport struct {
	Dataset      string  `json:"dataset"`
	Scale        float64 `json:"scale"`
	Triples      int     `json:"triples"`
	Seed         int64   `json:"seed"`
	RelCI        float64 `json:"rel_ci_target"`
	MaxWalks     int64   `json:"max_walks"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`

	Rows []surfaceBenchRow `json:"rows"`

	FilterQueries int `json:"filter_queries"`
	UnionQueries  int `json:"union_queries"`
	PathQueries   int `json:"path_queries"`

	FilterMedianRelErr float64 `json:"filter_median_rel_err"`
	UnionMedianRelErr  float64 `json:"union_median_rel_err"`
	PathMedianRelErr   float64 `json:"path_median_rel_err"`
	MedianWalksToCI    float64 `json:"median_walks_to_ci"`

	// Every estimated row landed within 50% of exact — the coarse unbiasedness
	// gate (rel errors past it mean a wiring bug, not sampling noise).
	EquivalenceOK bool `json:"equivalence_ok"`
}

// surfaceStepper is the slice of exec.Stepper the bench drives: single-plan
// core runners and stratified union estimators both satisfy it.
type surfaceStepper interface {
	Step()
	Walks() int64
	Snapshot() wj.Result
}

// surfaceRun steps the estimator until every group's CI half-width is
// within rel of its estimate, up to maxWalks, and returns the final
// snapshot plus the walks-to-CI count (0 when the cap hit first).
func surfaceRun(s surfaceStepper, rel float64, maxWalks int64) (wj.Result, int64) {
	const batch = 64
	for s.Walks() < maxWalks {
		for i := 0; i < batch; i++ {
			s.Step()
		}
		snap := s.Snapshot()
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
			return snap, s.Walks()
		}
	}
	return s.Snapshot(), 0
}

// runSurfaceBench generates the extended-surface workload (FILTER, UNION,
// path chains) over dbpedia-sim, measures the online estimators'
// walks-to-target-CI and accuracy against exact CTJ ground truth, and
// writes the report.
func runSurfaceBench(w io.Writer, outPath string, scale float64, seed int64, n int) error {
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
	gen := &workload.Generator{Store: st, Schema: schema, Seed: seed, MaxSteps: 3}
	recs := gen.Surface(n)
	if len(recs) == 0 {
		return fmt.Errorf("surfacebench: workload produced no queries at scale %g", scale)
	}

	const relCI = 0.10
	const maxWalks = 40000
	report := surfaceBenchReport{
		Dataset:    cfg.Name,
		Scale:      scale,
		Triples:    g.Len(),
		Seed:       seed,
		RelCI:      relCI,
		MaxWalks:   maxWalks,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	var relByKind = map[workload.SurfaceKind][]float64{}
	var walksAll []float64
	equivalenceOK := true
	for _, r := range recs {
		row := surfaceBenchRow{
			Kind:     string(r.Kind),
			Distinct: r.Distinct(),
			Groups:   len(r.Exact),
		}
		for _, c := range r.Exact {
			row.ExactTotal += c
		}

		var stepper surfaceStepper
		if r.Union != nil {
			row.Branches = len(r.Union.Branches)
			for _, pl := range r.UnionPlan.Plans {
				row.Patterns += len(pl.Steps)
			}
			if !r.Distinct() {
				if stepper, err = ds.NewUnionEstimator(r.UnionPlan, seed); err != nil {
					return err
				}
			}
		} else {
			row.Patterns = len(r.Plan.Steps)
			stepper = ds.NewAuditJoin(r.Plan, kgexplore.AuditJoinOptions{
				Threshold: core.DefaultThreshold,
				Seed:      seed,
			})
		}

		if stepper != nil {
			snap, walks := surfaceRun(stepper, relCI, maxWalks)
			row.Estimated = true
			row.WalksToCI = walks
			row.RejectedFrac = snap.RejectionRate()
			for _, e := range snap.Estimates {
				row.EstTotal += e
			}
			if row.ExactTotal > 0 {
				row.RelErr = math.Abs(row.EstTotal-row.ExactTotal) / row.ExactTotal
			}
			relByKind[r.Kind] = append(relByKind[r.Kind], row.RelErr)
			if walks > 0 {
				walksAll = append(walksAll, float64(walks))
			}
			if row.RelErr > 0.5 {
				equivalenceOK = false
			}
		}
		report.Rows = append(report.Rows, row)
		switch r.Kind {
		case workload.SurfaceFilter:
			report.FilterQueries++
		case workload.SurfaceUnion:
			report.UnionQueries++
		case workload.SurfacePath:
			report.PathQueries++
		}
	}

	report.FilterMedianRelErr = estMedian(relByKind[workload.SurfaceFilter])
	report.UnionMedianRelErr = estMedian(relByKind[workload.SurfaceUnion])
	report.PathMedianRelErr = estMedian(relByKind[workload.SurfacePath])
	report.MedianWalksToCI = estMedian(walksAll)
	report.EquivalenceOK = equivalenceOK

	fmt.Fprintf(w, "surface benchmark: %d queries (%d filter, %d union, %d path) over %s scale %g\n",
		len(report.Rows), report.FilterQueries, report.UnionQueries, report.PathQueries, cfg.Name, scale)
	fmt.Fprintf(w, "%-8s %16s\n", "kind", "median rel err")
	fmt.Fprintf(w, "%-8s %16.3f\n", "filter", report.FilterMedianRelErr)
	fmt.Fprintf(w, "%-8s %16.3f\n", "union", report.UnionMedianRelErr)
	fmt.Fprintf(w, "%-8s %16.3f\n", "path", report.PathMedianRelErr)
	fmt.Fprintf(w, "median walks-to-CI: %.0f   equivalence_ok: %v\n",
		report.MedianWalksToCI, report.EquivalenceOK)
	if !equivalenceOK {
		fmt.Fprintf(w, "WARNING: an estimated surface query landed >50%% from exact\n")
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
