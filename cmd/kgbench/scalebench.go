package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/kggen"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
	"kgexplore/internal/wj"
)

// The scale ladder proves the PR's two perf claims on real fixture sizes:
// (1) every rung's snapshot is built through the external-memory streaming
// path under the -scalemembudget sort-buffer bound, and (2) on a skewed
// join workload, semantic stratification reaches the target relative CI in
// materially fewer walks than uniform root sampling, at every rung, while
// staying within its own CI of the exact answer.
//
// The skewed workload is a deterministic hub/leaf block appended to the
// dbpedia-sim stream (same shape as internal/core's stratification stress
// fixture): hub subjects whose knows-edges always reach two pop values, and
// person subjects whose knows-edges reach one pop value two thirds of the
// time. The two characteristic sets split cleanly into root strata with
// wildly different walk variance, which is exactly the structure
// stratification exists for — and exactly what uniform sampling pays for.

// scaleStrategyResult is one strategy's outcome on one rung, over scaleReps
// seeded runs.
type scaleStrategyResult struct {
	// MeanWalksToCI averages the walks needed to bring the global 0.95 CI
	// half-width under rel_ci_target of the estimate (converged runs only).
	MeanWalksToCI float64 `json:"mean_walks_to_ci"`
	// Converged counts runs that reached the target before max_walks;
	// Covered counts runs whose final CI contained the exact answer.
	Converged int `json:"converged_runs"`
	Covered   int `json:"covered_runs"`
	// Estimate and CI are the first run's final values, for eyeballing.
	Estimate float64 `json:"estimate"`
	CI       float64 `json:"ci"`
	Strata   int     `json:"strata,omitempty"`
}

// scaleRung is one fixture size of BENCH_scale.json.
type scaleRung struct {
	Scale      float64 `json:"scale"`
	RawTriples int     `json:"raw_triples"`
	Triples    int     `json:"triples"`

	// Streaming-build evidence: sorted runs spilled, spill bytes, snapshot
	// size, wall time, and the process peak RSS after the build (monotone
	// across rungs — getrusage reports the lifetime maximum).
	SortRuns      int   `json:"sort_runs"`
	SpillBytes    int64 `json:"spill_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	BuildMillis   int64 `json:"build_millis"`
	PeakRSSBytes  int64 `json:"peak_rss_bytes"`

	Exact      float64             `json:"exact"`
	Uniform    scaleStrategyResult `json:"uniform"`
	Stratified scaleStrategyResult `json:"stratified"`
	// WalksRatio is uniform over stratified mean walks-to-CI: >1 means
	// stratification needed fewer walks for the same confidence.
	WalksRatio float64 `json:"walks_ratio"`
}

// scaleBenchReport is the BENCH_scale.json schema. Committed as a baseline:
// the streaming build must keep working at every rung and stratification
// must keep its walks-to-CI advantage on the skewed workload.
type scaleBenchReport struct {
	Dataset        string  `json:"dataset"`
	Seed           int64   `json:"seed"`
	RelCI          float64 `json:"rel_ci_target"`
	MaxWalks       int64   `json:"max_walks"`
	Reps           int     `json:"reps"`
	MemBudgetBytes int64   `json:"mem_budget_bytes"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes"`

	Rungs []scaleRung `json:"rungs"`
	// MinWalksRatio is the worst rung's uniform/stratified walks ratio.
	MinWalksRatio float64 `json:"min_walks_ratio"`
	// EquivalenceOK: every rung's strategies kept the exact answer inside
	// the final CI in a majority of runs.
	EquivalenceOK bool `json:"equivalence_ok"`
}

const (
	scaleRelCI    = 0.10
	scaleMaxWalks = 50000
	scaleReps     = 5
	scalePerHub   = 40
)

// skewSizes scales the hub/leaf block with the rung so the skewed join stays
// a fixed (small) fraction of the fixture instead of vanishing at scale.
func skewSizes(scale float64) (hubs, leaves int) {
	hubs = 4 + int(36*scale)
	leaves = 150 + int(1350*scale)
	return
}

// skewExact is the analytic global count of the skewed chain: every hub
// knows-edge reaches two pop values; person p's edge reaches one unless
// p%3 == 0.
func skewExact(hubs, leaves int) float64 {
	return float64(hubs*scalePerHub*2 + leaves - (leaves+2)/3)
}

// emitSkew appends the skewed block to the stream, interning its terms into
// the generator's dictionary.
func emitSkew(d *rdf.Dict, hubs, leaves int, emit func(rdf.Triple) error) error {
	knows := d.InternIRI("skew:knows")
	pop := d.InternIRI("skew:pop")
	hubFlag := d.InternIRI("skew:hubFlag")
	personFlag := d.InternIRI("skew:personFlag")
	yes := d.InternIRI("skew:yes")
	vals := []rdf.ID{
		d.Intern(rdf.NewTypedLiteral("5", rdf.XSDInteger)),
		d.Intern(rdf.NewTypedLiteral("13", rdf.XSDInteger)),
	}
	big := d.Intern(rdf.NewTypedLiteral("900", rdf.XSDInteger))
	for h := 0; h < hubs; h++ {
		hub := d.InternIRI(fmt.Sprintf("skew:hub%d", h))
		if err := emit(rdf.Triple{S: hub, P: hubFlag, O: yes}); err != nil {
			return err
		}
		for j := 0; j < scalePerHub; j++ {
			o := d.InternIRI(fmt.Sprintf("skew:friend%d_%d", h, j))
			if err := emit(rdf.Triple{S: hub, P: knows, O: o}); err != nil {
				return err
			}
			for _, v := range vals {
				if err := emit(rdf.Triple{S: o, P: pop, O: v}); err != nil {
					return err
				}
			}
		}
	}
	for p := 0; p < leaves; p++ {
		s := d.InternIRI(fmt.Sprintf("skew:person%d", p))
		o := d.InternIRI(fmt.Sprintf("skew:pal%d", p))
		if err := emit(rdf.Triple{S: s, P: personFlag, O: yes}); err != nil {
			return err
		}
		if err := emit(rdf.Triple{S: s, P: knows, O: o}); err != nil {
			return err
		}
		if p%3 != 0 {
			if err := emit(rdf.Triple{S: o, P: pop, O: big}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ladderStepper is the slice of the stepper contract the ladder drives —
// satisfied by both core.Runner and core.Stratified.
type ladderStepper interface {
	Step()
	Walks() int64
	Snapshot() wj.Result
}

// runToCI steps until the global group's CI half-width falls under
// rel×estimate, in batches; walks is 0 when maxWalks hit first. within
// reports whether the exact answer sits inside the final CI.
func runToCI(r ladderStepper, exact float64) (walks int64, est, ci float64, within bool) {
	const batch = 64
	for r.Walks() < scaleMaxWalks {
		for i := 0; i < batch; i++ {
			r.Step()
		}
		res := r.Snapshot()
		est, ci = res.Estimates[core.GlobalGroup], res.CI[core.GlobalGroup]
		if est > 0 && ci <= scaleRelCI*est {
			return r.Walks(), est, ci, math.Abs(est-exact) <= ci
		}
	}
	return 0, est, ci, math.Abs(est-exact) <= ci
}

func runStrategy(mk func(seed int64) ladderStepper, exact float64, seed int64) scaleStrategyResult {
	var out scaleStrategyResult
	var sum float64
	for rep := 0; rep < scaleReps; rep++ {
		r := mk(seed + int64(rep))
		walks, est, ci, within := runToCI(r, exact)
		if rep == 0 {
			out.Estimate, out.CI = est, ci
			if s, ok := r.(*core.Stratified); ok {
				out.Strata = s.Stats().Strata
			}
		}
		if walks > 0 {
			out.Converged++
			sum += float64(walks)
		}
		if within {
			out.Covered++
		}
	}
	if out.Converged > 0 {
		out.MeanWalksToCI = sum / float64(out.Converged)
	}
	return out
}

// runScaleBench climbs the ladder: per rung, stream-build the snapshot
// (dbpedia-sim plus the skewed block) under the memory budget, mmap it,
// and race uniform vs stratified sampling to the target CI on the skewed
// chain query.
func runScaleBench(w io.Writer, outPath, rungSpec string, seed int64, memBudgetMiB int) error {
	var rungScales []float64
	for _, f := range strings.Split(rungSpec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("scalebench: bad rung %q in -scalerungs", f)
		}
		rungScales = append(rungScales, v)
	}
	if len(rungScales) == 0 {
		return fmt.Errorf("scalebench: -scalerungs is empty")
	}
	dir, err := os.MkdirTemp("", "kgscalebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	report := scaleBenchReport{
		Dataset:        "dbpedia-sim+skew",
		Seed:           seed,
		RelCI:          scaleRelCI,
		MaxWalks:       scaleMaxWalks,
		Reps:           scaleReps,
		MemBudgetBytes: int64(memBudgetMiB) << 20,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		EquivalenceOK:  true,
	}
	fmt.Fprintf(w, "scale ladder: rungs %v, streaming builds under %d MiB sort budget\n",
		rungScales, memBudgetMiB)
	fmt.Fprintf(w, "%-8s %10s %8s %12s %10s %12s %12s %8s\n",
		"scale", "triples", "runs", "spill", "build", "unif walks", "strat walks", "ratio")

	for _, scale := range rungScales {
		cfg := kggen.DBpediaSim(scale)
		hubs, leaves := skewSizes(scale)
		feed := func(emit func(rdf.Triple) error) (*rdf.Dict, error) {
			d, _, err := kggen.Stream(cfg, emit)
			if err != nil {
				return nil, err
			}
			if err := emitSkew(d, hubs, leaves, emit); err != nil {
				return nil, err
			}
			return d, nil
		}
		path := filepath.Join(dir, fmt.Sprintf("rung%g.kgs", scale))
		start := time.Now()
		stats, err := snap.BuildExternalFile(path, feed,
			&snap.Meta{Source: fmt.Sprintf("%s+skew@%g", cfg.Name, scale), CreatedUnix: time.Now().Unix()},
			snap.ExtBuildOptions{TmpDir: dir, MemBudget: report.MemBudgetBytes})
		if err != nil {
			return err
		}
		rung := scaleRung{
			Scale:        scale,
			RawTriples:   stats.RawTriples,
			Triples:      stats.Triples,
			SortRuns:     stats.Runs,
			SpillBytes:   stats.SpillBytes,
			BuildMillis:  time.Since(start).Milliseconds(),
			PeakRSSBytes: peakRSSBytes(),
		}
		if fi, err := os.Stat(path); err == nil {
			rung.SnapshotBytes = fi.Size()
		}

		l, err := snap.LoadFile(path, snap.Options{Mode: snap.ModeAuto})
		if err != nil {
			return err
		}
		st := l.Store
		knows, ok1 := st.Dict().LookupIRI("skew:knows")
		pop, ok2 := st.Dict().LookupIRI("skew:pop")
		if !ok1 || !ok2 {
			l.Close()
			return fmt.Errorf("scalebench: skew predicates missing from rung %g", scale)
		}
		q := &query.Query{
			Patterns: []query.Pattern{
				{S: query.V(0), P: query.C(knows), O: query.V(1)},
				{S: query.V(1), P: query.C(pop), O: query.V(2)},
			},
			Alpha: query.NoVar,
			Beta:  2,
			Agg:   query.AggCount,
		}
		pl, err := query.Compile(q)
		if err != nil {
			l.Close()
			return err
		}
		rung.Exact = skewExact(hubs, leaves)
		if got := float64(ctj.Count(st, pl)); got != rung.Exact {
			l.Close()
			return fmt.Errorf("scalebench: rung %g exact drifted: ctj %v, analytic %v", scale, got, rung.Exact)
		}

		// The ladder studies stratifying the hub-skewed knows root, so both
		// strategies run the plan as written through the internal
		// constructors rather than in the order the facade would choose.
		rung.Uniform = runStrategy(func(s int64) ladderStepper {
			return core.New(st, pl, core.Options{Threshold: -1, Seed: s})
		}, rung.Exact, seed)
		rung.Stratified = runStrategy(func(s int64) ladderStepper {
			return core.NewStratified(st, pl, core.StratifiedOptions{
				Options: core.Options{Threshold: -1, Seed: s},
			})
		}, rung.Exact, seed)
		l.Close()
		os.Remove(path)

		if rung.Stratified.MeanWalksToCI > 0 && rung.Uniform.Converged > 0 {
			rung.WalksRatio = rung.Uniform.MeanWalksToCI / rung.Stratified.MeanWalksToCI
		} else if rung.Uniform.Converged == 0 && rung.Stratified.Converged > 0 {
			// Uniform never reached the target: credit it the walk cap.
			rung.WalksRatio = float64(scaleMaxWalks) / rung.Stratified.MeanWalksToCI
		}
		if rung.Uniform.Covered <= scaleReps/2 || rung.Stratified.Covered <= scaleReps/2 {
			report.EquivalenceOK = false
		}
		if report.MinWalksRatio == 0 || rung.WalksRatio < report.MinWalksRatio {
			report.MinWalksRatio = rung.WalksRatio
		}
		report.Rungs = append(report.Rungs, rung)
		fmt.Fprintf(w, "%-8g %10d %8d %11.1fM %9dms %12.0f %12.0f %7.2fx\n",
			scale, rung.Triples, rung.SortRuns, float64(rung.SpillBytes)/(1<<20),
			rung.BuildMillis, rung.Uniform.MeanWalksToCI, rung.Stratified.MeanWalksToCI,
			rung.WalksRatio)
	}

	fmt.Fprintf(w, "worst rung: stratified needs %.2fx fewer walks; equivalence (exact within CI) %v\n",
		report.MinWalksRatio, report.EquivalenceOK)
	if report.MinWalksRatio < 1.3 {
		fmt.Fprintf(w, "WARNING: stratification advantage under 1.3x on at least one rung\n")
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
