package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"kgexplore"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/workload"
)

// parallelBenchRow is one (workers, cache mode) measurement aggregated over
// the benchmark's query mix.
type parallelBenchRow struct {
	Workers     int     `json:"workers"`
	Shared      bool    `json:"shared"`
	Walks       int64   `json:"walks"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	WalksPerSec float64 `json:"walks_per_sec"`
	CountMisses int64   `json:"count_misses"`
	ProbMisses  int64   `json:"prob_misses"`
	AggMisses   int64   `json:"agg_misses"`
	ExistMisses int64   `json:"exist_misses"`
	Hits        int64   `json:"hits"`
	HitRate     float64 `json:"hit_rate"`
}

// parallelBenchReport is the BENCH_parallel.json schema: the fixture and
// protocol, the shared-vs-private grid, and the two headline ratios —
// 4-worker shared-cache miss inflation over a single worker (1.0 means the
// workers duplicated no cache work) and 4-worker walk throughput over a
// single worker (per-worker walk counts are fixed, so >1 means the warm
// cache amortised; on a multi-core box parallelism adds to this).
type parallelBenchReport struct {
	Dataset        string             `json:"dataset"`
	Scale          float64            `json:"scale"`
	Triples        int                `json:"triples"`
	Queries        int                `json:"queries"`
	WalksPerWorker int64              `json:"walks_per_worker"`
	Seed           int64              `json:"seed"`
	GoMaxProcs     int                `json:"gomaxprocs"`
	GoVersion      string             `json:"go_version"`
	PeakRSSBytes   int64              `json:"peak_rss_bytes"`
	Rows           []parallelBenchRow `json:"rows"`
	// MissRatioShared4 = (CountMisses+ProbMisses of shared 4-worker) /
	// (same of the 1-worker run). Single-flight keeps it near 1.
	MissRatioShared4 float64 `json:"miss_ratio_shared4_vs_1"`
	// ThroughputRatioShared4 = walks/sec of shared 4-worker over 1-worker.
	ThroughputRatioShared4 float64 `json:"throughput_ratio_shared4_vs_1"`
}

// hubChainPlan builds an ungrouped distinct chain through the dataset's two
// densest predicates:
//
//	?a p1 ?h . ?b p1 ?h . ?b p2 ?c    (count distinct ?c)
//
// The hub self-join makes the true path count orders of magnitude larger
// than the triple count, so the evaluator's one-pass Pr(b) materialization is
// the dominant cache-fill cost of the whole run. With private caches every
// worker repeats that pass; the shared cache pays it once — the contrast the
// benchmark exists to measure. Returns nil if the plan does not compile
// (degenerate fixtures).
func hubChainPlan(g *rdf.Graph, st *index.Store) *query.Plan {
	counts := map[rdf.ID]int{}
	for _, tr := range g.Triples {
		counts[tr.P]++
	}
	var p1, p2 rdf.ID
	n1, n2 := 0, 0
	for p, n := range counts {
		switch {
		case n > n1 || (n == n1 && p < p1):
			p2, n2 = p1, n1
			p1, n1 = p, n
		case n > n2 || (n == n2 && p < p2):
			p2, n2 = p, n
		}
	}
	if n2 == 0 {
		return nil
	}
	q := &query.Query{
		Alpha:    query.NoVar,
		Beta:     3,
		Distinct: true,
		Patterns: []query.Pattern{
			{S: query.V(1), P: query.C(p1), O: query.V(0)},
			{S: query.V(2), P: query.C(p1), O: query.V(0)},
			{S: query.V(2), P: query.C(p2), O: query.V(3)},
		},
	}
	pl, err := query.Compile(q)
	if err != nil {
		return nil
	}
	return pl
}

func missKinds(cs ctj.CacheStats) (count, prob, agg, exist int64) {
	return cs.CountMisses, cs.ProbMisses, cs.AggMisses, cs.ExistMisses
}

func hitSum(cs ctj.CacheStats) int64 {
	return cs.CountHits + cs.ProbHits + cs.AggHits + cs.ExistHits
}

// runParallelBench measures Audit Join walk throughput and CTJ cache traffic
// at 1/2/4/8 workers with the shared concurrent cache versus private
// per-worker caches, over a workload-generated query mix on a DBpedia-sim
// fixture. Per-worker walk counts are fixed (W workers perform W×N walks),
// so the shared-over-private contrast isolates cache warm-up: private
// workers each repay the full miss cost, shared workers pay it once.
func runParallelBench(w io.Writer, outPath string, scale float64, seed, walksPerWorker int64) error {
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
	recs := gen.Paths(4)
	const maxQueries = 5
	if len(recs) > maxQueries {
		recs = recs[:maxQueries]
	}
	if len(recs) == 0 {
		return fmt.Errorf("parallelbench: workload generated no queries at scale %g", scale)
	}
	plans := make([]*query.Plan, 0, len(recs)+1)
	for _, rec := range recs {
		plans = append(plans, rec.Plan)
	}
	if hub := hubChainPlan(g, st); hub != nil {
		// A dense-hub chain whose estimated join size exceeds the prob
		// materialization limit, so Pr(a,b) lookups take the lazy per-pair
		// path: the expensive-miss regime where the shared cache matters most.
		plans = append(plans, hub)
	}

	report := parallelBenchReport{
		Dataset:        cfg.Name,
		Scale:          scale,
		Triples:        g.Len(),
		Queries:        len(plans),
		WalksPerWorker: walksPerWorker,
		Seed:           seed,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
	}

	bench := func(workers int, shared bool) parallelBenchRow {
		row := parallelBenchRow{Workers: workers, Shared: shared}
		start := time.Now()
		for _, pl := range plans {
			opts := core.Options{
				Threshold:     core.DefaultThreshold,
				Seed:          seed,
				NoSharedCache: !shared,
			}
			res, ps, err := ds.RunAuditJoinParallel(context.Background(), pl, opts, workers,
				exec.Options{MaxWalks: walksPerWorker})
			if err != nil {
				// No context or budget in play: a failure here is a bug.
				panic(err)
			}
			row.Walks += res.Walks
			if ps.SharedUsed {
				c, p, a, e := missKinds(ps.Shared)
				row.CountMisses += c
				row.ProbMisses += p
				row.AggMisses += a
				row.ExistMisses += e
				row.Hits += hitSum(ps.Shared)
			} else {
				for _, cs := range ps.PerWorker {
					c, p, a, e := missKinds(cs)
					row.CountMisses += c
					row.ProbMisses += p
					row.AggMisses += a
					row.ExistMisses += e
					row.Hits += hitSum(cs)
				}
			}
		}
		row.ElapsedNs = time.Since(start).Nanoseconds()
		row.WalksPerSec = float64(row.Walks) / (float64(row.ElapsedNs) / 1e9)
		misses := row.CountMisses + row.ProbMisses + row.AggMisses + row.ExistMisses
		if total := row.Hits + misses; total > 0 {
			row.HitRate = float64(row.Hits) / float64(total)
		}
		return row
	}

	fmt.Fprintf(w, "parallelbench: %s scale %g, %d triples, %d queries, %d walks/worker\n",
		cfg.Name, scale, g.Len(), len(plans), walksPerWorker)
	var shared1, shared4 parallelBenchRow
	for _, shared := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4, 8} {
			row := bench(workers, shared)
			report.Rows = append(report.Rows, row)
			if shared && workers == 1 {
				shared1 = row
			}
			if shared && workers == 4 {
				shared4 = row
			}
			mode := "private"
			if shared {
				mode = "shared"
			}
			fmt.Fprintf(w, "  %-7s w=%d %10.0f walks/s  miss count=%d prob=%d agg=%d exist=%d  hit rate %.3f\n",
				mode, workers, row.WalksPerSec, row.CountMisses, row.ProbMisses, row.AggMisses, row.ExistMisses, row.HitRate)
		}
	}

	if d := shared1.CountMisses + shared1.ProbMisses; d > 0 {
		report.MissRatioShared4 = float64(shared4.CountMisses+shared4.ProbMisses) / float64(d)
	}
	if shared1.WalksPerSec > 0 {
		report.ThroughputRatioShared4 = shared4.WalksPerSec / shared1.WalksPerSec
	}
	fmt.Fprintf(w, "  shared 4w vs 1w: miss ratio %.3f, throughput ratio %.2fx\n",
		report.MissRatioShared4, report.ThroughputRatioShared4)

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
