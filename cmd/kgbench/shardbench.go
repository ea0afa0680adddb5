package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"kgexplore"
	"kgexplore/internal/exec"
	"kgexplore/internal/index"
	"kgexplore/internal/kggen"
	"kgexplore/internal/lftj"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/shard"
)

// shardBenchRow is one shard-count measurement: partition+build cost, walk
// throughput of a full-width scatter-gather run, and the merged estimate's
// error against the exact answer.
type shardBenchRow struct {
	Shards       int     `json:"shards"`
	BuildNs      int64   `json:"build_ns"`
	Walks        int64   `json:"walks"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	WalksPerSec  float64 `json:"walks_per_sec"`
	MeanRelErr   float64 `json:"mean_rel_err"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	MinRootShare float64 `json:"min_root_share"` // smallest stratum's root fraction
}

// shardBenchReport is the BENCH_shard.json schema: the fixture, the per-K
// grid, and the headline throughput ratio of the widest configuration over
// a single shard.
type shardBenchReport struct {
	Dataset      string          `json:"dataset"`
	Scale        float64         `json:"scale"`
	Triples      int             `json:"triples"`
	Walks        int64           `json:"walks"`
	Seed         int64           `json:"seed"`
	GoMaxProcs   int             `json:"gomaxprocs"`
	GoVersion    string          `json:"go_version"`
	PeakRSSBytes int64           `json:"peak_rss_bytes"`
	Rows         []shardBenchRow `json:"rows"`
	// ThroughputRatio8 = walks/sec at 8 shards over 1 shard: >1 means
	// scatter-gather turned the shard count into parallel walk throughput.
	ThroughputRatio8 float64 `json:"throughput_ratio_8_vs_1"`
	// CPULimited flags runs where GOMAXPROCS is below the widest shard
	// count: the per-shard pools time-slice one core, so the ratio measures
	// scatter overhead plus smaller-store locality, not parallel speedup.
	CPULimited bool `json:"cpu_limited,omitempty"`
}

// shardChainPlan builds the grouped chain ?s p1 ?m . ?m p2 ?a COUNT GROUP
// BY ?a — a join whose root spans every shard, so the allocation rule and
// the resolver both matter. Dense predicate pairs are tried in order until
// one composes to a non-empty exact answer on st; that answer is returned
// alongside the plan so the caller does not recompute it.
func shardChainPlan(g *rdf.Graph, st *index.Store) (*query.Plan, map[rdf.ID]int64) {
	counts := map[rdf.ID]int{}
	for _, tr := range g.Triples {
		counts[tr.P]++
	}
	preds := make([]rdf.ID, 0, len(counts))
	for p := range counts {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool {
		if counts[preds[i]] != counts[preds[j]] {
			return counts[preds[i]] > counts[preds[j]]
		}
		return preds[i] < preds[j]
	})
	if len(preds) > 8 {
		preds = preds[:8]
	}
	for _, p1 := range preds {
		for _, p2 := range preds {
			q := &query.Query{
				Alpha: 2,
				Beta:  0,
				Patterns: []query.Pattern{
					{S: query.V(0), P: query.C(p1), O: query.V(1)},
					{S: query.V(1), P: query.C(p2), O: query.V(2)},
				},
			}
			pl, err := query.Compile(q)
			if err != nil {
				continue
			}
			if exact := lftj.GroupCount(st, pl); len(exact) > 0 {
				return pl, exact
			}
		}
	}
	return nil, nil
}

// runShardBench measures sharded scatter-gather Audit Join at 1/2/4/8
// shards on a DBpedia-sim fixture: shard build time, walk throughput with
// one worker per shard, and the merged grouped-COUNT estimate's mean
// relative error against the exact LFTJ answer. Throughput should grow with
// the shard count (walkers run in parallel, one pool per stratum) while the
// error stays flat — stratification changes the variance bookkeeping, not
// the estimator's accuracy.
func runShardBench(w io.Writer, outPath string, scale float64, seed, walks int64) error {
	cfg := kggen.DBpediaSim(scale)
	g, _, err := kggen.Generate(cfg)
	if err != nil {
		return err
	}
	st := index.Build(g)
	pl, exact := shardChainPlan(g, st)
	if pl == nil {
		return fmt.Errorf("shardbench: no chain plan with a non-empty answer at scale %g", scale)
	}
	ds, err := kgexplore.FromStore(st, kgexplore.RootThing)
	if err != nil {
		return err
	}

	report := shardBenchReport{
		Dataset:    cfg.Name,
		Scale:      scale,
		Triples:    g.Len(),
		Walks:      walks,
		Seed:       seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	fmt.Fprintf(w, "shardbench: %s scale %g, %d triples, %d total walks, %d groups exact\n",
		cfg.Name, scale, g.Len(), walks, len(exact))
	for _, k := range []int{1, 2, 4, 8} {
		start := time.Now()
		sds, err := ds.BuildSharded(k, "")
		if err != nil {
			return err
		}
		row := shardBenchRow{Shards: k, BuildNs: time.Since(start).Nanoseconds()}

		// Through the facade, so the scatter walks the order the serving
		// path would choose.
		start = time.Now()
		res, sstats, err := sds.RunScatter(context.Background(), pl,
			shard.ScatterOptions{Seed: seed},
			exec.Options{MaxWalks: walks, Batch: 256})
		if err != nil {
			return err
		}
		row.ElapsedNs = time.Since(start).Nanoseconds()
		row.Walks = res.Walks
		row.WalksPerSec = float64(res.Walks) / (float64(row.ElapsedNs) / 1e9)
		row.CacheHits = sstats.Cache.Hits
		row.CacheMisses = sstats.Cache.Misses

		totalRoot := 0
		minRoot := math.MaxInt
		for _, ps := range sstats.PerShard {
			totalRoot += ps.RootCard
			if ps.RootCard < minRoot {
				minRoot = ps.RootCard
			}
		}
		if totalRoot > 0 {
			row.MinRootShare = float64(minRoot) / float64(totalRoot)
		}

		var errSum float64
		var n int
		for a, ex := range exact {
			if ex == 0 {
				continue
			}
			errSum += math.Abs(res.Estimates[a]-float64(ex)) / float64(ex)
			n++
		}
		if n > 0 {
			row.MeanRelErr = errSum / float64(n)
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "  K=%d build %6.1fms  %10.0f walks/s  mean rel err %.4f  cache %d/%d hit/miss\n",
			k, float64(row.BuildNs)/1e6, row.WalksPerSec, row.MeanRelErr, row.CacheHits, row.CacheMisses)
	}

	if first := report.Rows[0].WalksPerSec; first > 0 {
		report.ThroughputRatio8 = report.Rows[len(report.Rows)-1].WalksPerSec / first
	}
	report.CPULimited = report.GoMaxProcs < report.Rows[len(report.Rows)-1].Shards
	fmt.Fprintf(w, "  8 shards vs 1: throughput ratio %.2fx\n", report.ThroughputRatio8)
	if report.CPULimited {
		fmt.Fprintf(w, "  note: GOMAXPROCS=%d < 8, pools time-slice; ratio is not a parallel speedup\n",
			report.GoMaxProcs)
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
