package kgexplore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kgexplore/internal/card"
	"kgexplore/internal/dist"
	"kgexplore/internal/explore"
	"kgexplore/internal/query"
	"kgexplore/internal/shard"
	"kgexplore/internal/snap"
	"kgexplore/internal/sparql"
	"kgexplore/internal/wj"
)

// Re-exported distributed scatter-gather types (internal/dist).
type (
	// DistRunOptions configure one distributed scatter-gather run.
	DistRunOptions = dist.RunOptions
	// DistRunStats extends the scatter statistics with distribution
	// telemetry: which worker served each stratum, retries, wire bytes.
	DistRunStats = dist.RunStats
	// DistRetryRecord documents one stratum re-allocation after worker loss.
	DistRetryRecord = dist.RetryRecord
	// DistWorkerHealth is one fleet member's health snapshot.
	DistWorkerHealth = dist.WorkerHealth
	// DistWorkerStats is a worker's self-reported statistics.
	DistWorkerStats = dist.WorkerStats
)

// DistDataset is the distributed counterpart of ShardedDataset: the shards
// live in kgworker processes reached over the wire, and online aggregation
// runs as coordinator-driven scatter-gather with stratified budget
// allocation, progressive merged snapshots, and stratum re-allocation on
// worker loss. Exploration (parsing, compiling, charts) runs locally against
// the shared dictionary, loaded once from the first shard's snapshot —
// every shard of a set carries the full dictionary.
//
// Like its in-process siblings, a DistDataset is safe for concurrent
// readers once constructed; Close releases the local dictionary mapping
// (the workers own their stores).
type DistDataset struct {
	co     *dist.Coordinator
	dict   *Dict
	schema explore.Schema
	local  *snap.Loaded

	manifest   ShardManifest
	triples    int
	indexBytes int64
	// estimator is the cardinality estimator name sent to workers with
	// every run ("" = span statistics); workers construct it over their own
	// stores.
	estimator string
}

// DialDistDataset connects a coordinator to a kgworker fleet serving the
// shard set described by manifestPath. workers lists the fleet addresses;
// nil falls back to the manifest's recorded placement (kgsnap shard
// -workers). The manifest must be readable locally — the shared dictionary
// is loaded from the first shard's snapshot — and the fleet must agree with
// it on shard count and dictionary length.
func DialDistDataset(ctx context.Context, manifestPath string, workers []string) (*DistDataset, error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	if workers == nil {
		workers = m.Workers
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("kgexplore: no worker addresses given and manifest %s records none", manifestPath)
	}
	co, err := dist.Dial(ctx, workers)
	if err != nil {
		return nil, err
	}
	d, err := newDistLocal(co, manifestPath, m)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// newDistLocal builds the local half of a DistDataset — dictionary, schema,
// manifest bookkeeping — over an already-dialed coordinator.
func newDistLocal(co *dist.Coordinator, manifestPath string, m ShardManifest) (*DistDataset, error) {
	if co.K() != m.Shards {
		return nil, fmt.Errorf("kgexplore: fleet serves %d shards, manifest %s describes %d", co.K(), manifestPath, m.Shards)
	}
	dir := filepath.Dir(manifestPath)
	l, err := snap.LoadFile(filepath.Join(dir, m.Files[0].Path), snap.Options{Mode: snap.ModeAuto})
	if err != nil {
		return nil, fmt.Errorf("kgexplore: loading shared dictionary from shard 0: %w", err)
	}
	dict := l.Store.Dict()
	if dict.Len() != co.DictLen() {
		l.Close()
		return nil, fmt.Errorf("kgexplore: local dictionary has %d terms, fleet reports %d — manifest and fleet serve different sets",
			dict.Len(), co.DictLen())
	}
	schema, err := explore.SchemaOf(dict, RootThing)
	if err != nil {
		l.Close()
		return nil, err
	}
	d := &DistDataset{co: co, dict: dict, schema: schema, local: l, manifest: m}
	for _, f := range m.Files {
		d.triples += f.Triples
		if fi, err := os.Stat(filepath.Join(dir, f.Path)); err == nil {
			d.indexBytes += fi.Size()
		}
	}
	return d, nil
}

// Close releases the local dictionary mapping. The workers' stores are
// theirs to close.
func (d *DistDataset) Close() error { return d.local.Close() }

// NumShards returns the fleet's shard count K.
func (d *DistDataset) NumShards() int { return d.co.K() }

// NumTriples returns the total triple count across shards, per the manifest.
func (d *DistDataset) NumTriples() int { return d.triples }

// IndexBytes reports the on-disk size of the shard snapshots the fleet
// serves (the local stat of the manifest's files; 0 for files not present
// on this machine).
func (d *DistDataset) IndexBytes() int64 { return d.indexBytes }

// Workers returns the fleet's worker addresses.
func (d *DistDataset) Workers() []string { return d.co.Workers() }

// Dict returns the shared term dictionary.
func (d *DistDataset) Dict() *Dict { return d.dict }

// Root returns the initial exploration state: the root class bar.
func (d *DistDataset) Root() *ExploreState { return explore.Root(d.schema) }

// ParseQuery parses a query in the SPARQL fragment of Fig. 4. Constants are
// interned into the shared dictionary, which the fleet's workers share by
// construction — interning can only find existing terms or append new ones
// that no worker-side plan will ever resolve, so it stays coherent.
func (d *DistDataset) ParseQuery(src string) (*ParsedQuery, error) {
	return sparql.Parse(src, d.dict)
}

// Compile plans a query for execution (the same planner the workers run;
// the plan's Query travels over the wire and is re-planned worker-side).
func (d *DistDataset) Compile(q *Query) (*Plan, error) { return query.Compile(q) }

// BarsOf converts a per-group result (and optional CI map) into bars sorted
// by descending count, decoding group IDs through the shared dictionary.
func (d *DistDataset) BarsOf(counts map[ID]float64, ci map[ID]float64) []Bar {
	return barsOf(d.dict, counts, ci)
}

// UseEstimator switches the fleet's tipping and budget decisions to the
// named cardinality estimator. The name is validated locally and sent with
// every run; each worker constructs the estimator over its own stores.
func (d *DistDataset) UseEstimator(name string) error {
	if _, err := card.ByName(name, d.local.Store); err != nil {
		return err
	}
	d.estimator = name
	return nil
}

// EstimatorName reports which cardinality estimator the fleet's runs use.
func (d *DistDataset) EstimatorName() string {
	if d.estimator != "" {
		return d.estimator
	}
	return EstimatorSpan
}

// PlanWalk is Dataset.PlanWalk for the fleet, with ShardedDataset.PlanWalk's
// rule for COUNT(DISTINCT) (the translation root stays, since the workers
// read ownership off it). The coordinator plans once, from the statistics of
// its local copy of shard 0 — subject-hash partitioning makes one shard a
// uniform sample of every pattern's matches, so pattern cardinalities keep
// their ranking — and ships the chosen order; workers compile what they
// receive instead of each choosing from its own shard.
func (d *DistDataset) PlanWalk(pl *Plan) *Plan {
	return query.ChooseOrder(pl, card.NewSpanStats(d.local.Store), pl.Query.Distinct)
}

// RunDist executes one distributed scatter-gather Audit Join over the
// fleet, in the walk order PlanWalk chooses, with shard.RunScatter's
// contract: xopts.MaxWalks is the total walk budget split across strata
// proportionally to root cardinality, progressive snapshots merge all
// strata through xopts.OnSnapshot, and the final CIs merge with stratified
// variance. On worker loss the lost stratum re-runs on a survivor (see
// DistRunStats.Reallocations).
func (d *DistDataset) RunDist(ctx context.Context, pl *Plan, opts DistRunOptions, xopts DriveOptions) (EstimateResult, DistRunStats, error) {
	if opts.Estimator == "" {
		opts.Estimator = d.estimator
	}
	return d.co.Run(ctx, d.PlanWalk(pl).Query, opts, xopts)
}

// CompileUnion validates and plans every branch of a union.
func (d *DistDataset) CompileUnion(u *UnionQuery) (*UnionPlan, error) {
	return query.CompileUnion(u)
}

// ExactUnionCtx evaluates a union exactly on one worker, which shares the
// DISTINCT dedup set and AVG numerator/denominator across branches against
// its hybrid-resolver view of the whole set. Retries on worker loss.
func (d *DistDataset) ExactUnionCtx(ctx context.Context, up *UnionPlan) (map[ID]float64, error) {
	return d.co.ExactUnion(ctx, up.Query, 0)
}

// RunUnionDist estimates a union over the fleet: each branch runs as its own
// distributed scatter-gather with an equal share of the walk and wall-clock
// budget, and the finished branch results merge additively — estimates sum,
// CIs in quadrature (wj.MergeUnion). That merge is sound only for additive
// aggregates, so AVG and COUNT(DISTINCT) unions route to the worker-side
// exact union instead (reported via the returned stats' ExactFallback).
// xopts.OnSnapshot fires per branch run and therefore sees partial-union
// snapshots; pass nil unless branch-level progress is wanted.
func (d *DistDataset) RunUnionDist(ctx context.Context, up *UnionPlan, opts DistRunOptions, xopts DriveOptions) (EstimateResult, []DistRunStats, error) {
	q := up.Query
	if q.Agg() == query.AggAvg || q.Distinct() {
		counts, err := d.co.ExactUnion(ctx, q, xopts.Budget)
		if err != nil {
			return EstimateResult{}, nil, err
		}
		st := DistRunStats{}
		st.ExactFallback = true
		return EstimateResult{Estimates: counts, CI: map[ID]float64{}}, []DistRunStats{st}, nil
	}
	n := len(up.Plans)
	bopts := xopts
	if xopts.MaxWalks > 0 {
		bopts.MaxWalks = (xopts.MaxWalks + int64(n) - 1) / int64(n)
	}
	if xopts.Budget > 0 {
		bopts.Budget = xopts.Budget / time.Duration(n)
	}
	results := make([]wj.Result, 0, n)
	stats := make([]DistRunStats, 0, n)
	for i, pl := range up.Plans {
		ropts := opts
		if opts.Estimator == "" {
			ropts.Estimator = d.estimator
		}
		ropts.Seed = opts.Seed + int64(i)*1_000_003
		res, st, err := d.co.Run(ctx, d.PlanWalk(pl).Query, ropts, bopts)
		if err != nil {
			return EstimateResult{}, stats, err
		}
		results = append(results, res)
		stats = append(stats, st)
	}
	return wj.MergeUnion(results, 0), stats, nil
}

// ExactCtx evaluates the plan exactly on one worker (replicate workers hold
// the whole set; own-placement workers reach peers through their hybrid
// resolver), retrying on worker loss, with cooperative cancellation.
func (d *DistDataset) ExactCtx(ctx context.Context, pl *Plan) (map[ID]float64, error) {
	return d.co.Exact(ctx, pl.Query, 0)
}

// Health polls every worker's stats in parallel. A worker previously marked
// down that answers rejoins the coordinator's live pool.
func (d *DistDataset) Health(ctx context.Context) []DistWorkerHealth {
	return d.co.Health(ctx)
}

// Retries returns the fleet-lifetime count of stratum re-allocations after
// worker loss.
func (d *DistDataset) Retries() int64 { return d.co.Retries() }

// TotalRuns returns the fleet-lifetime distributed run count.
func (d *DistDataset) TotalRuns() int64 { return d.co.TotalRuns() }

// SwapAll hot-swaps the whole fleet to a new manifest with epoch
// coordination — every worker prepares the new set, the swap aborts
// all-or-nothing if any preparation fails or the prepared epochs disagree,
// then all commit and drain their old epochs. The manifest path must be
// valid on every worker's filesystem and locally (the shared dictionary is
// reloaded from the new set's first shard).
//
// On success it returns a NEW DistDataset over the same coordinator; the
// old one keeps answering dictionary lookups for in-flight requests and
// must be Closed once they drain. If the fleet commits but the local
// reload fails, the error is returned and the old DistDataset is stale —
// its dictionary no longer matches the fleet — so the caller should retry
// the local load or stop serving.
func (d *DistDataset) SwapAll(ctx context.Context, manifestPath string, mmap bool) (*DistDataset, error) {
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	if err := d.co.SwapAll(ctx, manifestPath, mmap); err != nil {
		return nil, err
	}
	nd, err := newDistLocal(d.co, manifestPath, m)
	if err != nil {
		return nil, fmt.Errorf("kgexplore: fleet swapped but the local reload failed (old dictionary is stale): %w", err)
	}
	nd.estimator = d.estimator
	return nd, nil
}
