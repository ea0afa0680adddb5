package kgexplore

import (
	"context"
	"fmt"
	"strings"

	"kgexplore/internal/exec"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/live"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/snap"
	"kgexplore/internal/sparql"
)

// Re-exported live-ingestion types (internal/live).
type (
	// LiveOptions configure a live dataset: the base store's closer, the
	// write-ahead-log path (empty disables durability) and NoSync.
	LiveOptions = live.Options
	// LiveIngestOp is one decoded mutation: an insert or delete of a triple
	// given by terms (terms may be new; they are interned on apply).
	LiveIngestOp = live.DecodedOp
	// LiveStats is the overlay telemetry snapshot: generation, layer sizes,
	// applied batches, compactions, WAL size and the last background error.
	LiveStats = live.Stats
	// LiveView is an immutable base+delta+tombstones generation; readers
	// resolve against one view for their whole run.
	LiveView = live.View
	// LiveWalker runs Audit Join walks over one overlay view. It is a
	// Stepper: drive it with Drive or RunWalks.
	LiveWalker = live.Walker
	// LiveWalkerOptions configure one overlay walker (tipping threshold,
	// seed, estimator).
	LiveWalkerOptions = live.WalkerOptions
	// LiveCompactResult reports one background compaction: the fresh
	// snapshot path, residual overlay sizes, and the retired base's closer
	// (close it only after readers of pre-compaction views drain).
	LiveCompactResult = live.CompactResult
	// ParseError describes a syntax error in N-Triples input (ingest
	// endpoints use it to distinguish client errors from apply failures).
	ParseError = rdf.ParseError
)

// ErrLiveDistinct reports a COUNT(DISTINCT) plan handed to the overlay
// walker; distinct queries on live datasets take the exact merged-view path
// (ExactCtx) instead of risking a silently biased estimate.
var ErrLiveDistinct = live.ErrDistinctOverlay

// ErrLiveCompacting reports a Compact call while another compaction is in
// flight; ingest and serving continue regardless.
var ErrLiveCompacting = live.ErrCompacting

// LiveDataset is the updatable counterpart of Dataset: an in-memory delta
// overlay (inserts plus tombstones) over the immutable — typically mmap'd —
// base store, with optional write-ahead durability and background
// compaction into fresh snapshots. Exploration (parsing, compiling, charts)
// works identically; online aggregation runs merged-view Audit Join whose
// root weights come from merged base+delta cardinalities, so estimates stay
// unbiased for the live triple set. All methods are safe for concurrent
// use; individual walkers are not (create one per goroutine).
type LiveDataset struct {
	ls     *live.Store
	schema explore.Schema
}

// Live wraps the dataset's built store into a live dataset. The dataset's
// dictionary is retained and grows with ingested terms; opts.Closer should
// own the base's backing resources (an mmap'ed snapshot load), and
// opts.WALPath enables crash-replayable durability for acknowledged
// batches.
func (d *Dataset) Live(opts LiveOptions) (*LiveDataset, error) {
	ls, err := live.NewStore(d.store, opts)
	if err != nil {
		return nil, err
	}
	return &LiveDataset{ls: ls, schema: d.schema}, nil
}

// Close closes the WAL and the current base's closer. Retired bases from
// earlier compactions are closed by whoever received their
// LiveCompactResult.
func (d *LiveDataset) Close() error { return d.ls.Close() }

// NumTriples returns the current live triple count (base − tombstones +
// delta).
func (d *LiveDataset) NumTriples() int { return d.ls.NumTriples() }

// IndexBytes estimates the resident size of the base and delta indexes.
func (d *LiveDataset) IndexBytes() int64 { return d.ls.View().IndexBytes() }

// Dict returns the shared term dictionary (safe for concurrent interning).
func (d *LiveDataset) Dict() *Dict { return d.ls.Dict() }

// Root returns the initial exploration state: the root class bar.
func (d *LiveDataset) Root() *ExploreState { return explore.Root(d.schema) }

// ParseQuery parses a query in the SPARQL fragment of Fig. 4, interning
// constants into the shared dictionary.
func (d *LiveDataset) ParseQuery(src string) (*ParsedQuery, error) {
	return sparql.Parse(src, d.ls.Dict())
}

// Compile plans a query for execution.
func (d *LiveDataset) Compile(q *Query) (*Plan, error) { return query.Compile(q) }

// BarsOf converts a per-group result (and optional CI map) into bars sorted
// by descending count, decoding group IDs through the shared dictionary.
func (d *LiveDataset) BarsOf(counts map[ID]float64, ci map[ID]float64) []Bar {
	return barsOf(d.ls.Dict(), counts, ci)
}

// EstimatorName reports the cardinality estimator behind tipping decisions;
// live datasets use span statistics over the merged layers.
func (d *LiveDataset) EstimatorName() string { return EstimatorSpan }

// View returns the current immutable view (wait-free); capture one per run
// for snapshot-consistent reads under ingest.
func (d *LiveDataset) View() *LiveView { return d.ls.View() }

// Stats returns overlay, compaction and WAL telemetry.
func (d *LiveDataset) Stats() LiveStats { return d.ls.Stats() }

// LastErr returns the most recent background (WAL or compaction) error, or
// nil.
func (d *LiveDataset) LastErr() error { return d.ls.LastErr() }

// Ingest applies one batch of decoded mutations in order: the batch is
// WAL-logged (when durability is configured) before it is acknowledged, and
// a fresh view generation is published. Never triggers an index rebuild —
// rebuilds happen only in background compaction.
func (d *LiveDataset) Ingest(ops []LiveIngestOp) error { return d.ls.ApplyDecoded(ops) }

// IngestNTriples parses N-Triples lines into one batch — adds first, then
// deletes, applied atomically in order — and ingests it. Blank lines and
// #-comments are skipped. Returns the number of operations applied.
func (d *LiveDataset) IngestNTriples(adds, dels []string) (int, error) {
	ops := make([]LiveIngestOp, 0, len(adds)+len(dels))
	appendLines := func(lines []string, del bool) error {
		for i, line := range lines {
			if s := strings.TrimSpace(line); s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			t, err := rdf.ParseTripleLine(line)
			if err != nil {
				verb := "add"
				if del {
					verb = "delete"
				}
				return fmt.Errorf("%s line %d: %w", verb, i+1, err)
			}
			ops = append(ops, LiveIngestOp{Del: del, S: t.S, P: t.P, O: t.O})
		}
		return nil
	}
	if err := appendLines(adds, false); err != nil {
		return 0, err
	}
	if err := appendLines(dels, true); err != nil {
		return 0, err
	}
	if err := d.ls.ApplyDecoded(ops); err != nil {
		return 0, err
	}
	return len(ops), nil
}

// PlanWalk is Dataset.PlanWalk over the CURRENT view's merged statistics.
// Ingest moves those statistics, so the choice holds for the view it was
// made on; a plan chosen here and handed to NewLiveWalker is walked as
// chosen.
func (d *LiveDataset) PlanWalk(pl *Plan) *Plan { return planLiveWalk(d.ls.View(), pl) }

func planLiveWalk(v *LiveView, pl *Plan) *Plan {
	return query.ChooseOrder(pl, v.SpanStats(), false)
}

// NewLiveWalker creates an Audit Join walker over the CURRENT view, walking
// the plan in the order PlanWalk chooses on that same view. COUNT(DISTINCT)
// plans fail with ErrLiveDistinct — route them to ExactCtx.
func (d *LiveDataset) NewLiveWalker(pl *Plan, opts LiveWalkerOptions) (*LiveWalker, error) {
	v := d.ls.View()
	return live.NewWalker(v, planLiveWalk(v, pl), opts)
}

// ExactCtx evaluates the plan exactly over the current view's live triple
// set by merged enumeration (tombstones filtered), with cooperative
// cancellation. This is the path DISTINCT queries take on live datasets.
func (d *LiveDataset) ExactCtx(ctx context.Context, pl *Plan) (map[ID]float64, error) {
	return live.Exact(ctx, d.ls.View(), pl)
}

// CompileUnion validates and plans every branch of a union.
func (d *LiveDataset) CompileUnion(u *UnionQuery) (*UnionPlan, error) {
	return query.CompileUnion(u)
}

// ExactUnionCtx evaluates a union exactly over the current view: COUNT and
// SUM add across branches, AVG is the ratio of the summed numerators and
// denominators, and COUNT(DISTINCT) deduplicates (group, β) pairs across
// branches through one shared value set.
func (d *LiveDataset) ExactUnionCtx(ctx context.Context, up *UnionPlan) (map[ID]float64, error) {
	return live.ExactUnion(ctx, d.ls.View(), up)
}

// NewUnionEstimator creates the stratified union estimator over ONE captured
// view: each branch is a live walker (tombstone rejection and all), walks
// interleave proportionally to the branches' root cardinalities, and
// Snapshot merges the branch accumulators as strata. COUNT(DISTINCT) unions
// are refused with ErrDistinctUnion — use ExactUnionCtx.
func (d *LiveDataset) NewUnionEstimator(up *UnionPlan, opts LiveWalkerOptions) (*UnionEstimator, error) {
	if up.Query.Distinct() {
		return nil, query.ErrDistinctUnion
	}
	v := d.ls.View()
	branches := make([]exec.AccStepper, len(up.Plans))
	weights := make([]float64, len(up.Plans))
	for i, pl := range up.Plans {
		bopts := opts
		bopts.Seed = opts.Seed + int64(i)*1_000_003
		w, err := live.NewWalker(v, planLiveWalk(v, pl), bopts)
		if err != nil {
			return nil, err
		}
		branches[i] = w
		weights[i] = float64(w.RootCard())
	}
	return exec.NewUnion(branches, weights), nil
}

// Compact streams the current view through the external builder into a
// fresh .kgs snapshot at path, mmap-loads it and adopts it as the new base.
// Ingest and serving proceed concurrently; batches applied during the build
// stay in the overlay. Returns ErrLiveCompacting when one is already
// running. The result's Retired closer must be closed only after readers of
// pre-compaction views drain (the server's epoch rotation does this).
func (d *LiveDataset) Compact(path string) (LiveCompactResult, error) {
	return d.ls.Compact(path, snap.ExtBuildOptions{})
}

// CompactInMemory folds the current view into a freshly built in-memory
// store and adopts it — the no-disk variant for tests and benchmarks.
func (d *LiveDataset) CompactInMemory() (LiveCompactResult, error) {
	_, res, err := d.ls.CompactInMemory()
	return res, err
}

// LoadLiveDataset loads a base store snapshot (.kgs) and wraps it as a live
// dataset whose closer is the snapshot mapping: the kgserver -live startup
// path. walPath ("" disables) configures write-ahead durability.
func LoadLiveDataset(path string, mmap bool, walPath string, noSync bool) (*LiveDataset, error) {
	ss, err := LoadStoreSnapshotFile(path, mmap)
	if err != nil {
		return nil, err
	}
	lds, err := ss.Dataset.Live(LiveOptions{Closer: ss, WALPath: walPath, NoSync: noSync})
	if err != nil {
		ss.Close()
		return nil, err
	}
	return lds, nil
}

// BaseTriples returns the base layer's triples in SPO order — the
// deletable population for ingest benchmarks (deleting a base triple
// exercises the tombstone path rather than the add-cancel path).
func (d *LiveDataset) BaseTriples() []rdf.Triple {
	return d.ls.View().Base().Triples(index.SPO)
}
