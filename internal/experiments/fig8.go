package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"kgexplore/internal/baseline"
	"kgexplore/internal/card"
	"kgexplore/internal/core"
	"kgexplore/internal/ctj"
	"kgexplore/internal/explore"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/wj"
)

// Fig8Row is one panel of Fig. 8: a selected query with exact-engine
// runtimes and the MAE/CI series of the two online algorithms.
type Fig8Row struct {
	Dataset      string
	Label        string // e.g. "out-prop(Thing)"
	Groups       int
	BaselineTime time.Duration
	BaselineErr  error // the baseline may exceed its row limit
	CTJTime      time.Duration
	WJ, AJ       []SeriesPoint
	// AJOrder is the walk order the truth-oracle protocol (bestOrder) picked
	// for Audit Join and OptOrder the one the statistics-only optimizer the
	// serving path uses (query.ChooseOrder) would pick, both as positions in
	// the translated query's pattern list.
	AJOrder, OptOrder []int
}

// Fig8 runs the six selected queries: for each dataset, the out-property
// expansion of the root (panels a/d), the subclass expansion one level in
// (panels b/e: of the root for DBpedia-sim, of the largest subclass for
// LGD-sim, mirroring the paper's Shop), and an expansion of a popular
// selection (panels c/f: the object expansion of the most popular property
// for DBpedia-sim, like musicalArtist; the out-property expansion of the
// largest subclass for LGD-sim, like Place).
func Fig8(w io.Writer, cfg Config) ([]Fig8Row, error) {
	ds, err := LoadDatasets(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for i, d := range ds {
		sel, err := selectedQueries(d)
		if err != nil {
			return nil, fmt.Errorf("fig8: %s: %w", d.Name, err)
		}
		for _, sq := range sel {
			row, err := runFig8Query(d, sq, cfg, int64(i+1))
			if err != nil {
				return nil, fmt.Errorf("fig8: %s %s: %w", d.Name, sq.label, err)
			}
			rows = append(rows, row)
			printFig8Row(w, row)
		}
	}
	return rows, nil
}

type selectedQuery struct {
	label string
	q     *query.Query
}

// selectedQueries builds the three panels for one dataset.
func selectedQueries(d *Dataset) ([]selectedQuery, error) {
	root := explore.Root(d.Schema)
	outProp, err := root.Query(explore.OpOutProp)
	if err != nil {
		return nil, err
	}
	subclass, err := root.Query(explore.OpSubclass)
	if err != nil {
		return nil, err
	}
	sel := []selectedQuery{
		{"out-prop(root)", outProp},
		{"subclass(root)", subclass},
	}
	if d.Name == "dbpedia-sim" {
		// Object expansion of the most popular property (musicalArtist
		// analogue).
		p, err := topProperty(d)
		if err != nil {
			return nil, err
		}
		st, err := root.Select(explore.OpOutProp, p)
		if err != nil {
			return nil, err
		}
		q, err := st.Query(explore.OpObject)
		if err != nil {
			return nil, err
		}
		sel = append(sel, selectedQuery{"object(top-prop)", q})
	} else {
		// Out-property expansion of the largest direct subclass (Place
		// analogue).
		c, err := topSubclass(d)
		if err != nil {
			return nil, err
		}
		st, err := root.Select(explore.OpSubclass, c)
		if err != nil {
			return nil, err
		}
		q, err := st.Query(explore.OpOutProp)
		if err != nil {
			return nil, err
		}
		sel = append(sel, selectedQuery{"out-prop(top-subclass)", q})
	}
	return sel, nil
}

// topProperty returns the most frequent non-schema predicate.
func topProperty(d *Dataset) (rdf.ID, error) {
	var best rdf.ID
	bestN := -1
	it := d.Store.Level(index.PSO, d.Store.FullSpan(index.PSO), 0)
	for it.Next() {
		k := it.Key()
		if k == d.Schema.Type || k == d.Schema.SubClassOf || k == d.Schema.TypeClosure {
			continue
		}
		if n := it.SubSpan().Len(); n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	if bestN < 0 {
		return 0, fmt.Errorf("no non-schema predicates")
	}
	return best, nil
}

// topSubclass returns the direct subclass of the root with the most
// closure instances.
func topSubclass(d *Dataset) (rdf.ID, error) {
	subSpan := d.Store.SpanL2(index.POS, d.Schema.SubClassOf, d.Schema.Root)
	var best rdf.ID
	bestN := -1
	var cands []rdf.ID
	for i := 0; i < subSpan.Len(); i++ {
		cands = append(cands, d.Store.At(index.POS, subSpan, i).S)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, c := range cands {
		n := d.Store.SpanL2(index.POS, d.Schema.TypeClosure, c).Len()
		if n > bestN {
			best, bestN = c, n
		}
	}
	if bestN < 0 {
		return 0, fmt.Errorf("root has no subclasses")
	}
	return best, nil
}

func runFig8Query(d *Dataset, sq selectedQuery, cfg Config, seed int64) (Fig8Row, error) {
	pl, err := query.Compile(sq.q)
	if err != nil {
		return Fig8Row{}, err
	}
	row := Fig8Row{Dataset: d.Name, Label: sq.label}

	// Exact engines, timed. CTJ also provides the ground truth.
	start := time.Now()
	exact := ctj.Evaluate(d.Store, pl)
	row.CTJTime = time.Since(start)
	row.Groups = len(exact)

	if !cfg.SkipBaseline {
		start = time.Now()
		_, err := baseline.Evaluate(d.Store, pl)
		row.BaselineTime = time.Since(start)
		row.BaselineErr = err
	}

	// Online aggregation, each with its best-MAE walk order (paper §V-B).
	wjPlan := bestWJOrder(d.Store, pl, exact, cfg.OrderTrials, cfg.Seed+seed)
	wjr := wj.New(d.Store, wjPlan, cfg.Seed+seed)
	row.WJ = runSeries(wjr, exact, cfg.Budget, cfg.Interval)
	ajPlan := bestAJOrder(d.Store, pl, exact, cfg.OrderTrials, cfg.Threshold, cfg.Seed+seed)
	ajr := core.New(d.Store, ajPlan, core.Options{Threshold: cfg.Threshold, Seed: cfg.Seed + seed})
	row.AJ = runSeries(ajr, exact, cfg.Budget, cfg.Interval)
	row.AJOrder = orderOf(sq.q, ajPlan)
	row.OptOrder = query.ChooseOrder(pl, card.NewSpanStats(d.Store), false).Order
	return row, nil
}

// orderOf reports pl's walk order as positions in q's pattern list.
func orderOf(q *query.Query, pl *query.Plan) []int {
	ord := make([]int, len(pl.Steps))
	used := make([]bool, len(q.Patterns))
	for i := range pl.Steps {
		for j, p := range q.Patterns {
			if !used[j] && p == pl.Steps[i].Pattern {
				ord[i], used[j] = j, true
				break
			}
		}
	}
	return ord
}

func printFig8Row(w io.Writer, row Fig8Row) {
	fmt.Fprintf(w, "\nFig.8 %s / %s (%d groups)\n", row.Dataset, row.Label, row.Groups)
	if row.BaselineErr != nil {
		fmt.Fprintf(w, "  baseline: DNF after %v (%v)\n", row.BaselineTime.Round(time.Millisecond), row.BaselineErr)
	} else if row.BaselineTime > 0 {
		fmt.Fprintf(w, "  baseline: %v\n", row.BaselineTime.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "  ctj:      %v\n", row.CTJTime.Round(time.Microsecond))
	fmt.Fprintf(w, "  AJ walk order: %v best by trial MAE, %v by the optimizer\n", row.AJOrder, row.OptOrder)
	fmt.Fprintf(w, "  %-10s %12s %12s %12s %12s\n", "t", "WJ MAE", "WJ relCI", "AJ MAE", "AJ relCI")
	// Wall-clock-driven snapshots: the two engines' series can differ in
	// length by a point, so print the paired prefix.
	n := len(row.WJ)
	if len(row.AJ) < n {
		n = len(row.AJ)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  %-10v %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
			row.WJ[i].T, 100*row.WJ[i].MAE, 100*row.WJ[i].RelCI,
			100*row.AJ[i].MAE, 100*row.AJ[i].RelCI)
	}
}
