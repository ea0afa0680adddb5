// Command kgexplore is an interactive command-line version of the paper's
// exploration system (Fig. 1): bar charts over a knowledge graph, expanded
// step by step, with counts estimated by Audit Join (or computed exactly).
//
// Usage:
//
//	kgexplore -gen dbpedia -scale 0.05       # explore a synthetic dataset
//	kgexplore -load data.nt                  # explore an N-Triples file
//
// In the REPL, type `help` for the command list.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kgexplore"
)

type repl struct {
	ds     *kgexplore.Dataset
	state  *kgexplore.ExploreState
	stack  []*kgexplore.ExploreState
	engine string        // "aj", "wj", "ctj", "lftj", "baseline"
	budget time.Duration // for the online engines
	topN   int
	out    *bufio.Writer
	// lastCache holds the CTJ cache stats of the most recent aj run, printed
	// under the chart; nil after other engines.
	lastCache *kgexplore.CTJCacheStats
	// lastExact is set when the most recent aj run finished its query
	// exactly: the bars then carry no interval, and the header says why.
	lastExact bool
}

func main() {
	gen := flag.String("gen", "", "generate a synthetic dataset: dbpedia or lgd")
	scale := flag.Float64("scale", 0.05, "scale for -gen")
	load := flag.String("load", "", "load an N-Triples file")
	engine := flag.String("engine", "aj", "default engine: aj, wj, ctj, lftj, baseline")
	budget := flag.Duration("budget", 300*time.Millisecond, "time budget for online engines")
	estimator := flag.String("estimator", "", "cardinality estimator: "+
		kgexplore.EstimatorSpan+" (default) or "+kgexplore.EstimatorSummary)
	flag.Parse()

	var (
		ds  *kgexplore.Dataset
		err error
	)
	switch {
	case *load != "":
		ds, err = kgexplore.LoadFile(*load)
	case *gen == "lgd":
		ds, err = kgexplore.GenerateLGDSim(*scale)
	case *gen == "dbpedia" || *gen == "":
		ds, err = kgexplore.GenerateDBpediaSim(*scale)
	default:
		err = fmt.Errorf("unknown -gen %q", *gen)
	}
	if err != nil {
		fatal(err)
	}
	if *estimator != "" {
		if err := ds.UseEstimator(*estimator); err != nil {
			fatal(err)
		}
	}

	r := &repl{
		ds:     ds,
		state:  ds.Root(),
		engine: *engine,
		budget: *budget,
		topN:   15,
		out:    bufio.NewWriter(os.Stdout),
	}
	fmt.Fprintf(r.out, "kgexplore: %d triples indexed (%d MB). Type 'help'.\n",
		ds.NumTriples(), ds.IndexBytes()/(1<<20))
	r.printState()
	r.out.Flush()

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Fprint(r.out, "> ")
		r.out.Flush()
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		r.dispatch(line)
		r.out.Flush()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kgexplore: %v\n", err)
	os.Exit(1)
}

func (r *repl) dispatch(line string) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		r.help()
	case "info":
		r.printState()
	case "ops":
		for _, op := range kgexplore.ExpansionsOf(r.state) {
			fmt.Fprintf(r.out, "  %v\n", op)
		}
	case "chart":
		if len(args) != 1 {
			fmt.Fprintln(r.out, "usage: chart <subclass|out-property|in-property|object|subject>")
			return
		}
		r.chart(args[0])
	case "select":
		if len(args) != 2 {
			fmt.Fprintln(r.out, "usage: select <op> <category-iri>")
			return
		}
		r.selectBar(args[0], args[1])
	case "back":
		if len(r.stack) == 0 {
			fmt.Fprintln(r.out, "at the root")
			return
		}
		r.state = r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.printState()
	case "engine":
		if len(args) == 1 {
			r.engine = args[0]
		}
		fmt.Fprintf(r.out, "engine: %s (budget %v)\n", r.engine, r.budget)
	case "budget":
		if len(args) == 1 {
			if d, err := time.ParseDuration(args[0]); err == nil {
				r.budget = d
			}
		}
		fmt.Fprintf(r.out, "budget: %v\n", r.budget)
	case "estimator":
		if len(args) == 1 {
			if err := r.ds.UseEstimator(args[0]); err != nil {
				fmt.Fprintln(r.out, err)
				return
			}
		}
		fmt.Fprintf(r.out, "estimator: %s\n", r.ds.EstimatorName())
	case "sparql":
		r.sparql(strings.TrimSpace(strings.TrimPrefix(line, "sparql")))
	case "explain":
		if len(args) != 1 {
			fmt.Fprintln(r.out, "usage: explain <op>")
			return
		}
		r.explain(args[0])
	case "save":
		if len(args) != 1 {
			fmt.Fprintln(r.out, "usage: save <file.kgx>")
			return
		}
		r.save(args[0])
	default:
		fmt.Fprintf(r.out, "unknown command %q; try 'help'\n", cmd)
	}
}

func (r *repl) help() {
	fmt.Fprint(r.out, `commands:
  info                      show the current bar
  ops                       legal expansions from here (Fig. 3)
  chart <op>                expand and show the bar chart
  select <op> <iri>         expand, then click the bar with that category
  back                      pop the exploration stack
  engine <aj|wj|ctj|lftj|baseline>
  budget <duration>         e.g. 500ms (online engines)
  estimator [span|summary]  show or switch the cardinality estimator
  sparql SELECT ...         run a Fig. 4 fragment query
  explain <op>              show the expansion query's plan and estimates
  save <file.kgx>           write a binary snapshot of the dataset
  quit
`)
}

func (r *repl) explain(opName string) {
	op, ok := parseOp(opName)
	if !ok {
		fmt.Fprintf(r.out, "unknown op %q\n", opName)
		return
	}
	q, err := r.state.Query(op)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	pl, err := r.ds.Compile(q)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	fmt.Fprint(r.out, r.ds.Explain(pl))
}

func (r *repl) save(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	defer f.Close()
	if err := r.ds.WriteSnapshot(f); err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	fmt.Fprintf(r.out, "saved %d triples to %s\n", r.ds.NumTriples(), path)
}

func (r *repl) printState() {
	cat := r.ds.Dict().Term(r.state.Category)
	fmt.Fprintf(r.out, "at %v bar %s (depth %d)\n", r.state.Kind, cat.Value, r.state.Depth())
}

func parseOp(s string) (kgexplore.ExploreOp, bool) {
	switch s {
	case "subclass":
		return kgexplore.OpSubclass, true
	case "out-property", "outprop", "out":
		return kgexplore.OpOutProp, true
	case "in-property", "inprop", "in":
		return kgexplore.OpInProp, true
	case "object":
		return kgexplore.OpObject, true
	case "subject":
		return kgexplore.OpSubject, true
	}
	return 0, false
}

func (r *repl) chart(opName string) {
	op, ok := parseOp(opName)
	if !ok {
		fmt.Fprintf(r.out, "unknown op %q\n", opName)
		return
	}
	q, err := r.state.Query(op)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	pl, err := r.ds.Compile(q)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	start := time.Now()
	counts, ci, err := r.run(pl)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	bars := r.ds.BarsOf(counts, ci)
	fmt.Fprintf(r.out, "%v chart: %d bars (%s, %v)\n",
		op, len(bars), r.engineLabel(), time.Since(start).Round(time.Millisecond))
	r.printBars(bars)
	r.printCacheStats()
}

// engineLabel names the engine of the last run, marking an online run that
// ended exact.
func (r *repl) engineLabel() string {
	if r.lastExact {
		return r.engine + ", exact"
	}
	return r.engine
}

func (r *repl) printBars(bars []kgexplore.Bar) {
	n := len(bars)
	if n > r.topN {
		n = r.topN
	}
	maxCount := 1.0
	if len(bars) > 0 && bars[0].Count > 0 {
		maxCount = bars[0].Count
	}
	for _, b := range bars[:n] {
		width := int(40 * b.Count / maxCount)
		if width < 1 && b.Count > 0 {
			width = 1
		}
		label := b.Category.Value
		if label == "" {
			label = "(all)"
		}
		ci := ""
		if b.CI > 0 {
			ci = fmt.Sprintf(" ±%.0f", b.CI)
		}
		fmt.Fprintf(r.out, "  %-40s %10.0f%s %s\n", trunc(label, 40), b.Count, ci, strings.Repeat("#", width))
	}
	if len(bars) > n {
		fmt.Fprintf(r.out, "  ... and %d more bars\n", len(bars)-n)
	}
}

// printCacheStats summarizes the CTJ session caches of the last aj run: how
// much of the walk finishing work was served from cache versus computed.
func (r *repl) printCacheStats() {
	cs := r.lastCache
	if cs == nil {
		return
	}
	mat := ""
	if cs.ProbMaterialized {
		mat = ", probs materialized"
	}
	fmt.Fprintf(r.out, "  ctj cache: agg %d/%d prob %d/%d count %d/%d exist %d/%d hits/misses%s\n",
		cs.AggHits, cs.AggMisses, cs.ProbHits, cs.ProbMisses,
		cs.CountHits, cs.CountMisses, cs.ExistHits, cs.ExistMisses, mat)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func (r *repl) run(pl *kgexplore.Plan) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, error) {
	r.lastCache, r.lastExact = nil, false
	switch r.engine {
	case "ctj":
		res, err := r.ds.Exact(pl, kgexplore.EngineCTJ)
		return res, nil, err
	case "lftj":
		res, err := r.ds.Exact(pl, kgexplore.EngineLFTJ)
		return res, nil, err
	case "baseline":
		res, err := r.ds.Exact(pl, kgexplore.EngineBaseline)
		return res, nil, err
	case "wj":
		runner := r.ds.NewWanderJoin(pl, time.Now().UnixNano())
		rep, err := kgexplore.Drive(context.Background(), runner, kgexplore.DriveOptions{Budget: r.budget, Batch: 128})
		if err != nil {
			return nil, nil, err
		}
		return rep.Final.Estimates, rep.Final.CI, nil
	case "aj", "":
		runner := r.ds.NewAuditJoin(pl, kgexplore.AuditJoinOptions{
			Threshold: kgexplore.DefaultTippingThreshold,
			Seed:      time.Now().UnixNano(),
		})
		rep, err := kgexplore.Drive(context.Background(), runner, kgexplore.DriveOptions{Budget: r.budget, Batch: 128})
		if err != nil {
			return nil, nil, err
		}
		cs := runner.CacheStats()
		r.lastCache, r.lastExact = &cs, rep.Final.Exact
		return rep.Final.Estimates, rep.Final.CI, nil
	default:
		return nil, nil, fmt.Errorf("unknown engine %q", r.engine)
	}
}

// runUnion evaluates a UNION query under the session engine: exact engines
// run the cross-branch exact union; online engines run the stratified union
// estimator, except DISTINCT unions, which have no unbiased estimator and
// fall back to the exact CTJ union.
func (r *repl) runUnion(u *kgexplore.UnionQuery) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, error) {
	r.lastCache, r.lastExact = nil, false
	up, err := r.ds.CompileUnion(u)
	if err != nil {
		return nil, nil, err
	}
	switch r.engine {
	case "ctj", "lftj", "baseline":
		eng := map[string]kgexplore.ExactEngine{
			"ctj": kgexplore.EngineCTJ, "lftj": kgexplore.EngineLFTJ, "baseline": kgexplore.EngineBaseline,
		}[r.engine]
		res, err := r.ds.ExactUnion(up, eng)
		return res, nil, err
	case "wj", "aj", "":
		if u.Distinct() {
			res, err := r.ds.ExactUnion(up, kgexplore.EngineCTJ)
			return res, nil, err
		}
		est, err := r.ds.NewUnionEstimator(up, time.Now().UnixNano())
		if err != nil {
			return nil, nil, err
		}
		rep, err := kgexplore.Drive(context.Background(), est, kgexplore.DriveOptions{Budget: r.budget, Batch: 128})
		if err != nil {
			return nil, nil, err
		}
		return rep.Final.Estimates, rep.Final.CI, nil
	default:
		return nil, nil, fmt.Errorf("unknown engine %q", r.engine)
	}
}

func (r *repl) selectBar(opName, iri string) {
	op, ok := parseOp(opName)
	if !ok {
		fmt.Fprintf(r.out, "unknown op %q\n", opName)
		return
	}
	id, ok := r.ds.Dict().LookupIRI(iri)
	if !ok {
		fmt.Fprintf(r.out, "unknown IRI %q\n", iri)
		return
	}
	ns, err := r.state.Select(op, id)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	r.stack = append(r.stack, r.state)
	r.state = ns
	r.printState()
}

func (r *repl) sparql(src string) {
	if src == "" {
		fmt.Fprintln(r.out, "usage: sparql SELECT ?g COUNT(DISTINCT ?x) WHERE { ... } GROUP BY ?g")
		return
	}
	p, err := r.ds.ParseQuery(src)
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	start := time.Now()
	var counts, ci map[kgexplore.ID]float64
	if p.IsUnion() {
		counts, ci, err = r.runUnion(p.Union())
	} else {
		var pl *kgexplore.Plan
		pl, err = r.ds.Compile(p.Query)
		if err != nil {
			fmt.Fprintln(r.out, err)
			return
		}
		counts, ci, err = r.run(pl)
	}
	if err != nil {
		fmt.Fprintln(r.out, err)
		return
	}
	bars := r.ds.BarsOf(counts, ci)
	fmt.Fprintf(r.out, "%d groups (%s, %v)\n", len(bars), r.engineLabel(), time.Since(start).Round(time.Millisecond))
	r.printBars(bars)
	r.printCacheStats()
	var total float64
	for _, b := range bars {
		total += b.Count
	}
	fmt.Fprintf(r.out, "sum over groups: %.0f\n", total)
}
