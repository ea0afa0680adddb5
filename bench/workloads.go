package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kgexplore/internal/ctj"
	"kgexplore/internal/index"
	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
	"kgexplore/internal/sparql"
	wl "kgexplore/internal/workload"
)

// mix names how a workload turns the chart pool into traffic.
type mix int

const (
	mixExplore mix = iota // online charts, DISTINCT and COUNT forms of each step
	mixSurface            // exact surface / exact exploration / short online, cycling
	mixLive               // COUNT aj ×5 then one DISTINCT chart, beside a writer
)

// workload is one named traffic mix against one server configuration.
type workload struct {
	Name  string
	Scale float64 // dbpedia-sim scale of the fixture
	Mix   mix
	// Shards > 0 serves the fixture with kgserver -shards; Live serves it
	// with -live, WAL fsync on and background compaction.
	Shards int
	Live   bool
	// BudgetMS and SpacingMS shape the online traffic: every online request
	// runs for exactly its budget, and the spacing leaves the server idle in
	// between unless it falls behind.
	BudgetMS  int
	SpacingMS int
	// ExactTail is how many exact-engine requests follow the timed window,
	// one at a time, so that exact latency is defined on every workload.
	ExactTail int
}

// The four workloads. BENCHMARK.json says why each exists; scales and rates
// are sized for a 2-core box and for the driver's per-run time cap, and
// bench/README.md gives the reasoning.
var workloads = []*workload{
	{Name: "explore-large", Scale: 1.0, Mix: mixExplore, BudgetMS: 100, SpacingMS: 125, ExactTail: 32},
	{Name: "surface-small", Scale: 0.02, Mix: mixSurface, BudgetMS: 40, SpacingMS: 50},
	{Name: "sharded-large", Scale: 1.0, Mix: mixExplore, Shards: 2, BudgetMS: 100, SpacingMS: 125, ExactTail: 32},
	{Name: "live-mixed", Scale: 0.2, Mix: mixLive, Live: true, BudgetMS: 100, SpacingMS: 125},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// smoke shrinks a workload to the 22K-triple fixture so that a whole run
// fits in a unit test.
func (w *workload) smoke() *workload {
	c := *w
	c.Scale = 0.02
	if c.ExactTail > 4 {
		c.ExactTail = 4
	}
	return &c
}

// serverArgs is the kgserver command line for a set-up working in dir.
func (w *workload) serverArgs(dir, kgs string) ([]string, error) {
	args := []string{"-snapshot", kgs}
	if w.Shards > 0 {
		args = append(args, "-shards", fmt.Sprint(w.Shards))
	}
	if w.Live {
		livedir := filepath.Join(dir, "live")
		// kgserver does not create -livedir; without it no compaction lands.
		if err := os.Mkdir(livedir, 0o755); err != nil {
			return nil, err
		}
		// -snapmode copy: over an mmap'd snapshot kgserver segfaults once a
		// compaction retires the base, because the dictionary's strings alias
		// the unmapped file (found by this workload; see README.md).
		args = append(args, "-live", "-snapmode", "copy", "-walpath", filepath.Join(dir, "ingest.wal"),
			"-livedir", livedir, "-compactevery", "2s", "-compactmin", "2000")
	}
	return args, nil
}

// selectStep is one click of a bar, by wire names.
type selectStep struct {
	Op       string `json:"op"`
	Category string `json:"category"`
}

// request is one operation of the list the server sees. Everything in it is
// text: it is a pure function of (fixture, workload, pool seed, seed,
// seconds), it is what the golden hash covers, and the traced replay
// rebuilds its queries from the same strings.
type request struct {
	Kind  string  `json:"kind"`  // online | exact | ingest
	Form  string  `json:"form"`  // chart-stream | chart | sparql | ingest
	DueMS float64 `json:"dueMs"` // offset into the timed window; tail requests are closed-loop (-1)
	// Chart forms: the session is positioned by replaying Prefix, then Op is
	// expanded; Query is then the text of the chart's query, for reference.
	// SPARQL forms send Query.
	Prefix   []selectStep `json:"prefix,omitempty"`
	Op       string       `json:"op,omitempty"`
	Query    string       `json:"query,omitempty"`
	Engine   string       `json:"engine,omitempty"`
	BudgetMS int          `json:"budgetMs,omitempty"`
	Distinct bool         `json:"distinct,omitempty"`
	// Ingest form.
	Add    []string `json:"add,omitempty"`
	Delete []string `json:"delete,omitempty"`
	// Truth is the CTJ exact answer by bar label; nil where truth moves
	// under ingest and is checked after the window instead.
	Truth map[string]float64 `json:"truth,omitempty"`

	session string // set when sessions are primed
}

// plan is the generated input of one run.
type plan struct {
	Window []*request // open loop, by DueMS
	Tail   []*request // closed loop after the window
}

func sortByDue(rs []*request) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].DueMS < rs[j].DueMS })
}

// hash is the golden fingerprint of the request list: inputs only, no truth.
func (p *plan) hash() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, list := range [][]*request{p.Window, p.Tail} {
		for _, r := range list {
			c := *r
			c.Truth = nil
			_ = enc.Encode(&c) // writes to a hash cannot fail
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

const (
	// poolSeed draws the chart pool. It is a constant of the benchmark, recorded
	// in every output: the bounds were calibrated on this pool only.
	poolSeed = 20220501 // the fixture generator's own seed

	topN       = 10
	intervalMS = 50  // SSE snapshot cadence, as the UI asks
	batchOps   = 256 // ingest batch size
	writerMS   = 100 // one ingest batch every 100 ms beside the live reader
	bulkBatch  = 40  // closed-loop batches behind ingest_bulk_ops_per_s

	maxQuiesced = 64 // online re-asks over the quiesced overlay, for coverage
)

// poolStep is one exploration step of the chart pool: how to reach it in a
// session, its DISTINCT query as the UI issues it, the same query as a plain
// COUNT, and CTJ ground truth for both.
type poolStep struct {
	Prefix        []selectStep       `json:"prefix"`
	Op            string             `json:"op"`
	Distinct      string             `json:"distinct"`
	Count         string             `json:"count"`
	DistinctTruth map[string]float64 `json:"distinctTruth"`
	CountTruth    map[string]float64 `json:"countTruth"`
}

// poolSurface is one FILTER / UNION / fixed-length-path query of the pool.
type poolSurface struct {
	Query    string             `json:"query"`
	Distinct bool               `json:"distinct"`
	Truth    map[string]float64 `json:"truth"`
}

// pool is the population of charts a workload asks for. It is drawn once
// per fixture from workload.Generator under a fixed pool seed and every run
// asks for all of it: the run's -seed permutes the pool (and draws the
// ingest data), it does not resample it. Resampling was tried first and made
// relci_gmean move 45 % between seeds — which charts Audit Join happens to
// answer exactly swings the mean — and no bound could sit on that.
type pool struct {
	Steps   []poolStep    `json:"steps"`
	Surface []poolSurface `json:"surface,omitempty"`
	// TruthS is the harness's own ground-truth time, kept out of setup_s.
	TruthS float64 `json:"truthS"`
}

// loadOrBuildPool returns the chart pool from bench/.cache when this
// (fixture CRC, pool seed, size) was drawn before: CTJ truth on the
// 1M-triple fixture costs seconds, and the pool is a pure function of those.
func loadOrBuildPool(d *dirs, fx *fixture, steps, surface int) (p *pool, cached bool, err error) {
	path := filepath.Join(d.cache, fmt.Sprintf("pool-%08x-seed%d-%dsteps-%dsurface.json", fx.crc, poolSeed, steps, surface))
	if b, err := os.ReadFile(path); err == nil {
		p = &pool{}
		if err := json.Unmarshal(b, p); err == nil && len(p.Steps) == steps {
			return p, true, nil
		}
	}
	if p, err = buildPool(fx, steps, surface); err != nil {
		return nil, false, err
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, false, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, false, err
	}
	return p, false, os.Rename(tmp, path)
}

func buildPool(fx *fixture, steps, surface int) (*pool, error) {
	start := time.Now()
	dict := fx.store.Dict()
	g := wl.Generator{Store: fx.store, Schema: fx.schema, Seed: poolSeed, MaxSteps: 4}
	// Paths average between two and three steps. Ask for enough paths and
	// cycle if the generator runs short, so the size never depends on luck.
	recs := g.Paths((steps + 1) / 2)
	if len(recs) == 0 {
		return nil, fmt.Errorf("pool seed %d produced no exploration steps", poolSeed)
	}
	p := &pool{}
	counts := make([]*query.Query, 0, steps)
	for i := 0; i < steps; i++ {
		j := i % len(recs)
		rec := recs[j]
		s := poolStep{Op: rec.Op.String(), Distinct: sparql.Print(rec.Query, dict, nil), DistinctTruth: fx.labelled(rec.Exact)}
		// The clicks that position a session: the earlier steps of the path.
		for k := j - (rec.Step - 1); k < j; k++ {
			s.Prefix = append(s.Prefix, selectStep{Op: recs[k].Op.String(), Category: fx.label(recs[k].Selected)})
		}
		// The same query without DISTINCT: the bag-semantics COUNT a SPARQL
		// client would send, which every backend estimates online.
		c := *rec.Query
		c.Distinct = false
		s.Count = sparql.Print(&c, dict, nil)
		counts = append(counts, &c)
		p.Steps = append(p.Steps, s)
	}
	truths, err := truthOf(fx, counts)
	if err != nil {
		return nil, err
	}
	for i := range p.Steps {
		p.Steps[i].CountTruth = truths[i]
	}
	if surface > 0 {
		for _, rec := range g.Surface(surface) {
			s := poolSurface{Distinct: rec.Distinct(), Truth: fx.labelled(rec.Exact)}
			if rec.Union != nil {
				s.Query = sparql.PrintUnion(sharedSelect(rec.Union), dict, nil)
			} else {
				s.Query = sparql.Print(rec.Query, dict, nil)
			}
			p.Surface = append(p.Surface, s)
		}
		if len(p.Surface) == 0 {
			return nil, fmt.Errorf("pool seed %d produced no surface queries", poolSeed)
		}
	}
	p.TruthS = time.Since(start).Seconds()
	return p, nil
}

// sharedSelect renumbers a union's branches so that every branch names its
// group variable ?v0 and its counted variable ?v1: the generator pairs
// queries whose variables differ, and SPARQL's one SELECT clause needs one
// name for each. Generated union branches carry no FILTER.
func sharedSelect(u *query.UnionQuery) *query.UnionQuery {
	out := &query.UnionQuery{}
	for _, q := range u.Branches {
		to := map[query.Var]query.Var{q.Alpha: 0, q.Beta: 1}
		sub := func(a query.Atom) query.Atom {
			if !a.IsVar() {
				return a
			}
			v, ok := to[a.Var]
			if !ok {
				v = query.Var(len(to))
				to[a.Var] = v
			}
			return query.V(v)
		}
		c := &query.Query{Alpha: 0, Beta: 1, Distinct: q.Distinct, Agg: q.Agg}
		for _, p := range q.Patterns {
			c.Patterns = append(c.Patterns, query.Pattern{S: sub(p.S), P: sub(p.P), O: sub(p.O)})
		}
		out.Branches = append(out.Branches, c)
	}
	return out
}

// truthOf evaluates queries exactly with CTJ, two at a time (nproc).
func truthOf(fx *fixture, qs []*query.Query) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, q := range qs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *query.Query) {
			defer wg.Done()
			defer func() { <-sem }()
			pl, err := query.Compile(q)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = fx.labelled(ctj.Evaluate(fx.store, pl))
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// online is the step's two online requests: the session's DISTINCT chart
// streamed as the UI asks for it, and the same query as a plain COUNT over
// /api/sparql.
func (s *poolStep) online(w *workload) (distinct, count *request) {
	distinct = &request{Kind: "online", Form: "chart-stream", Prefix: s.Prefix, Op: s.Op, Query: s.Distinct,
		Engine: "aj", BudgetMS: w.BudgetMS, Distinct: true, Truth: s.DistinctTruth}
	count = &request{Kind: "online", Form: "sparql", Query: s.Count,
		Engine: "aj", BudgetMS: w.BudgetMS, Truth: s.CountTruth}
	return distinct, count
}

// windowLen is how many reader requests fit the timed window.
func (w *workload) windowLen(seconds float64) int {
	return int(seconds * 1000 / float64(w.SpacingMS))
}

// poolSize is how many steps and surface queries a workload's pool holds for
// a window of n requests.
func (w *workload) poolSize(n int) (steps, surface int) {
	switch w.Mix {
	case mixExplore:
		return (n + 1) / 2, 0
	case mixSurface:
		return (n + 2) / 3, (n + 2) / 3
	default:
		return n, 0
	}
}

// buildPlan arranges the pool into one run's request list. Everything the
// seed decides is decided here.
func buildPlan(w *workload, fx *fixture, pl *pool, seed int64, seconds float64) (*plan, error) {
	n := w.windowLen(seconds)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(pl.Steps))
	p := &plan{}
	add := func(r *request) {
		r.DueMS = float64(len(p.Window) * w.SpacingMS)
		p.Window = append(p.Window, r)
	}
	switch w.Mix {
	case mixExplore:
		// Each step's DISTINCT and COUNT forms, one after the other.
		for _, i := range order {
			d, c := pl.Steps[i].online(w)
			add(d)
			add(c)
		}
		p.Window = p.Window[:n]
		// The tail asks the exact engine for the pool's first distinct step
		// queries: the same ones on every seed, in the seed's order.
		seen := map[string]bool{}
		for i := range pl.Steps {
			s := &pl.Steps[i]
			if len(p.Tail) == w.ExactTail {
				break
			}
			if !seen[s.Distinct] {
				seen[s.Distinct] = true
				p.Tail = append(p.Tail, &request{Kind: "exact", Form: "sparql", DueMS: -1, Query: s.Distinct,
					Engine: "ctj", Distinct: true, Truth: s.DistinctTruth})
			}
		}
		rng.Shuffle(len(p.Tail), func(i, j int) { p.Tail[i], p.Tail[j] = p.Tail[j], p.Tail[i] })
	case mixSurface:
		surf := rng.Perm(len(pl.Surface))
		engines := []string{"lftj", "baseline"} // by pool position, so the mix is the same on every seed
		for k := 0; len(p.Window) < n; k++ {
			i := order[k%len(order)]
			s := &pl.Steps[i]
			// FILTER / UNION / fixed-length path on ctj.
			q := &pl.Surface[surf[k%len(surf)]]
			add(&request{Kind: "exact", Form: "sparql", Query: q.Query, Engine: "ctj", Distinct: q.Distinct, Truth: q.Truth})
			// A plain exploration chart on one of the other two exact engines.
			add(&request{Kind: "exact", Form: "chart", Prefix: s.Prefix, Op: s.Op, Query: s.Distinct,
				Engine: engines[i%2], Distinct: true, Truth: s.DistinctTruth})
			// A short online request, DISTINCT and COUNT forms alternating.
			d, c := s.online(w)
			add([]*request{d, c}[i%2])
		}
		p.Window = p.Window[:n]
	case mixLive:
		if err := buildLive(w, fx, pl, order, rng, p, n, seconds); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ingestGen draws ingest batches on real predicates: adds recombine the
// subject of one base triple with the object of another that shares its
// predicate, deletes remove base triples, and each batch carries one
// sentinel triple so that acknowledged batches can be counted after a crash.
type ingestGen struct {
	fx      *fixture
	rng     *rand.Rand
	spo     []rdf.Triple
	added   map[rdf.Triple]bool
	deleted map[rdf.Triple]bool
	batches int
}

const (
	sentinelPred = "urn:kgbench:sentinel"
	sentinelSubj = "urn:kgbench:batch:"
)

func (g *ingestGen) dataTriple() rdf.Triple {
	s := g.fx.schema
	for {
		t := g.spo[g.rng.Intn(len(g.spo))]
		if t.P != s.Type && t.P != s.SubClassOf && t.P != s.TypeClosure {
			return t
		}
	}
}

func (g *ingestGen) line(t rdf.Triple) string {
	d := g.fx.store.Dict()
	return rdf.DecodedTriple{S: d.Term(t.S), P: d.Term(t.P), O: d.Term(t.O)}.String() + " ."
}

func (g *ingestGen) batch() *request {
	r := &request{Kind: "ingest", Form: "ingest"}
	r.Add = append(r.Add, fmt.Sprintf("<%s%d> <%s> \"%d\" .", sentinelSubj, g.batches, sentinelPred, g.batches))
	g.batches++
	adds := (batchOps - 1) * 7 / 10
	for len(r.Add) < 1+adds {
		a := g.dataTriple()
		// An object of the same predicate stays in the predicate's range.
		span := g.fx.store.SpanL1(index.PSO, a.P)
		b := g.fx.store.At(index.PSO, span, g.rng.Intn(span.Len()))
		t := rdf.Triple{S: a.S, P: a.P, O: b.O}
		if g.added[t] || g.fx.store.Contains(t) {
			continue
		}
		g.added[t] = true
		r.Add = append(r.Add, g.line(t))
	}
	for len(r.Add)+len(r.Delete) < batchOps {
		t := g.dataTriple()
		if g.deleted[t] {
			continue
		}
		g.deleted[t] = true
		r.Delete = append(r.Delete, g.line(t))
	}
	return r
}

// rebuilt is the fixture with every generated ingest op applied: the
// in-harness reference the live server's final state must equal.
func (g *ingestGen) rebuilt() *index.Store {
	old := g.fx.store.Dict()
	terms := make([]rdf.Term, old.Len())
	for i := range terms {
		terms[i] = old.Term(rdf.ID(i))
	}
	gr := &rdf.Graph{Dict: rdf.DictFromTerms(terms)}
	for _, t := range g.spo {
		if !g.deleted[t] {
			gr.AddEncoded(t)
		}
	}
	for t := range g.added {
		gr.AddEncoded(t)
	}
	for b := 0; b < g.batches; b++ {
		gr.Add(rdf.NewIRI(fmt.Sprintf("%s%d", sentinelSubj, b)), rdf.NewIRI(sentinelPred), rdf.NewLiteral(fmt.Sprint(b)))
	}
	gr.Dedup()
	return index.Build(gr)
}

// buildLive fills the live workload's plan: the reader's requests, the
// writer's batches beside them, the bulk batches, and the re-asks that check
// the server's final state against an in-harness rebuild.
func buildLive(w *workload, fx *fixture, pl *pool, order []int, rng *rand.Rand, p *plan, n int, seconds float64) error {
	// Reader: five COUNT aj requests through live.Walker, then one DISTINCT
	// chart, which a live server answers on its exact merged-view route: an
	// online request all the same, as the UI sent it. Truth moves under
	// ingest, so these carry none.
	for i := 0; i < n; i++ {
		s := &pl.Steps[order[i%len(order)]]
		r := &request{Kind: "online", Form: "sparql", Query: s.Count, Engine: "aj", BudgetMS: w.BudgetMS}
		if i%6 == 5 {
			r = &request{Kind: "online", Form: "chart", Prefix: s.Prefix, Op: s.Op, Query: s.Distinct,
				Engine: "aj", BudgetMS: w.BudgetMS, Distinct: true}
		}
		r.DueMS = float64(i * w.SpacingMS)
		p.Window = append(p.Window, r)
	}
	// Writer, offset by half a reader spacing so the two do not start together.
	gen := &ingestGen{fx: fx, rng: rng, spo: fx.store.Triples(index.SPO),
		added: map[rdf.Triple]bool{}, deleted: map[rdf.Triple]bool{}}
	for due := float64(w.SpacingMS) / 2; due < seconds*1000; due += writerMS {
		r := gen.batch()
		r.DueMS = due
		p.Window = append(p.Window, r)
	}
	sortByDue(p.Window)
	for i := 0; i < bulkBatch; i++ {
		r := gen.batch()
		r.DueMS = -1
		p.Tail = append(p.Tail, r)
	}
	// After all ingest: every read query again, exactly, against the rebuild;
	// and the COUNT forms once more online, for coverage over a quiesced
	// overlay.
	final := &fixture{store: gen.rebuilt(), schema: fx.schema}
	seen := map[string]bool{}
	var texts []string
	var qs []*query.Query
	for _, r := range p.Window {
		if r.Kind == "ingest" || seen[r.Query] {
			continue
		}
		seen[r.Query] = true
		parsed, err := sparql.Parse(r.Query, final.store.Dict())
		if err != nil {
			return fmt.Errorf("re-parse %q: %w", r.Query, err)
		}
		texts = append(texts, r.Query)
		qs = append(qs, parsed.Query)
	}
	truths, err := truthOf(final, qs)
	if err != nil {
		return err
	}
	quiesced := 0
	for i, text := range texts {
		p.Tail = append(p.Tail, &request{Kind: "exact", Form: "sparql", DueMS: -1, Query: text,
			Engine: "ctj", Distinct: qs[i].Distinct, Truth: truths[i]})
		if !qs[i].Distinct && quiesced < maxQuiesced {
			quiesced++
			p.Tail = append(p.Tail, &request{Kind: "online", Form: "sparql", DueMS: -1, Query: text,
				Engine: "aj", BudgetMS: w.BudgetMS, Truth: truths[i]})
		}
	}
	return nil
}
