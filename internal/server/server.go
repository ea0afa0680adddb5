// Package server implements the web-application side of the paper's system
// architecture (Fig. 1): a JSON/HTTP API over the exploration model and the
// query engines, plus a minimal built-in web UI that renders the bar charts.
//
// Sessions hold exploration state (the current bar and the undo stack);
// chart requests pick an engine — Audit Join by default, for the paper's
// interactive-latency goal — and a time budget for the online estimators.
// Every engine call runs under the request's context, so an abandoned
// request stops computing; `?stream=1` on the chart endpoints switches to
// Server-Sent Events with a progressive snapshot per interval — online
// aggregation over the wire.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kgexplore"
)

// Provenance records where a served store came from, for /healthz and swap
// responses.
type Provenance struct {
	// Source is the file path or generator spec the store came from.
	Source string `json:"source"`
	// Kind is how it was materialized: "parsed" (text formats or graph
	// snapshots, through index.Build), "snapshot" (store snapshot, no
	// build), "generated", or "sharded" (a shard-set manifest).
	Kind string `json:"kind"`
	// Mmap is set on zero-copy snapshot loads.
	Mmap bool `json:"mmap,omitempty"`
	// Triples is the store's triple count at load time.
	Triples int `json:"triples"`
	// Shards is the shard count for sharded stores (0 for monolithic).
	Shards int `json:"shards,omitempty"`
	// Workers is the fleet size for distributed stores (0 otherwise).
	Workers int `json:"workers,omitempty"`
	// LoadMillis is how long the load (parse+build, or snapshot read) took.
	LoadMillis int64 `json:"loadMillis"`
}

// backend is what the handlers need from a served store, satisfied by
// *kgexplore.Dataset, *kgexplore.ShardedDataset, *kgexplore.DistDataset and
// *kgexplore.LiveDataset. Engine dispatch (which differs between them)
// lives in evaluate/streamChart, not here.
type backend interface {
	NumTriples() int
	IndexBytes() int64
	Dict() *kgexplore.Dict
	Root() *kgexplore.ExploreState
	ParseQuery(string) (*kgexplore.ParsedQuery, error)
	Compile(*kgexplore.Query) (*kgexplore.Plan, error)
	PlanWalk(*kgexplore.Plan) *kgexplore.Plan
	BarsOf(map[kgexplore.ID]float64, map[kgexplore.ID]float64) []kgexplore.Bar
	EstimatorName() string
}

// epoch is one served dataset generation. Requests acquire the current epoch
// for their whole run, so a hot swap never frees a store out from under an
// in-flight query: the old epoch's closer (an mmap'ed snapshot, typically)
// runs only when the server reference and every request reference are gone.
// Exactly one of ds/sds/dds/lds is non-nil; be always is.
type epoch struct {
	be     backend
	ds     *kgexplore.Dataset        // monolithic store, nil otherwise
	sds    *kgexplore.ShardedDataset // in-process shard set, nil otherwise
	dds    *kgexplore.DistDataset    // distributed worker fleet, nil otherwise
	lds    *kgexplore.LiveDataset    // live overlay store, nil otherwise
	prov   Provenance
	closer io.Closer
	refs   atomic.Int64 // starts at 1 for the server's own reference
}

func newEpoch(ds *kgexplore.Dataset, prov Provenance, closer io.Closer) *epoch {
	e := &epoch{be: ds, ds: ds, prov: prov, closer: closer}
	e.refs.Store(1)
	return e
}

func newShardedEpoch(sds *kgexplore.ShardedDataset, prov Provenance) *epoch {
	// The shard set owns its snapshot mappings; closing it is the epoch
	// drain action.
	e := &epoch{be: sds, sds: sds, prov: prov, closer: sds}
	e.refs.Store(1)
	return e
}

// newLiveEpoch wraps a live dataset generation. The base store's resources
// are owned by the live store itself (closed via LiveDataset.Close at
// process exit); a live epoch's closer is instead the RETIRED base of the
// compaction that rotated it out — set by RotateLiveEpoch just before the
// swap, so the old mmap unmaps only after every request that might hold a
// pre-compaction view has drained.
func newLiveEpoch(lds *kgexplore.LiveDataset, prov Provenance) *epoch {
	e := &epoch{be: lds, lds: lds, prov: prov}
	e.refs.Store(1)
	return e
}

func newDistEpoch(dds *kgexplore.DistDataset, prov Provenance) *epoch {
	// Closing the dist dataset releases only the LOCAL dictionary mapping;
	// the workers own their stores, and the shared coordinator survives
	// swaps (the successor epoch holds it).
	e := &epoch{be: dds, dds: dds, prov: prov, closer: dds}
	e.refs.Store(1)
	return e
}

// release drops one reference; the last one out closes the backing store.
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 && e.closer != nil {
		e.closer.Close()
	}
}

// Server is the HTTP handler. Create with New and mount with Handler.
type Server struct {
	// cur is the serving epoch; guarded by mu, swapped atomically by Swap.
	cur   *epoch
	swaps int

	mu        sync.Mutex
	sessions  map[string]*session
	nextID    int64
	lastSweep time.Time
	// planCaches is the warm-start LRU: one shared CTJ cache per plan
	// signature, handed to every aj run of that plan. The eLinda exploration
	// workflow re-issues overlapping queries as the user expands bars, so
	// successive requests reuse suffix counts and Pr(b) sums computed by
	// earlier ones. Guarded by mu; bounded by MaxPlanCaches.
	planCaches map[string]*planCache

	// MaxBudget caps per-request online-aggregation time.
	MaxBudget time.Duration
	// SessionTTL is how long an untouched session survives; expired
	// sessions are removed by a lazy sweep on session traffic.
	SessionTTL time.Duration
	// MaxSessions caps live sessions; creating one beyond the cap evicts
	// the least recently used session.
	MaxSessions int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the handler.
	// Off by default: the profiling endpoints expose internals and should
	// only be reachable when explicitly requested (kgserver -pprof).
	EnablePprof bool
	// MaxPlanCaches caps the warm-start LRU of shared CTJ caches (one per
	// plan signature); creating one beyond the cap evicts the least recently
	// used cache. Zero or negative disables cross-request warm starts.
	MaxPlanCaches int
	// EnableAdmin mounts the mutating admin endpoints (POST /admin/swap).
	// Off by default: swapping the served store is an operator action
	// (kgserver -admin).
	EnableAdmin bool
	// RebuildsFn, when set, reports the embedding process's store rebuild
	// count in /healthz.
	RebuildsFn func() int
	// PersistErrFn, when set, reports the embedding process's last
	// persistence error in /healthz's lastError. Live epochs report their
	// own WAL and compaction errors there without this hook.
	PersistErrFn func() error
	// Estimator, when set, is applied (Dataset.UseEstimator) to every
	// dataset installed by an admin swap, so a server started with
	// -estimator keeps its selection across hot swaps. The initial dataset's
	// estimator is the embedding process's job (kgserver sets both).
	Estimator string
	// Strategy selects the online sampling strategy: "uniform" (default,
	// uniform walk roots) or "stratified" (semantic-aware stratified
	// sampling — walk roots stratified by characteristic-set bucket with
	// Neyman-allocated budgets). Applies to aj and wj runs on every epoch
	// kind: monolithic runners, sharded scatter and distributed runs.
	Strategy string

	// tipDiag accumulates estimate-vs-actual tipping diagnostics across
	// every Audit Join run this process served, for /healthz; guarded by mu.
	tipDiag kgexplore.TipDiagnostics

	// now is the clock, overridable in tests.
	now func() time.Time
}

type session struct {
	state    *kgexplore.ExploreState
	stack    []*kgexplore.ExploreState
	lastUsed time.Time
}

// planCache is one warm-start entry: the shared CTJ cache for a plan
// signature (monolithic aj runs) or the per-shard suffix caches (sharded
// scatter-gather runs), plus its LRU timestamp. Both kinds key on the plan
// signature and are dropped wholesale on Swap, since their keys embed the
// epoch's dictionary IDs.
type planCache struct {
	cache       *kgexplore.SharedCTJCache
	shardCaches []*kgexplore.ShardCache
	lastUsed    time.Time
}

// New creates a server over a prepared dataset. Use NewWithProvenance to
// record where the dataset came from (and, for mmap'ed snapshot loads, the
// closer that Swap releases once the epoch drains).
func New(ds *kgexplore.Dataset) *Server {
	return NewWithProvenance(ds, Provenance{Kind: "parsed", Triples: ds.NumTriples()}, nil)
}

// NewWithProvenance creates a server over a prepared dataset with explicit
// store provenance. closer, if non-nil, is closed when the dataset's epoch
// fully drains after a Swap (never while any request still uses it).
func NewWithProvenance(ds *kgexplore.Dataset, prov Provenance, closer io.Closer) *Server {
	return newServer(newEpoch(ds, prov, closer))
}

// NewSharded creates a server over a sharded dataset; chart requests then
// run scatter-gather Audit Join instead of the monolithic engines.
func NewSharded(sds *kgexplore.ShardedDataset, prov Provenance) *Server {
	return newServer(newShardedEpoch(sds, prov))
}

// NewLive creates a server over a live (updatable) dataset: POST /ingest
// accepts triple batches, chart requests run merged-view Audit Join over
// the overlay, and /healthz reports overlay, compaction and WAL telemetry.
// Background compaction is the embedding process's job (kgserver -live);
// after each compaction it calls RotateLiveEpoch with the retired base.
func NewLive(lds *kgexplore.LiveDataset, prov Provenance) *Server {
	return newServer(newLiveEpoch(lds, prov))
}

// NewDist creates a server over a distributed dataset: chart requests run
// coordinator-driven scatter-gather over the kgworker fleet, /healthz
// reports per-worker stats, and /admin/swap (with EnableAdmin) performs the
// epoch-coordinated fleet-wide hot swap.
func NewDist(dds *kgexplore.DistDataset, prov Provenance) *Server {
	return newServer(newDistEpoch(dds, prov))
}

func newServer(e *epoch) *Server {
	return &Server{
		cur:           e,
		sessions:      make(map[string]*session),
		planCaches:    make(map[string]*planCache),
		MaxBudget:     5 * time.Second,
		SessionTTL:    30 * time.Minute,
		MaxSessions:   10_000,
		MaxPlanCaches: 256,
		now:           time.Now,
	}
}

// acquire pins the current epoch for one request. The caller must release
// it when done (defer e.release()).
func (s *Server) acquire() *epoch {
	s.mu.Lock()
	e := s.cur
	e.refs.Add(1)
	s.mu.Unlock()
	return e
}

// Swap atomically replaces the served dataset: new requests see the new
// epoch immediately; sessions and warm-start caches are dropped (their
// exploration states and cache keys embed the old dictionary's IDs); the old
// store stays alive until the last in-flight request releases it, at which
// point its closer (if any) runs. Safe to call concurrently with request
// traffic — that is its purpose.
func (s *Server) Swap(ds *kgexplore.Dataset, prov Provenance, closer io.Closer) {
	s.swapEpoch(newEpoch(ds, prov, closer))
}

// SwapSharded hot-swaps the served store for a shard set, with the same
// epoch semantics as Swap: the old store (sharded or not) drains before its
// closer runs, and the new one serves immediately. A server can swap freely
// between monolithic and sharded epochs.
func (s *Server) SwapSharded(sds *kgexplore.ShardedDataset, prov Provenance) {
	s.swapEpoch(newShardedEpoch(sds, prov))
}

// SwapDist hot-swaps the served store for a distributed dataset, with the
// same epoch semantics as Swap. A distributed admin swap uses this after
// DistDataset.SwapAll has re-pointed the fleet: the new epoch shares the
// coordinator, and draining the old one closes only its local dictionary.
func (s *Server) SwapDist(dds *kgexplore.DistDataset, prov Provenance) {
	s.swapEpoch(newDistEpoch(dds, prov))
}

func (s *Server) swapEpoch(ne *epoch) {
	s.mu.Lock()
	old := s.cur
	s.cur = ne
	s.sessions = make(map[string]*session)
	s.planCaches = make(map[string]*planCache)
	s.swaps++
	s.mu.Unlock()
	old.release()
}

// RotateLiveEpoch re-epochs a live dataset after a background compaction
// adopted a new base: the current epoch — whose in-flight requests may
// still hold views over the retired base — gets the retired closer and
// drains, while a fresh epoch over the SAME live dataset serves on.
// Sessions and plan caches survive: compaction does not change dictionary
// IDs or live content. No-op (closing retired immediately) if the serving
// epoch is not live.
func (s *Server) RotateLiveEpoch(retired io.Closer) {
	s.mu.Lock()
	old := s.cur
	if old.lds == nil {
		s.mu.Unlock()
		if retired != nil {
			retired.Close()
		}
		return
	}
	ne := newLiveEpoch(old.lds, old.prov)
	ne.prov.Triples = old.lds.NumTriples()
	old.closer = retired
	s.cur = ne
	s.mu.Unlock()
	old.release()
}

// Swaps returns how many times the served store has been hot-swapped.
func (s *Server) Swaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swaps
}

// sharedCacheFor returns the warm-start cache for the plan's signature,
// creating it (and evicting the least recently used entry over the cap) on
// first sight. Concurrent requests for the same signature share one cache —
// that is the point: the cache type is concurrency-safe.
func (s *Server) sharedCacheFor(pl *kgexplore.Plan) *kgexplore.SharedCTJCache {
	if s.MaxPlanCaches <= 0 {
		return nil
	}
	sig := pl.Query.Signature()
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.planCaches[sig]
	if !ok {
		e = &planCache{cache: kgexplore.NewSharedCTJCache()}
		s.insertPlanCacheLocked(sig, e)
	}
	e.lastUsed = now
	return e.cache
}

// shardCachesFor is sharedCacheFor's sharded counterpart: the warm
// per-shard suffix caches for the plan's signature, shared by every
// scatter-gather run of that plan within the epoch.
func (s *Server) shardCachesFor(pl *kgexplore.Plan, k int) []*kgexplore.ShardCache {
	if s.MaxPlanCaches <= 0 {
		return nil
	}
	sig := pl.Query.Signature()
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.planCaches[sig]
	if !ok {
		e = &planCache{}
		s.insertPlanCacheLocked(sig, e)
	}
	if len(e.shardCaches) != k {
		e.shardCaches = kgexplore.NewShardCaches(k)
	}
	e.lastUsed = now
	return e.shardCaches
}

// insertPlanCacheLocked adds a warm-start entry, evicting the least
// recently used one over the cap; callers hold s.mu.
func (s *Server) insertPlanCacheLocked(sig string, e *planCache) {
	for len(s.planCaches) >= s.MaxPlanCaches {
		var oldest string
		var oldestT time.Time
		for k, pc := range s.planCaches {
			if oldest == "" || pc.lastUsed.Before(oldestT) {
				oldest, oldestT = k, pc.lastUsed
			}
		}
		delete(s.planCaches, oldest)
	}
	s.planCaches[sig] = e
}

// InvalidateShared drops every warm-start cache. This is the invalidation
// hook for dataset changes: cache keys embed dictionary IDs, so a server
// whose backing data is swapped or re-loaded must call this before serving
// the new dataset.
func (s *Server) InvalidateShared() {
	s.mu.Lock()
	s.planCaches = make(map[string]*planCache)
	s.mu.Unlock()
}

// sweepLocked drops sessions idle past SessionTTL. It runs at most once per
// quarter TTL so session traffic stays O(1) amortized; callers hold s.mu.
func (s *Server) sweepLocked(now time.Time) {
	if s.SessionTTL <= 0 || now.Sub(s.lastSweep) < s.SessionTTL/4 {
		return
	}
	s.lastSweep = now
	for id, sess := range s.sessions {
		if now.Sub(sess.lastUsed) > s.SessionTTL {
			delete(s.sessions, id)
		}
	}
}

// evictOldestLocked removes the least recently used session; callers hold
// s.mu and have already swept.
func (s *Server) evictOldestLocked() {
	var oldest string
	var oldestT time.Time
	for id, sess := range s.sessions {
		if oldest == "" || sess.lastUsed.Before(oldestT) {
			oldest, oldestT = id, sess.lastUsed
		}
	}
	if oldest != "" {
		delete(s.sessions, oldest)
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/info", s.handleInfo)
	mux.HandleFunc("POST /api/session", s.handleNewSession)
	mux.HandleFunc("GET /api/session/{id}", s.handleGetSession)
	mux.HandleFunc("POST /api/session/{id}/chart", s.handleChart)
	mux.HandleFunc("POST /api/session/{id}/select", s.handleSelect)
	mux.HandleFunc("POST /api/session/{id}/back", s.handleBack)
	mux.HandleFunc("POST /api/sparql", s.handleSPARQL)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.EnableAdmin {
		mux.HandleFunc("POST /admin/swap", s.handleAdminSwap)
	}
	mux.HandleFunc("GET /", s.handleIndex)
	if s.EnablePprof {
		// Method-qualified so the patterns compose with "GET /" above under
		// the 1.22 mux precedence rules; POST /debug/pprof/symbol is the one
		// pprof endpoint that accepts both methods.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// InfoResponse describes the dataset.
type InfoResponse struct {
	Triples    int   `json:"triples"`
	IndexBytes int64 `json:"indexBytes"`
	Shards     int   `json:"shards,omitempty"`
	Workers    int   `json:"workers,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	e := s.acquire()
	defer e.release()
	resp := InfoResponse{
		Triples:    e.be.NumTriples(),
		IndexBytes: e.be.IndexBytes(),
	}
	if e.sds != nil {
		resp.Shards = e.sds.NumShards()
	}
	if e.dds != nil {
		resp.Shards = e.dds.NumShards()
		resp.Workers = len(e.dds.Workers())
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the /healthz payload: liveness plus store provenance,
// so an operator can see at a glance what data is being served, how it got
// there, and how often it has been replaced.
type HealthResponse struct {
	Status    string     `json:"status"`
	Store     Provenance `json:"store"`
	Swaps     int        `json:"swaps"`
	Shards    int        `json:"shards,omitempty"`
	Rebuilds  int        `json:"rebuilds,omitempty"`
	Sessions  int        `json:"sessions"`
	Estimator string     `json:"estimator"`
	// Live carries the overlay telemetry of a live epoch: view generation,
	// layer sizes, applied batches, compaction and WAL counters.
	Live *kgexplore.LiveStats `json:"live,omitempty"`
	// LastError surfaces the most recent background persistence or
	// compaction error (live epochs report WAL/compaction failures here;
	// embedding processes can report their own persist errors through
	// PersistErrFn) so operators see failures without polling.
	LastError string `json:"lastError,omitempty"`
	// Strategy is the walk-allocation strategy every online run uses:
	// "uniform" or "stratified".
	Strategy string `json:"strategy"`
	// Tips aggregates estimate-vs-actual tipping diagnostics over every
	// Audit Join run served since startup; absent until a walk tips.
	Tips *TipDiagBody `json:"tips,omitempty"`
	// Workers carries the live per-worker health of a distributed epoch:
	// each fleet member's reachability and self-reported stats (triples,
	// epoch, runs, walks, wire bytes, swaps).
	Workers []kgexplore.DistWorkerHealth `json:"workers,omitempty"`
	// DistRetries counts fleet-lifetime stratum re-allocations after worker
	// loss; DistRuns counts distributed runs (distributed epochs only).
	DistRetries int64 `json:"distRetries,omitempty"`
	DistRuns    int64 `json:"distRuns,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	e := s.acquire()
	defer e.release()
	s.mu.Lock()
	swaps, nsess, tips := s.swaps, len(s.sessions), s.tipDiag
	s.mu.Unlock()
	resp := HealthResponse{
		Status:    "ok",
		Store:     e.prov,
		Swaps:     swaps,
		Sessions:  nsess,
		Estimator: e.be.EstimatorName(),
		Strategy:  s.strategyName(),
		Tips:      tipBody(tips),
	}
	if e.sds != nil {
		resp.Shards = e.sds.NumShards()
	}
	if e.dds != nil {
		resp.Shards = e.dds.NumShards()
		resp.Workers = e.dds.Health(r.Context())
		resp.DistRetries = e.dds.Retries()
		resp.DistRuns = e.dds.TotalRuns()
		for _, wh := range resp.Workers {
			if !wh.Up {
				resp.Status = "degraded"
				break
			}
		}
	}
	if e.lds != nil {
		st := e.lds.Stats()
		resp.Live = &st
		resp.LastError = st.LastErr
		if st.LastErr != "" {
			resp.Status = "degraded"
		}
	}
	if s.RebuildsFn != nil {
		resp.Rebuilds = s.RebuildsFn()
	}
	if s.PersistErrFn != nil {
		if err := s.PersistErrFn(); err != nil {
			resp.LastError = err.Error()
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// IngestRequest is one POST /ingest batch: N-Triples lines to add and to
// delete, applied in order (adds first) as a single acknowledged batch.
type IngestRequest struct {
	Add    []string `json:"add"`
	Delete []string `json:"delete"`
}

// IngestResponse acknowledges an applied batch. The ack is durable when the
// live store runs with a WAL: the batch was fsynced before this response.
type IngestResponse struct {
	// Applied counts the operations in the batch (parsed, non-blank lines).
	Applied int `json:"applied"`
	// Triples is the live triple count after the batch.
	Triples int `json:"triples"`
	// Gen is the view generation the batch published.
	Gen uint64 `json:"gen"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	e := s.acquire()
	defer e.release()
	if e.lds == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("not serving a live store; start kgserver with -live"))
		return
	}
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n, err := e.lds.IngestNTriples(req.Add, req.Delete)
	if err != nil {
		// Parse errors are the client's fault; apply (WAL) errors are ours.
		code := http.StatusBadRequest
		if !errors.As(err, new(*kgexplore.ParseError)) {
			code = http.StatusInternalServerError
		}
		writeErr(w, code, err)
		return
	}
	st := e.lds.Stats()
	writeJSON(w, http.StatusOK, IngestResponse{Applied: n, Triples: st.LiveTriples, Gen: st.Gen})
}

// TipDiagBody is the JSON form of the tipping diagnostics: how many walks
// tipped, and how the oracle's suffix estimates compared with the exact
// suffix sizes CTJ computed at those decisions.
//
// The Exact* counters report the finite-population finish: runs answered
// exactly by their own root sweep, from a distinct plan's materialized table,
// or from a result an earlier run published in the warm cache; and sweeps
// abandoned at a root that would not tip.
type TipDiagBody struct {
	Tips            int64   `json:"tips"`
	MeanQError      float64 `json:"meanQError,omitempty"`
	SumEstimate     float64 `json:"sumEstimate"`
	SumActual       float64 `json:"sumActual"`
	ExactSweep      int64   `json:"exactSweep,omitempty"`
	ExactTable      int64   `json:"exactTable,omitempty"`
	ExactPublished  int64   `json:"exactPublished,omitempty"`
	SweepsAbandoned int64   `json:"sweepsAbandoned,omitempty"`
}

func tipBody(d kgexplore.TipDiagnostics) *TipDiagBody {
	if d == (kgexplore.TipDiagnostics{}) {
		return nil
	}
	return &TipDiagBody{
		Tips:            d.Tips,
		MeanQError:      d.MeanQError(),
		SumEstimate:     d.SumEstimate,
		SumActual:       d.SumActual,
		ExactSweep:      d.ExactSweep,
		ExactTable:      d.ExactTable,
		ExactPublished:  d.ExactPublished,
		SweepsAbandoned: d.SweepAbandoned,
	}
}

// observeTips folds one run's tipping diagnostics into the /healthz totals.
func (s *Server) observeTips(d kgexplore.TipDiagnostics) {
	if d == (kgexplore.TipDiagnostics{}) {
		return
	}
	s.mu.Lock()
	s.tipDiag.Merge(d)
	s.mu.Unlock()
}

// SwapRequest asks the server to replace its dataset from a file. Paths
// ending in ".kgs" load as store snapshots (mmap'ed unless mode is "copy");
// paths ending in ".kgm" load as sharded store sets; anything else goes
// through the parsing loader.
type SwapRequest struct {
	Path string `json:"path"`
	Mode string `json:"mode"` // "", "mmap", "copy" (snapshot paths only)
}

// SwapResponse reports the dataset now being served.
type SwapResponse struct {
	Store Provenance `json:"store"`
	Swaps int        `json:"swaps"`
}

func (s *Server) handleAdminSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Path == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing path"))
		return
	}
	e := s.acquire()
	if e.lds != nil {
		// A live epoch owns an overlay, WAL and compaction lifecycle that a
		// path swap cannot carry over; restart the server to change bases.
		e.release()
		writeErr(w, http.StatusBadRequest, fmt.Errorf("live epochs do not hot-swap; restart kgserver -live with the new base"))
		return
	}
	if e.dds != nil {
		// A distributed epoch swaps the FLEET, not the local process: every
		// worker prepares the new manifest, the swap aborts all-or-nothing
		// on any failure, then all commit and drain. The new local epoch
		// shares the coordinator; draining the old one closes only its
		// local dictionary mapping.
		defer e.release()
		if !strings.HasSuffix(req.Path, ".kgm") {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("distributed epochs swap whole shard sets: path must be a .kgm manifest"))
			return
		}
		ndds, err := e.dds.SwapAll(r.Context(), req.Path, req.Mode != "copy")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if s.Estimator != "" {
			if err := ndds.UseEstimator(s.Estimator); err != nil {
				ndds.Close()
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		}
		prov := Provenance{
			Source:  req.Path,
			Kind:    "distributed",
			Mmap:    req.Mode != "copy",
			Triples: ndds.NumTriples(),
			Shards:  ndds.NumShards(),
			Workers: len(ndds.Workers()),
		}
		s.SwapDist(ndds, prov)
		writeJSON(w, http.StatusOK, SwapResponse{Store: prov, Swaps: s.Swaps()})
		return
	}
	e.release()
	if strings.HasSuffix(req.Path, ".kgm") {
		sds, prov, err := LoadShardedDataset(req.Path, req.Mode != "copy")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if s.Estimator != "" {
			if err := sds.UseEstimator(s.Estimator); err != nil {
				sds.Close()
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		}
		s.SwapSharded(sds, prov)
		writeJSON(w, http.StatusOK, SwapResponse{Store: prov, Swaps: s.Swaps()})
		return
	}
	ds, prov, closer, err := LoadDataset(req.Path, req.Mode != "copy")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if s.Estimator != "" {
		if err := ds.UseEstimator(s.Estimator); err != nil {
			if closer != nil {
				closer.Close()
			}
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	s.Swap(ds, prov, closer)
	writeJSON(w, http.StatusOK, SwapResponse{Store: prov, Swaps: s.Swaps()})
}

// LoadShardedDataset loads a shard set for serving from its .kgm manifest,
// returning it with the provenance a sharded epoch records.
func LoadShardedDataset(path string, mmap bool) (*kgexplore.ShardedDataset, Provenance, error) {
	start := time.Now()
	sds, err := kgexplore.LoadShardedDataset(path, mmap)
	if err != nil {
		return nil, Provenance{}, err
	}
	prov := Provenance{
		Source:     path,
		Kind:       "sharded",
		Mmap:       mmap,
		Triples:    sds.NumTriples(),
		Shards:     sds.NumShards(),
		LoadMillis: time.Since(start).Milliseconds(),
	}
	return sds, prov, nil
}

// LoadDataset loads a dataset for serving, dispatching on the path: ".kgs"
// store snapshots skip index building entirely (zero-copy mmap when
// mmapSnapshots is set and the platform supports it), everything else goes
// through kgexplore.LoadFile. Returns the provenance and, for snapshot
// loads, the closer that must run once the dataset is drained.
func LoadDataset(path string, mmapSnapshots bool) (*kgexplore.Dataset, Provenance, io.Closer, error) {
	start := time.Now()
	if strings.HasSuffix(path, ".kgs") {
		ss, err := kgexplore.LoadStoreSnapshotFile(path, mmapSnapshots)
		if err != nil {
			return nil, Provenance{}, nil, err
		}
		prov := Provenance{
			Source:     path,
			Kind:       "snapshot",
			Mmap:       ss.Mmap,
			Triples:    ss.Dataset.NumTriples(),
			LoadMillis: time.Since(start).Milliseconds(),
		}
		return ss.Dataset, prov, ss, nil
	}
	ds, err := kgexplore.LoadFile(path)
	if err != nil {
		return nil, Provenance{}, nil, err
	}
	prov := Provenance{
		Source:     path,
		Kind:       "parsed",
		Triples:    ds.NumTriples(),
		LoadMillis: time.Since(start).Milliseconds(),
	}
	return ds, prov, nil, nil
}

// StateResponse describes a session's current bar.
type StateResponse struct {
	Session  string   `json:"session"`
	Kind     string   `json:"kind"`
	Category string   `json:"category"`
	Depth    int      `json:"depth"`
	Ops      []string `json:"ops"`
}

func stateResponse(ds backend, id string, sess *session) StateResponse {
	var ops []string
	for _, op := range kgexplore.ExpansionsOf(sess.state) {
		ops = append(ops, op.String())
	}
	return StateResponse{
		Session:  id,
		Kind:     sess.state.Kind.String(),
		Category: ds.Dict().Term(sess.state.Category).Value,
		Depth:    sess.state.Depth(),
		Ops:      ops,
	}
}

func (s *Server) handleNewSession(w http.ResponseWriter, _ *http.Request) {
	now := s.now()
	s.mu.Lock()
	s.sweepLocked(now)
	if s.MaxSessions > 0 && len(s.sessions) >= s.MaxSessions {
		s.evictOldestLocked()
	}
	s.nextID++
	id := strconv.FormatInt(s.nextID, 10)
	e := s.cur
	e.refs.Add(1)
	sess := &session{state: e.be.Root(), lastUsed: now}
	s.sessions[id] = sess
	s.mu.Unlock()
	defer e.release()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

// acquireSession resolves a session AND pins the serving epoch under one
// lock acquisition. Sessions are cleared on Swap, so a session that resolves
// is always from the same epoch as the returned dataset — exploration states
// never mix dictionary IDs across stores.
func (s *Server) acquireSession(r *http.Request) (*epoch, string, *session, error) {
	id := r.PathValue("id")
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	sess, ok := s.sessions[id]
	if !ok {
		return nil, "", nil, fmt.Errorf("unknown session %q", id)
	}
	sess.lastUsed = now
	e := s.cur
	e.refs.Add(1)
	return e, id, sess, nil
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	e, id, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

// ChartRequest asks for an expansion's bar chart.
type ChartRequest struct {
	Op         string `json:"op"`
	Engine     string `json:"engine"`     // aj (default), wj, ctj, lftj, baseline
	BudgetMS   int    `json:"budgetMs"`   // online engines; default 300
	IntervalMS int    `json:"intervalMs"` // stream mode snapshot cadence; default 100
	TopN       int    `json:"topN"`       // 0: all bars
}

// ChartBar is one rendered bar.
type ChartBar struct {
	Category string  `json:"category"`
	Count    float64 `json:"count"`
	CI       float64 `json:"ci,omitempty"`
}

// ChartResponse is a rendered chart. In stream mode each SSE event carries
// one ChartResponse; Walks and Final track the estimator's progress. Cache
// reports CTJ cache effectiveness for aj runs (on the final event in stream
// mode).
type ChartResponse struct {
	Op      string           `json:"op"`
	Engine  string           `json:"engine"`
	Millis  int64            `json:"millis"`
	NumBars int              `json:"numBars"`
	Bars    []ChartBar       `json:"bars"`
	Walks   int64            `json:"walks,omitempty"`
	Final   bool             `json:"final,omitempty"`
	Shards  int              `json:"shards,omitempty"`
	Cache   *ChartCacheStats `json:"cache,omitempty"`
	// Estimator names the cardinality estimator behind the run's planning
	// and tipping decisions; Tips reports its estimate-vs-actual accuracy at
	// this run's tipping decisions (final responses of online engines only).
	Estimator string       `json:"estimator,omitempty"`
	Tips      *TipDiagBody `json:"tips,omitempty"`
	// Strategy names the sampling strategy ("uniform" or "stratified");
	// Strat carries the stratification telemetry of stratified runs (strata
	// count, fallback reason, Neyman reallocations, per-stratum budgets).
	Strategy string                        `json:"strategy,omitempty"`
	Strat    *kgexplore.StratifiedRunStats `json:"strat,omitempty"`
	// Dist reports a distributed run's telemetry: which worker delivered
	// each stratum, re-allocations after worker loss, and wire traffic
	// (non-stream responses of online engines over distributed epochs).
	Dist *DistChartBody `json:"dist,omitempty"`
	// Live identifies the overlay state a live epoch's chart was computed
	// over: the view generation and layer sizes at response time.
	Live *LiveChartBody `json:"live,omitempty"`
	// WalkOrder and StepCard report the walk order the optimizer chose for
	// an online run (final responses only): WalkOrder[i] is the position, in
	// the query as translated, of the pattern walked at step i, and
	// StepCard[i] that pattern's estimated cardinality.
	WalkOrder []int     `json:"walkOrder,omitempty"`
	StepCard  []float64 `json:"stepCard,omitempty"`
	// Exact marks an online answer that Audit Join finished exactly inside
	// its budget (every ci is then 0 and the run ended early); ExactBy says
	// how: "sweep", "table" or "published" (final responses only).
	Exact   bool   `json:"exact,omitempty"`
	ExactBy string `json:"exactBy,omitempty"`
}

// LiveChartBody is the per-request overlay telemetry of a live epoch.
type LiveChartBody struct {
	Gen        uint64 `json:"gen"`
	DeltaAdds  int    `json:"deltaAdds"`
	Tombstones int    `json:"tombstones"`
}

// DistChartBody is the per-request distribution telemetry of one
// coordinator-driven scatter-gather run.
type DistChartBody struct {
	// StratumWorkers[k] is the address that delivered stratum k ("" for
	// empty strata).
	StratumWorkers []string `json:"stratumWorkers"`
	// Retries counts worker-loss re-allocations within this run;
	// Reallocations details each one.
	Retries       int                         `json:"retries,omitempty"`
	Reallocations []kgexplore.DistRetryRecord `json:"reallocations,omitempty"`
	WireInBytes   int64                       `json:"wireInBytes"`
	WireOutBytes  int64                       `json:"wireOutBytes"`
}

func distBody(stats kgexplore.DistRunStats) *DistChartBody {
	return &DistChartBody{
		StratumWorkers: stats.StratumWorkers,
		Retries:        stats.Retries,
		Reallocations:  stats.Reallocations,
		WireInBytes:    stats.WireInBytes,
		WireOutBytes:   stats.WireOutBytes,
	}
}

// CacheStatsBody mirrors ctj.CacheStats for the JSON payload.
type CacheStatsBody struct {
	CountHits        int64 `json:"countHits"`
	CountMisses      int64 `json:"countMisses"`
	AggHits          int64 `json:"aggHits"`
	AggMisses        int64 `json:"aggMisses"`
	ExistHits        int64 `json:"existHits"`
	ExistMisses      int64 `json:"existMisses"`
	ProbHits         int64 `json:"probHits"`
	ProbMisses       int64 `json:"probMisses"`
	ProbMaterialized bool  `json:"probMaterialized,omitempty"`
}

// ChartCacheStats makes CTJ cache effectiveness observable per request: Run
// is what this request's runner saw; Shared is the merged cross-request view
// of the warm-start cache, when one was used.
type ChartCacheStats struct {
	Run    CacheStatsBody  `json:"run"`
	Shared *CacheStatsBody `json:"shared,omitempty"`
}

func cacheBody(cs kgexplore.CTJCacheStats) CacheStatsBody {
	return CacheStatsBody{
		CountHits:        cs.CountHits,
		CountMisses:      cs.CountMisses,
		AggHits:          cs.AggHits,
		AggMisses:        cs.AggMisses,
		ExistHits:        cs.ExistHits,
		ExistMisses:      cs.ExistMisses,
		ProbHits:         cs.ProbHits,
		ProbMisses:       cs.ProbMisses,
		ProbMaterialized: cs.ProbMaterialized,
	}
}

// cacheStatsOf extracts the cache payload from a finished (or quiescent)
// online runner; nil for engines without CTJ caches.
func cacheStatsOf(r kgexplore.Stepper) *ChartCacheStats {
	var cs kgexplore.CTJCacheStats
	var shared *kgexplore.SharedCTJCache
	switch v := r.(type) {
	case *kgexplore.AuditJoin:
		cs, shared = v.CacheStats(), v.SharedCache()
	case *kgexplore.StratifiedAuditJoin:
		cs, shared = v.CacheStats(), v.SharedCache()
	default:
		return nil
	}
	out := &ChartCacheStats{Run: cacheBody(cs)}
	if shared != nil {
		b := cacheBody(shared.Stats())
		out.Shared = &b
	}
	return out
}

func parseOp(name string) (kgexplore.ExploreOp, error) {
	switch name {
	case "subclass":
		return kgexplore.OpSubclass, nil
	case "out-property":
		return kgexplore.OpOutProp, nil
	case "in-property":
		return kgexplore.OpInProp, nil
	case "object":
		return kgexplore.OpObject, nil
	case "subject":
		return kgexplore.OpSubject, nil
	default:
		return 0, fmt.Errorf("unknown op %q", name)
	}
}

func (s *Server) handleChart(w http.ResponseWriter, r *http.Request) {
	e, _, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	var req ChartRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := sess.state.Query(op)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	pl, err := e.be.Compile(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	pl = planWalk(e, pl, req.Engine)
	if r.URL.Query().Get("stream") == "1" {
		s.streamChart(w, r, e, req.Op, pl, req)
		return
	}
	start := time.Now()
	counts, ci, extras, err := s.evaluate(r.Context(), e, pl, req.Engine, req.BudgetMS)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := chartResponse(e, req.Op, engineName(req.Engine), counts, ci, req.TopN)
	resp.Millis = time.Since(start).Milliseconds()
	resp.Strategy = s.strategyName()
	extras.apply(&resp)
	resp.WalkOrder, resp.StepCard = pl.Order, pl.StepCard
	writeJSON(w, http.StatusOK, resp)
}

// planWalk chooses the request's walk order, once, before anything keys on
// the plan: the warm-start caches are looked up by the CHOSEN plan's
// signature (a shared CTJ cache binds to one signature for life), and the
// backend constructors walk a chosen plan as given. Exact engines keep the
// translation order.
func planWalk(e *epoch, pl *kgexplore.Plan, engine string) *kgexplore.Plan {
	switch engine {
	case "ctj", "lftj", "baseline":
		return pl
	}
	return e.be.PlanWalk(pl)
}

func engineName(e string) string {
	if e == "" {
		return "aj"
	}
	return e
}

// chartResponse renders per-group counts as sorted, truncated bars.
func chartResponse(e *epoch, op, engine string, counts, ci map[kgexplore.ID]float64, topN int) ChartResponse {
	resp := ChartResponse{Op: op, Engine: engine, Estimator: e.be.EstimatorName()}
	if e.sds != nil {
		resp.Shards = e.sds.NumShards()
	}
	if e.dds != nil {
		resp.Shards = e.dds.NumShards()
	}
	if e.lds != nil {
		st := e.lds.Stats()
		resp.Live = &LiveChartBody{Gen: st.Gen, DeltaAdds: st.DeltaAdds, Tombstones: st.Tombstones}
	}
	bars := e.be.BarsOf(counts, ci)
	resp.NumBars = len(bars)
	if topN > 0 && len(bars) > topN {
		bars = bars[:topN]
	}
	for _, b := range bars {
		label := b.Category.Value
		if label == "" && op == "sparql" {
			label = "(all)"
		}
		resp.Bars = append(resp.Bars, ChartBar{Category: label, Count: b.Count, CI: b.CI})
	}
	return resp
}

// clampBudget applies the default and the server-wide cap.
func (s *Server) clampBudget(budgetMS int) time.Duration {
	budget := time.Duration(budgetMS) * time.Millisecond
	if budget <= 0 {
		budget = 300 * time.Millisecond
	}
	if budget > s.MaxBudget {
		budget = s.MaxBudget
	}
	return budget
}

// onlineRunner builds the estimator for an online engine name. aj runners
// are attached to the warm-start cache of their plan signature, so repeated
// expansions of overlapping queries reuse prior suffix counts and Pr(b)
// sums.
func (s *Server) onlineRunner(ds *kgexplore.Dataset, pl *kgexplore.Plan, engine string) (kgexplore.Stepper, bool) {
	switch engine {
	case "wj":
		if s.stratified() {
			// Stratified Wander Join: the same stratified stepper with
			// tipping disabled, mirroring the sharded wj configuration.
			return ds.NewStratifiedAuditJoin(pl, kgexplore.StratifiedAuditJoinOptions{
				Options: kgexplore.AuditJoinOptions{Threshold: -1, Seed: time.Now().UnixNano()},
			}), true
		}
		return ds.NewWanderJoin(pl, time.Now().UnixNano()), true
	case "aj", "":
		if s.stratified() {
			return ds.NewStratifiedAuditJoin(pl, kgexplore.StratifiedAuditJoinOptions{
				Options: kgexplore.AuditJoinOptions{
					Threshold: kgexplore.DefaultTippingThreshold,
					Seed:      time.Now().UnixNano(),
					Shared:    s.sharedCacheFor(pl),
				},
			}), true
		}
		return ds.NewAuditJoin(pl, kgexplore.AuditJoinOptions{
			Threshold: kgexplore.DefaultTippingThreshold,
			Seed:      time.Now().UnixNano(),
			Shared:    s.sharedCacheFor(pl),
		}), true
	default:
		return nil, false
	}
}

// stratified reports whether the server runs the stratified sampling
// strategy; strategyName is the label surfaced in charts and /healthz.
func (s *Server) stratified() bool { return s.Strategy == "stratified" }

func (s *Server) strategyName() string {
	if s.Strategy == "" {
		return "uniform"
	}
	return s.Strategy
}

// chartExtras carries the engine-specific telemetry a chart response
// attaches beside the bars: CTJ cache stats (monolithic aj), tipping
// diagnostics (online engines) and distribution telemetry (dist epochs).
type chartExtras struct {
	cache *ChartCacheStats
	tips  *TipDiagBody
	dist  *DistChartBody
	strat *kgexplore.StratifiedRunStats
	// exactBy says how an Audit Join run ended exact; "" when it did not.
	exactBy string
}

// apply attaches the telemetry to a final response.
func (x chartExtras) apply(resp *ChartResponse) {
	resp.Cache, resp.Tips, resp.Dist, resp.Strat = x.cache, x.tips, x.dist, x.strat
	resp.Exact, resp.ExactBy = x.exactBy != "", x.exactBy
}

// exactByOf names how a quiescent runner became exact ("" when it did not).
func exactByOf(r kgexplore.Stepper) string {
	if aj, ok := r.(*kgexplore.AuditJoin); ok {
		return aj.ExactSource().String()
	}
	return ""
}

func (s *Server) evaluate(ctx context.Context, e *epoch, pl *kgexplore.Plan, engine string, budgetMS int) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, chartExtras, error) {
	if e.sds != nil {
		return s.evaluateSharded(ctx, e.sds, pl, engine, budgetMS)
	}
	if e.dds != nil {
		return s.evaluateDist(ctx, e.dds, pl, engine, budgetMS)
	}
	if e.lds != nil {
		return s.evaluateLive(ctx, e.lds, pl, engine, budgetMS)
	}
	ds := e.ds
	switch engine {
	case "ctj":
		res, err := ds.ExactCtx(ctx, pl, kgexplore.EngineCTJ)
		return res, nil, chartExtras{}, err
	case "lftj":
		res, err := ds.ExactCtx(ctx, pl, kgexplore.EngineLFTJ)
		return res, nil, chartExtras{}, err
	case "baseline":
		res, err := ds.ExactCtx(ctx, pl, kgexplore.EngineBaseline)
		return res, nil, chartExtras{}, err
	}
	r, ok := s.onlineRunner(ds, pl, engine)
	if !ok {
		return nil, nil, chartExtras{}, fmt.Errorf("unknown engine %q", engine)
	}
	rep, err := kgexplore.Drive(ctx, r, kgexplore.DriveOptions{Budget: s.clampBudget(budgetMS), Batch: 128})
	if err != nil {
		return nil, nil, chartExtras{}, err
	}
	return rep.Final.Estimates, rep.Final.CI, chartExtras{
		cache: cacheStatsOf(r), tips: s.tipStatsOf(r), strat: stratStatsOf(r), exactBy: exactByOf(r),
	}, nil
}

// stratStatsOf extracts the stratification telemetry from a stratified
// runner; nil for uniform engines.
func stratStatsOf(r kgexplore.Stepper) *kgexplore.StratifiedRunStats {
	sr, ok := r.(*kgexplore.StratifiedAuditJoin)
	if !ok {
		return nil
	}
	st := sr.Stats()
	return &st
}

// tipStatsOf extracts one quiescent runner's tipping diagnostics and folds
// them into the /healthz totals.
func (s *Server) tipStatsOf(r kgexplore.Stepper) *TipDiagBody {
	var d kgexplore.TipDiagnostics
	switch v := r.(type) {
	case *kgexplore.AuditJoin:
		d = v.TipDiag()
	case *kgexplore.StratifiedAuditJoin:
		d = v.TipDiag()
	case *kgexplore.LiveWalker:
		d = v.TipDiag()
	default:
		return nil
	}
	s.observeTips(d)
	return tipBody(d)
}

// liveRunner builds the overlay walker for an online engine name: aj tips
// at the default threshold, wj never tips. The walker captures the CURRENT
// view, so the whole run is snapshot-consistent under concurrent ingest.
// COUNT(DISTINCT) plans are not built here — evaluateLive routes them to
// the exact merged-view path first.
func liveRunner(lds *kgexplore.LiveDataset, pl *kgexplore.Plan, engine string) (*kgexplore.LiveWalker, error, bool) {
	opts := kgexplore.LiveWalkerOptions{Seed: time.Now().UnixNano()}
	switch engine {
	case "aj", "":
		opts.Threshold = kgexplore.DefaultTippingThreshold
	case "wj":
		opts.Threshold = -1
	default:
		return nil, nil, false
	}
	w, err := lds.NewLiveWalker(pl, opts)
	return w, err, true
}

// evaluateLive answers a chart request over a live epoch: exact engines —
// and every DISTINCT plan, per the no-silent-bias policy — enumerate the
// merged view with tombstones filtered; online engines run merged-view
// Audit Join whose root weights come from the combined base+delta spans.
func (s *Server) evaluateLive(ctx context.Context, lds *kgexplore.LiveDataset, pl *kgexplore.Plan, engine string, budgetMS int) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, chartExtras, error) {
	switch engine {
	case "ctj", "lftj", "baseline":
		res, err := lds.ExactCtx(ctx, pl)
		return res, nil, chartExtras{}, err
	}
	if pl.Query.Distinct {
		res, err := lds.ExactCtx(ctx, pl)
		return res, nil, chartExtras{}, err
	}
	r, err, ok := liveRunner(lds, pl, engine)
	if !ok {
		return nil, nil, chartExtras{}, fmt.Errorf("unknown engine %q", engine)
	}
	if err != nil {
		return nil, nil, chartExtras{}, err
	}
	rep, err := kgexplore.Drive(ctx, r, kgexplore.DriveOptions{Budget: s.clampBudget(budgetMS), Batch: 128})
	if err != nil {
		return nil, nil, chartExtras{}, err
	}
	return rep.Final.Estimates, rep.Final.CI, chartExtras{tips: s.tipStatsOf(r)}, nil
}

// scatterOptions maps an online engine name onto scatter-gather settings:
// aj tips at the default threshold; wj never tips (pure random walks, the
// Wander Join analog). Both share the plan's warm per-shard caches.
func (s *Server) scatterOptions(sds *kgexplore.ShardedDataset, pl *kgexplore.Plan, engine string) (kgexplore.ShardScatterOptions, bool) {
	opts := kgexplore.ShardScatterOptions{
		Seed:     time.Now().UnixNano(),
		Caches:   s.shardCachesFor(pl, sds.NumShards()),
		Stratify: s.stratified(),
	}
	switch engine {
	case "aj", "":
		opts.Threshold = kgexplore.DefaultTippingThreshold
	case "wj":
		opts.Threshold = -1
	default:
		return opts, false
	}
	return opts, true
}

// evaluateSharded answers a chart request over a sharded epoch: exact
// engines run the resolver-backed enumeration over all shards; online
// engines run scatter-gather Audit Join with stratified merging.
func (s *Server) evaluateSharded(ctx context.Context, sds *kgexplore.ShardedDataset, pl *kgexplore.Plan, engine string, budgetMS int) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, chartExtras, error) {
	switch engine {
	case "ctj", "lftj", "baseline":
		res, err := sds.ExactCtx(ctx, pl)
		return res, nil, chartExtras{}, err
	}
	opts, ok := s.scatterOptions(sds, pl, engine)
	if !ok {
		return nil, nil, chartExtras{}, fmt.Errorf("unknown engine %q", engine)
	}
	res, stats, err := sds.RunScatter(ctx, pl, opts, kgexplore.DriveOptions{Budget: s.clampBudget(budgetMS), Batch: 128})
	if err != nil {
		return nil, nil, chartExtras{}, err
	}
	s.observeTips(stats.Tips)
	extras := chartExtras{tips: tipBody(stats.Tips)}
	if s.stratified() {
		extras.strat = &kgexplore.StratifiedRunStats{Strata: stats.Strata}
	}
	return res.Estimates, res.CI, extras, nil
}

// distOptions maps an online engine name onto distributed run settings,
// mirroring scatterOptions: aj tips at the default threshold, wj never
// tips. Worker-side suffix caches warm up per worker process, so there is
// no coordinator-side cache to thread through.
func (s *Server) distOptions(dds *kgexplore.DistDataset, engine string) (kgexplore.DistRunOptions, bool) {
	opts := kgexplore.DistRunOptions{Seed: time.Now().UnixNano(), Stratify: s.stratified()}
	switch engine {
	case "aj", "":
		opts.Threshold = kgexplore.DefaultTippingThreshold
	case "wj":
		opts.Threshold = -1
	default:
		return opts, false
	}
	return opts, true
}

// evaluateDist answers a chart request over a distributed epoch: exact
// engines run on one worker (they hold the full set or reach peers through
// their hybrid resolver); online engines run coordinator-driven
// scatter-gather with stratified merging and worker-loss re-allocation.
func (s *Server) evaluateDist(ctx context.Context, dds *kgexplore.DistDataset, pl *kgexplore.Plan, engine string, budgetMS int) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, chartExtras, error) {
	switch engine {
	case "ctj", "lftj", "baseline":
		res, err := dds.ExactCtx(ctx, pl)
		return res, nil, chartExtras{}, err
	}
	opts, ok := s.distOptions(dds, engine)
	if !ok {
		return nil, nil, chartExtras{}, fmt.Errorf("unknown engine %q", engine)
	}
	res, stats, err := dds.RunDist(ctx, pl, opts, kgexplore.DriveOptions{Budget: s.clampBudget(budgetMS), Batch: 128})
	if err != nil {
		return nil, nil, chartExtras{}, err
	}
	s.observeTips(stats.Tips)
	extras := chartExtras{tips: tipBody(stats.Tips), dist: distBody(stats)}
	if s.stratified() {
		extras.strat = &kgexplore.StratifiedRunStats{Strata: stats.Strata}
	}
	return res.Estimates, res.CI, extras, nil
}

// evaluateUnion answers a SPARQL UNION query over any epoch kind. Exact
// engine names run the cross-branch exact union; online names run the
// backend's stratified union estimator. DISTINCT unions always take the
// exact path — per-branch walks cannot observe cross-branch duplicates
// (query.ErrDistinctUnion policy) — as do AVG unions on distributed epochs,
// whose per-branch results cannot merge at the result level.
func (s *Server) evaluateUnion(ctx context.Context, e *epoch, u *kgexplore.UnionQuery, engine string, budgetMS int) (map[kgexplore.ID]float64, map[kgexplore.ID]float64, chartExtras, error) {
	exact := engine == "ctj" || engine == "lftj" || engine == "baseline"
	online := engine == "aj" || engine == "wj" || engine == ""
	if !exact && !online {
		return nil, nil, chartExtras{}, fmt.Errorf("unknown engine %q", engine)
	}
	threshold := float64(kgexplore.DefaultTippingThreshold)
	if engine == "wj" {
		threshold = -1
	}
	xopts := kgexplore.DriveOptions{Budget: s.clampBudget(budgetMS), Batch: 128}
	switch {
	case e.sds != nil:
		up, err := e.sds.CompileUnion(u)
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		if exact || u.Distinct() {
			res, err := e.sds.ExactUnionCtx(ctx, up)
			return res, nil, chartExtras{}, err
		}
		opts := kgexplore.ShardScatterOptions{
			Seed: time.Now().UnixNano(), Threshold: threshold, Stratify: s.stratified(),
		}
		res, err := e.sds.RunUnionScatter(ctx, up, opts, xopts)
		return res.Estimates, res.CI, chartExtras{}, err
	case e.dds != nil:
		up, err := e.dds.CompileUnion(u)
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		if exact {
			res, err := e.dds.ExactUnionCtx(ctx, up)
			return res, nil, chartExtras{}, err
		}
		opts, _ := s.distOptions(e.dds, engine)
		res, _, err := e.dds.RunUnionDist(ctx, up, opts, xopts)
		return res.Estimates, res.CI, chartExtras{}, err
	case e.lds != nil:
		up, err := e.lds.CompileUnion(u)
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		if exact || u.Distinct() {
			res, err := e.lds.ExactUnionCtx(ctx, up)
			return res, nil, chartExtras{}, err
		}
		est, err := e.lds.NewUnionEstimator(up, kgexplore.LiveWalkerOptions{
			Seed: time.Now().UnixNano(), Threshold: threshold,
		})
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		rep, err := kgexplore.Drive(ctx, est, xopts)
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		return rep.Final.Estimates, rep.Final.CI, chartExtras{}, nil
	default:
		ds := e.ds
		up, err := ds.CompileUnion(u)
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		if exact || u.Distinct() {
			eng := kgexplore.EngineCTJ
			switch engine {
			case "lftj":
				eng = kgexplore.EngineLFTJ
			case "baseline":
				eng = kgexplore.EngineBaseline
			}
			res, err := ds.ExactUnionCtx(ctx, up, eng)
			return res, nil, chartExtras{}, err
		}
		est, err := ds.NewUnionEstimator(up, time.Now().UnixNano())
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		rep, err := kgexplore.Drive(ctx, est, xopts)
		if err != nil {
			return nil, nil, chartExtras{}, err
		}
		return rep.Final.Estimates, rep.Final.CI, chartExtras{}, nil
	}
}

// streamChart answers a `?stream=1` chart request with Server-Sent Events:
// one ChartResponse per snapshot interval, each strictly further along than
// the last, and always exactly one Final event, last, when the budget elapses
// or the answer turns exact. Closing the connection cancels the run through
// the request context.
func (s *Server) streamChart(w http.ResponseWriter, r *http.Request, e *epoch, op string, pl *kgexplore.Plan, req ChartRequest) {
	engine := engineName(req.Engine)
	var runner kgexplore.Stepper
	var scatterOpts kgexplore.ShardScatterOptions
	var distOpts kgexplore.DistRunOptions
	switch {
	case e.sds != nil:
		var ok bool
		scatterOpts, ok = s.scatterOptions(e.sds, pl, req.Engine)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("engine %q does not stream; use aj or wj", engine))
			return
		}
	case e.dds != nil:
		var ok bool
		distOpts, ok = s.distOptions(e.dds, req.Engine)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("engine %q does not stream; use aj or wj", engine))
			return
		}
	case e.lds != nil:
		lw, err, ok := liveRunner(e.lds, pl, req.Engine)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("engine %q does not stream; use aj or wj", engine))
			return
		}
		if err != nil {
			// ErrLiveDistinct: distinct runs exactly, which does not stream.
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		runner = lw
	default:
		var ok bool
		runner, ok = s.onlineRunner(e.ds, pl, req.Engine)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("engine %q does not stream; use aj or wj", engine))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	interval := time.Duration(req.IntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	send := func(p kgexplore.DriveProgress) bool {
		resp := chartResponse(e, op, engine, p.Snapshot.Estimates, p.Snapshot.CI, req.TopN)
		resp.Millis = p.Elapsed.Milliseconds()
		resp.Walks = p.Walks
		resp.Final = p.Final
		resp.Exact = p.Snapshot.Exact
		resp.Strategy = s.strategyName()
		if p.Final && runner != nil {
			// The callback runs on the driving goroutine between walks, so
			// the runner is quiescent and its stats are consistent.
			resp.Cache = cacheStatsOf(runner)
			resp.Tips = s.tipStatsOf(runner)
			resp.Strat = stratStatsOf(runner)
			resp.ExactBy = exactByOf(runner)
		}
		if p.Final {
			resp.WalkOrder, resp.StepCard = pl.Order, pl.StepCard
		}
		data, err := json.Marshal(resp)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	xopts := kgexplore.DriveOptions{
		Budget:     s.clampBudget(req.BudgetMS),
		Interval:   interval,
		Batch:      128,
		OnSnapshot: send,
	}
	if e.sds != nil {
		// The final SSE event has already been sent from inside the scatter
		// drive, so per-request tips can't ride on it; they still reach the
		// process-wide /healthz totals.
		if _, stats, err := e.sds.RunScatter(r.Context(), pl, scatterOpts, xopts); err == nil {
			s.observeTips(stats.Tips)
		}
		return
	}
	if e.dds != nil {
		// Same trailing-stats caveat as the sharded drive: tips and retry
		// telemetry reach /healthz, not the final SSE event.
		if _, stats, err := e.dds.RunDist(r.Context(), pl, distOpts, xopts); err == nil {
			s.observeTips(stats.Tips)
		}
		return
	}
	kgexplore.Drive(r.Context(), runner, xopts)
}

// SelectRequest clicks a bar in an expansion chart.
type SelectRequest struct {
	Op       string `json:"op"`
	Category string `json:"category"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	e, id, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	var req SelectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	catID, ok := e.be.Dict().LookupIRI(req.Category)
	if !ok {
		// Categories may be literals in principle; try a literal too.
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown category %q", req.Category))
		return
	}
	next, err := sess.state.Select(op, catID)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	sess.stack = append(sess.stack, sess.state)
	sess.state = next
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	e, id, sess, err := s.acquireSession(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer e.release()
	s.mu.Lock()
	if n := len(sess.stack); n > 0 {
		sess.state = sess.stack[n-1]
		sess.stack = sess.stack[:n-1]
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stateResponse(e.be, id, sess))
}

// SPARQLRequest runs a Fig. 4 fragment query directly.
type SPARQLRequest struct {
	Query    string `json:"query"`
	Engine   string `json:"engine"`
	BudgetMS int    `json:"budgetMs"`
	TopN     int    `json:"topN"`
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	e := s.acquire()
	defer e.release()
	var req SPARQLRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	parsed, err := e.be.ParseQuery(req.Query)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	var counts, ci map[kgexplore.ID]float64
	var extras chartExtras
	var pl *kgexplore.Plan // nil for unions, whose branches are planned one by one
	if parsed.IsUnion() {
		counts, ci, extras, err = s.evaluateUnion(r.Context(), e, parsed.Union(), req.Engine, req.BudgetMS)
	} else {
		pl, err = e.be.Compile(parsed.Query)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		pl = planWalk(e, pl, req.Engine)
		counts, ci, extras, err = s.evaluate(r.Context(), e, pl, req.Engine, req.BudgetMS)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := chartResponse(e, "sparql", engineName(req.Engine), counts, ci, req.TopN)
	resp.Millis = time.Since(start).Milliseconds()
	resp.Strategy = s.strategyName()
	extras.apply(&resp)
	if pl != nil {
		resp.WalkOrder, resp.StepCard = pl.Order, pl.StepCard
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(indexHTML))
}

// indexHTML is a dependency-free single-page UI over the JSON API: it shows
// the current bar, its legal expansions, and renders chart responses as CSS
// bar charts; clicking a bar selects it and descends.
var indexHTML = strings.TrimSpace(`
<!doctype html>
<meta charset="utf-8">
<title>kgexplore</title>
<style>
body{font-family:system-ui,sans-serif;margin:2rem;max-width:60rem}
#state{margin:.5rem 0;color:#333}
.bar{display:flex;align-items:center;margin:2px 0;cursor:pointer}
.bar .label{width:22rem;overflow:hidden;text-overflow:ellipsis;white-space:nowrap;font-size:.85rem}
.bar .fill{background:#4a7;height:1rem;margin-right:.5rem}
.bar .n{font-size:.8rem;color:#555}
button{margin-right:.4rem}
</style>
<h1>kgexplore</h1>
<div id="state"></div>
<div id="ops"></div>
<div id="chart"></div>
<script>
let sid=null,lastOp=null;
async function j(url,body){const r=await fetch(url,{method:body?'POST':'GET',body:body?JSON.stringify(body):null});return r.json()}
async function start(){const s=await j('/api/session',{});render(s)}
function render(s){sid=s.session;
 document.getElementById('state').textContent=s.kind+' bar: '+s.category+' (depth '+s.depth+')';
 const ops=document.getElementById('ops');ops.innerHTML='';
 for(const op of s.ops){const b=document.createElement('button');b.textContent=op;
  b.onclick=()=>chart(op);ops.appendChild(b)}
 const back=document.createElement('button');back.textContent='back';
 back.onclick=async()=>{render(await j('/api/session/'+sid+'/back',{}))};ops.appendChild(back)}
async function chart(op){lastOp=op;
 const c=await j('/api/session/'+sid+'/chart',{op:op,topN:25});
 const div=document.getElementById('chart');div.innerHTML='<p>'+c.numBars+' bars ('+c.engine+(c.exact?', exact':'')+', '+c.millis+'ms)</p>';
 const max=Math.max(...c.bars.map(b=>b.count),1);
 for(const b of c.bars){const row=document.createElement('div');row.className='bar';
  row.innerHTML='<span class="label">'+b.category+'</span><span class="fill" style="width:'+(300*b.count/max)+'px"></span><span class="n">'+Math.round(b.count)+(b.ci?' ±'+b.ci.toFixed(1):'')+'</span>';
  row.onclick=async()=>{const s=await j('/api/session/'+sid+'/select',{op:lastOp,category:b.category});
   if(!s.error){render(s);document.getElementById('chart').innerHTML=''}};
  div.appendChild(row)}}
start();
</script>
`)
