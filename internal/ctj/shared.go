package ctj

import (
	"sync"
	"sync/atomic"

	"kgexplore/internal/query"
	"kgexplore/internal/rdf"
)

// SharedCache is a concurrency-safe CTJ cache shared by several Evaluators
// over the *same* plan shape: the parallel Audit Join workers of one run, or
// successive requests for the same exploration query in the server. Sharing
// turns parallelism from "divide the walks" into "divide the walks and
// multiply the cache hit rate": N workers populate one set of suffix counts,
// existence bits, suffix aggregates and path probabilities instead of
// recomputing them N times.
//
// The cache is lock-striped — each of the four cache kinds is sharded by key
// hash, so workers rarely contend on the same mutex — and single-flight per
// key: when two workers miss on the same key concurrently, one computes the
// value while the others wait for the published result instead of duplicating
// the work. The wait graph cannot deadlock: a suffix computation at boundary
// j only ever waits on keys at strictly deeper boundaries.
//
// A SharedCache must only be used with plans that have the same
// query.Signature (their compiled steps, and hence the cache keys, are then
// identical) against the same store; Bind enforces the signature.
type SharedCache struct {
	count [numShards]shard[ckey, int64]
	exist [numShards]shard[ckey, bool]
	agg   [numShards]shard[ckey, *aggEntry]
	prob  [numShards]shard[uint64, float64]

	// probMat, once non-nil, holds every reachable Pr(b) and Pr(a,b) and the
	// exact COUNT(DISTINCT) answer; readers check it before the lazy prob
	// shards. probMu serializes the materialize-or-lazy decision
	// (probDecided) across workers.
	probMu      sync.Mutex
	probDecided bool
	probMat     atomic.Pointer[probTable]

	// whole, once non-nil, is the plan's finite-population verdict; see
	// Whole.
	whole atomic.Pointer[Whole]

	// sig is the plan signature the cache is bound to ("" until first Bind).
	sigMu sync.Mutex
	sig   string

	stats sharedStats
}

// numShards is the lock-striping width. Power of two; generous for the
// handful of Audit Join workers a run uses, and still cheap to allocate
// lazily (shard maps are nil until first touched).
const numShards = 64

// NewSharedCache returns an empty shared cache. The first Evaluator bound to
// it fixes the plan signature; binding a different signature panics.
func NewSharedCache() *SharedCache { return &SharedCache{} }

// Bind ties the cache to the plan's signature, panicking on a mismatch with
// an earlier Bind — a shared cache poisoned by keys from a structurally
// different plan would silently return wrong aggregates.
func (c *SharedCache) Bind(pl *query.Plan) {
	sig := pl.Query.Signature()
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	if c.sig == "" {
		c.sig = sig
		return
	}
	if c.sig != sig {
		panic("ctj: SharedCache bound to a different plan signature: " + sig + " vs " + c.sig)
	}
}

// Whole is a plan's finite-population verdict, published at most once per
// cache by the first Audit Join runner to reach one: the exact whole-query
// answer of a finished root sweep, or — Values nil — the finding that the
// root span cannot be swept because some root does not tip. Later runners on
// the cache adopt it instead of redoing the work. Values is read-only.
type Whole struct {
	Values map[rdf.ID]float64
}

// Whole returns the published verdict, nil while there is none.
func (c *SharedCache) Whole() *Whole { return c.whole.Load() }

// PublishWhole publishes w unless a verdict is already there: racing sweeps
// reach the same answer, so the first writer wins.
func (c *SharedCache) PublishWhole(w *Whole) { c.whole.CompareAndSwap(nil, w) }

// Stats returns the merged cache statistics across every evaluator that used
// the cache (each evaluator additionally keeps its own per-worker Stats).
func (c *SharedCache) Stats() CacheStats {
	return CacheStats{
		CountHits:        c.stats.countHits.Load(),
		CountMisses:      c.stats.countMisses.Load(),
		AggHits:          c.stats.aggHits.Load(),
		AggMisses:        c.stats.aggMisses.Load(),
		ExistHits:        c.stats.existHits.Load(),
		ExistMisses:      c.stats.existMisses.Load(),
		ProbHits:         c.stats.probHits.Load(),
		ProbMisses:       c.stats.probMisses.Load(),
		ProbMaterialized: c.stats.probMaterialized.Load(),
	}
}

// sharedStats are the merged counters, updated atomically by every evaluator
// alongside its private CacheStats.
type sharedStats struct {
	countHits, countMisses atomic.Int64
	aggHits, aggMisses     atomic.Int64
	existHits, existMisses atomic.Int64
	probHits, probMisses   atomic.Int64
	probMaterialized       atomic.Bool
}

// entry is one single-flight cache slot: done is closed when val is
// published. Waiters block on done; in the common case the channel is
// already closed and the receive is a single atomic load.
type entry[V any] struct {
	done chan struct{}
	val  V
}

// shard is one lock stripe: a mutex plus the key-to-entry map, allocated on
// first use.
type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

// lookupOrClaim returns the entry for k and whether it already existed. When
// it did not, the caller owns the claim: it must compute the value, store it
// in e.val and close e.done — exactly once — or every later waiter on the key
// deadlocks.
func (s *shard[K, V]) lookupOrClaim(k K) (e *entry[V], existed bool) {
	s.mu.Lock()
	e, existed = s.m[k]
	if !existed {
		e = &entry[V]{done: make(chan struct{})}
		if s.m == nil {
			s.m = make(map[K]*entry[V])
		}
		s.m[k] = e
	}
	s.mu.Unlock()
	return e, existed
}

// hash mixes a ckey into a shard index. The interface values are small dense
// dictionary IDs, so a multiplicative mix spreads them well enough for 64
// stripes.
func (k ckey) hash() uint64 {
	h := uint64(k.step)*0x9E3779B97F4A7C15 + 0x85EBCA6B
	for _, v := range k.vals {
		h ^= uint64(v)
		h *= 0x100000001B3
	}
	return h
}

// mix64 is Stafford's variant 13 finalizer, used to spread the packed prob
// keys (group in the high half, counted value in the low half) across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func shardIdx(h uint64) int { return int(h>>32) & (numShards - 1) }

// sharedCount is the shared-cache arm of the count recursion.
func (e *Evaluator) sharedCount(k ckey, j int, b query.Bindings) int64 {
	sc := e.shared
	sh := &sc.count[shardIdx(k.hash())]
	ent, existed := sh.lookupOrClaim(k)
	if existed {
		<-ent.done
		e.stats.CountHits++
		sc.stats.countHits.Add(1)
		return ent.val
	}
	e.stats.CountMisses++
	sc.stats.countMisses.Add(1)
	ent.val = e.computeCount(j, b)
	close(ent.done)
	return ent.val
}

// sharedExists is the shared-cache arm of the existence recursion.
func (e *Evaluator) sharedExists(k ckey, j int, b query.Bindings) bool {
	sc := e.shared
	sh := &sc.exist[shardIdx(k.hash())]
	ent, existed := sh.lookupOrClaim(k)
	if existed {
		<-ent.done
		e.stats.ExistHits++
		sc.stats.existHits.Add(1)
		return ent.val
	}
	e.stats.ExistMisses++
	sc.stats.existMisses.Add(1)
	ent.val = e.computeExists(j, b)
	close(ent.done)
	return ent.val
}

// sharedSuffixAgg is the shared-cache arm of suffixEntry. The published
// aggregate is immutable after close; consumers must not mutate it.
func (e *Evaluator) sharedSuffixAgg(k ckey, i int, b query.Bindings) *aggEntry {
	sc := e.shared
	sh := &sc.agg[shardIdx(k.hash())]
	ent, existed := sh.lookupOrClaim(k)
	if existed {
		<-ent.done
		e.stats.AggHits++
		sc.stats.aggHits.Add(1)
		return ent.val
	}
	e.stats.AggMisses++
	sc.stats.aggMisses.Add(1)
	ent.val = &aggEntry{agg: e.computeSuffixAgg(i, b)}
	close(ent.done)
	return ent.val
}

// sharedProb serves one Pr(·) lookup from the shared cache: the materialized
// map when published, else the lazy single-flight shards (computing via
// compute on a claim). Mirrors the private path's stats discipline: the
// evaluator that materializes records a single ProbMiss for the one-pass
// enumeration (see maybeMaterializeProbs); reads after publication count as
// hits.
func (e *Evaluator) sharedProb(key uint64, compute func() float64) float64 {
	sc := e.shared
	if t := sc.probMat.Load(); t != nil {
		e.stats.ProbHits++
		sc.stats.probHits.Add(1)
		return t.probs[key]
	}
	sh := &sc.prob[shardIdx(mix64(key))]
	ent, existed := sh.lookupOrClaim(key)
	if existed {
		<-ent.done
		e.stats.ProbHits++
		sc.stats.probHits.Add(1)
		return ent.val
	}
	if e.sharedMaybeMaterialize() {
		// Publish the claimed entry from the materialized map so concurrent
		// waiters that raced past the probMat check still unblock.
		ent.val = sc.probMat.Load().probs[key]
		close(ent.done)
		return ent.val
	}
	e.stats.ProbMisses++
	sc.stats.probMisses.Add(1)
	ent.val = compute()
	close(ent.done)
	return ent.val
}

// sharedMaybeMaterialize makes the materialize-or-lazy decision once per
// shared cache, holding probMu for the duration of the one-pass join so
// concurrent first-missers wait for the published map instead of racing into
// redundant lazy computations.
func (e *Evaluator) sharedMaybeMaterialize() bool {
	sc := e.shared
	sc.probMu.Lock()
	defer sc.probMu.Unlock()
	if sc.probMat.Load() != nil {
		return true
	}
	if sc.probDecided {
		return false
	}
	sc.probDecided = true
	size := e.estimator().JoinSize(e.pl).Value
	if size > probMaterializeLimit {
		return false
	}
	sc.probMat.Store(e.materializeProbs(size))
	// One ProbMiss for the whole pass, charged to the worker that ran it —
	// the same accounting as the private maybeMaterializeProbs. Across a
	// shared run the merged counter therefore shows exactly one
	// materialization, where private per-worker caches would show one per
	// worker.
	e.stats.ProbMisses++
	sc.stats.probMisses.Add(1)
	sc.stats.probMaterialized.Store(true)
	e.stats.ProbMaterialized = true
	return true
}
