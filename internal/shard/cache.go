package shard

import (
	"sync"
	"sync/atomic"

	"kgexplore/internal/ctj"
	"kgexplore/internal/rdf"
)

// maxIfaceVals mirrors ctj's cache-key capacity: interface variables plus
// the bound α/β extras must fit in one fixed array.
const maxIfaceVals = 8

// aggKey identifies a cached suffix aggregation: the boundary step plus the
// values of its interface variables and the already-bound α/β.
type aggKey struct {
	step int8
	vals [maxIfaceVals]rdf.ID
}

// groupEntry memoizes the owned-distinct estimator's per-value work: the
// distinct groups reachable from root subject v (over every root triple
// with that subject and every cross-shard completion) and the number of
// such root triples in the owning shard.
type groupEntry struct {
	groups []rdf.ID
	rootN  int
}

// Cache is the per-stratum shared suffix cache of the scatter-gather Audit
// Join — the sharded analog of ctj.SharedCache. One Cache serves all
// walkers of a stratum's pool and survives across requests for warm
// starts. Lookups take a read lock; fills happen outside any lock and are
// published first-write-wins, so racing walkers may duplicate a
// computation but never see a torn entry.
type Cache struct {
	mu     sync.RWMutex
	agg    map[aggKey]*ctj.Reduced
	groups map[rdf.ID]groupEntry

	hits, misses atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		agg:    make(map[aggKey]*ctj.Reduced),
		groups: make(map[rdf.ID]groupEntry),
	}
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

func (c *Cache) getAgg(k aggKey) (*ctj.Reduced, bool) {
	c.mu.RLock()
	v, ok := c.agg[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// putAgg publishes a computed, reduced aggregation; if another walker won
// the race, the incumbent is returned so all callers agree on one value.
func (c *Cache) putAgg(k aggKey, v *ctj.Reduced) *ctj.Reduced {
	c.mu.Lock()
	if cur, ok := c.agg[k]; ok {
		c.mu.Unlock()
		return cur
	}
	c.agg[k] = v
	c.mu.Unlock()
	return v
}

func (c *Cache) getGroups(v rdf.ID) (groupEntry, bool) {
	c.mu.RLock()
	e, ok := c.groups[v]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *Cache) putGroups(v rdf.ID, e groupEntry) groupEntry {
	c.mu.Lock()
	if cur, ok := c.groups[v]; ok {
		c.mu.Unlock()
		return cur
	}
	c.groups[v] = e
	c.mu.Unlock()
	return e
}
