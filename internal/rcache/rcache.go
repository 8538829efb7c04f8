// Package rcache is a sharded, cost-bounded LRU result cache with in-flight
// deduplication. It generalizes the experiment harness's original
// singleflight map (PR 1): concurrent misses on one key still coalesce into
// a single computation, but entries now carry an explicit cost (bytes for
// rendered responses, unit cost for simulation results) and least-recently
// used entries are evicted once a shard exceeds its budget. Shards keep lock
// contention off the server's hot path; keys pick their shard by FNV-1a
// hash.
package rcache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU keyed by string.
type Cache struct {
	shards []*shard
	mask   uint32

	hits      atomic.Int64 // served from a completed entry
	joins     atomic.Int64 // coalesced onto another caller's in-flight run
	misses    atomic.Int64 // computed by this caller
	evictions atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	// LRU list: head is most recent, tail least. Entries still computing
	// are pinned (never evicted) so waiters always see their fill.
	head, tail *entry
	cost       int64
	maxCost    int64
}

type entry struct {
	key        string
	val        any
	err        error
	cost       int64
	ready      chan struct{} // closed once val/err are final
	prev, next *entry
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Joins     int64 `json:"inflight_joins"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Cost      int64 `json:"cost"`
	MaxCost   int64 `json:"max_cost"`
}

// New builds a cache with the given shard count (rounded up to a power of
// two, minimum 1) and total cost budget spread evenly across shards.
// maxCost <= 0 means unbounded (no eviction).
func New(shards int, maxCost int64) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]*shard, n), mask: uint32(n - 1)}
	per := int64(0)
	if maxCost > 0 {
		per = maxCost / int64(n)
		if per <= 0 {
			per = 1
		}
	}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make(map[string]*entry), maxCost: per}
	}
	return c
}

// fnv1a hashes the key to pick a shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Do returns the cached value for key, joining an in-flight computation if
// one exists, or computes it by calling compute (which reports the value,
// its cost, and an error). The boolean reports whether the value was served
// without running compute in this call. Errors are returned to every waiter
// but never cached: the entry is removed so a later call retries. If ctx is
// done while waiting on another caller's computation, Do returns ctx.Err();
// the computation itself is never abandoned.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, int64, error)) (any, bool, error) {
	sh := c.shards[fnv1a(key)&c.mask]

	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		done := isReady(e)
		if done {
			sh.moveToFront(e)
		}
		sh.mu.Unlock()
		if done {
			c.hits.Add(1)
			return e.val, true, e.err
		}
		c.joins.Add(1)
		select {
		case <-e.ready:
			return e.val, true, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &entry{key: key, ready: make(chan struct{})}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.mu.Unlock()

	c.misses.Add(1)
	val, cost, err := compute()

	sh.mu.Lock()
	// The entry turns ready under the lock, together with its cost being
	// charged below: a ready entry that was not yet charged could be chosen
	// as another fill's eviction victim, and its cost subtracted from the
	// shard without ever having been added.
	e.val, e.cost, e.err = val, cost, err
	close(e.ready)
	if e.err != nil {
		// Do not cache failures; the entry may already have been evicted
		// under cost pressure, so only unlink our own.
		if sh.entries[key] == e {
			sh.remove(e)
		}
	} else if sh.entries[key] == e {
		sh.cost += e.cost
		for sh.maxCost > 0 && sh.cost > sh.maxCost && sh.tail != nil {
			victim := sh.lruVictim(e)
			if victim == nil {
				break
			}
			sh.remove(victim)
			sh.cost -= victim.cost
			c.evictions.Add(1)
		}
		// An entry costlier than the whole budget is served but not
		// retained: keeping it would pin the shard over budget forever.
		if sh.maxCost > 0 && sh.cost > sh.maxCost && sh.entries[key] == e {
			sh.remove(e)
			sh.cost -= e.cost
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	return e.val, false, e.err
}

// Get returns the cached value for key if present and complete, and counts
// it as a hit, as Do does. A miss is not counted: a caller that probes with
// Get and then computes through Do has Do count the miss (or the join), so
// every lookup is counted exactly once.
func (c *Cache) Get(key string) (any, bool) {
	sh := c.shards[fnv1a(key)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || !isReady(e) || e.err != nil {
		return nil, false
	}
	sh.moveToFront(e)
	c.hits.Add(1)
	return e.val, true
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Joins:     c.joins.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		s.Cost += sh.cost
		s.MaxCost += sh.maxCost
		sh.mu.Unlock()
	}
	return s
}

// isReady reports whether the entry's computation has completed.
func isReady(e *entry) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// lruVictim walks from the tail looking for the least-recently-used entry
// that is complete and is not the entry being inserted.
func (sh *shard) lruVictim(keep *entry) *entry {
	for e := sh.tail; e != nil; e = e.prev {
		if e != keep && isReady(e) {
			return e
		}
	}
	return nil
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(sh.entries, e.key)
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
}
