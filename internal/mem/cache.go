// Package mem models the memory hierarchy of the paper's machine (Table 2):
// a 64KB 4-way pipelined instruction cache with 2-cycle access, an 8KB 2-way
// pipelined data cache with 2-cycle latency, a 1MB 8-way unified L2 with
// 8-cycle access and contention modeled for 2 banks, and a 100-cycle main
// memory with contention modeled for 32 banks. It also implements the
// sum-addressed-memory (SAM) decoder of paper §3.6, which indexes the data
// cache directly from the base and displacement (or from the positive and
// negative components of a redundant binary address) without a full
// carry-propagating addition.
package mem

import "fmt"

// CacheConfig sizes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Ways is the set associativity.
	Ways int
}

// CacheStats counts accesses.
type CacheStats struct {
	Hits, Misses, Writebacks int64
}

// Accesses is the total access count.
func (s CacheStats) Accesses() int64 { return s.Hits + s.Misses }

// MissRate is misses per access (0 when unused).
func (s CacheStats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// Cache is a set-associative, write-back, write-allocate cache model with
// true-LRU replacement. It tracks tags only (timing model; data values come
// from the functional emulator). Line state is split into parallel arrays —
// 10 bytes per line instead of a 16-byte padded struct — because simulator
// construction zeroes every line and fault campaigns build simulators in a
// loop.
type Cache struct {
	cfg    CacheConfig
	sets   int
	tags   []uint64 // sets * ways
	flags  []uint8  // sets * ways: valid | dirty<<1
	lru    []uint8  // sets * ways: saturating age, 0 = most recent
	stats  CacheStats
	offLSB uint // log2(LineBytes)
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
)

// Upper bounds on the fields that size a hierarchy's allocations. Each is a
// multiple of the largest value a preset or example uses, so no wire config
// can ask one run for gigabytes of cache tags.
const (
	// MaxCacheBytes bounds a cache's capacity: 16x the 1 MiB L2.
	MaxCacheBytes = 16 << 20
	// MaxWays bounds a cache's associativity: 8x the L2's 8 ways.
	MaxWays = 64
	// MaxBanks bounds the L2 and memory bank counts: 32x the 32 memory banks.
	MaxBanks = 1024
)

// Built once: formatting them in Validate, which every /v1 cell request runs
// deep in its goroutine's stack, grew its frame and with it that stack.
var (
	errCacheBounds = fmt.Errorf("mem: cache larger than %d bytes or with more than %d ways", MaxCacheBytes, MaxWays)
	errBankBounds  = fmt.Errorf("mem: more than %d L2 or memory banks", MaxBanks)
)

// Validate reports a geometry NewCache cannot build: a capacity above
// MaxCacheBytes or more than MaxWays ways, a line size that is not a power
// of two, or a capacity that does not split into a power-of-two number (at
// least one) of sets of Ways lines.
func (cfg CacheConfig) Validate() error {
	if cfg.SizeBytes > MaxCacheBytes || cfg.Ways > MaxWays {
		return errCacheBounds
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d is not a power of two", cfg.LineBytes)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if cfg.Ways <= 0 || cfg.SizeBytes%cfg.LineBytes != 0 || lines%cfg.Ways != 0 {
		return fmt.Errorf("mem: size %d not divisible into %d-way sets of %d-byte lines",
			cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
	}
	if sets := lines / cfg.Ways; sets < 1 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d is not a positive power of two", sets)
	}
	return nil
}

// NewCache validates the configuration and builds an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg: cfg, sets: sets,
		tags:  make([]uint64, sets*cfg.Ways),
		flags: make([]uint8, sets*cfg.Ways),
		lru:   make([]uint8, sets*cfg.Ways),
	}
	for n := cfg.LineBytes; n > 1; n >>= 1 {
		c.offLSB++
	}
	return c, nil
}

// MustCache is NewCache for static configurations; it panics on error.
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets (the decoder's row count).
func (c *Cache) Sets() int { return c.sets }

// IndexBits returns log2(sets), the width of the decoder input.
func (c *Cache) IndexBits() uint {
	bits := uint(0)
	for n := c.sets; n > 1; n >>= 1 {
		bits++
	}
	return bits
}

// OffsetBits returns log2(line size).
func (c *Cache) OffsetBits() uint { return c.offLSB }

// Index extracts the set index of an address, the field the SAM decoder
// produces.
func (c *Cache) Index(addr uint64) uint64 {
	return addr >> c.offLSB & uint64(c.sets-1)
}

func (c *Cache) tagOf(addr uint64) uint64 { return addr >> c.offLSB / uint64(c.sets) }

// Access looks up addr, allocating on a miss. write marks the line dirty.
// It reports whether the access hit and whether the allocation evicted a
// dirty line (write-back traffic).
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	set := int(c.Index(addr))
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&lineValid != 0 && c.tags[i] == tag {
			c.touch(base, w)
			if write {
				c.flags[i] |= lineDirty
			}
			c.stats.Hits++
			return true, false
		}
		if c.flags[base+victim]&lineValid == 0 {
			continue
		}
		if c.flags[i]&lineValid == 0 || c.lru[i] > c.lru[base+victim] {
			victim = w
		}
	}
	c.stats.Misses++
	i := base + victim
	writeback = c.flags[i]&(lineValid|lineDirty) == lineValid|lineDirty
	if writeback {
		c.stats.Writebacks++
	}
	c.tags[i] = tag
	c.flags[i] = lineValid
	if write {
		c.flags[i] |= lineDirty
	}
	c.touch(base, victim)
	return false, writeback
}

// Probe reports whether addr currently hits without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	set := int(c.Index(addr))
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.flags[base+w]&lineValid != 0 && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

func (c *Cache) touch(base, way int) {
	for w := 0; w < c.cfg.Ways; w++ {
		if w == way {
			c.lru[base+w] = 0
		} else if c.lru[base+w] < 255 {
			c.lru[base+w]++
		}
	}
}

// Stats returns the access counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.flags)
	clear(c.lru)
	c.stats = CacheStats{}
}
