// Package cache simulates set-associative cache memories and multi-level
// cache hierarchies. It filters the memory-reference streams produced by
// workloads so that only last-level misses become off-chip requests — the
// quantity whose contention behaviour the paper studies.
//
// The simulator is single-threaded (discrete-event), so caches are not
// safe for concurrent use and require no locking. Coherence is modeled only
// as invalidation: when sim.Config.Coherence is set, the engine's directory
// calls Invalidate to drop other sockets' copies of a written line. The
// invalidation messages themselves add no traffic or latency.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the level in stats output ("L1", "L2", "L3").
	Name string
	// Size is the total capacity in bytes.
	Size uint64
	// Line is the cache-line size in bytes (power of two).
	Line uint64
	// Ways is the associativity. Size/(Line*Ways) must be a power of two.
	Ways int
	// Latency is the hit latency in cycles.
	Latency uint64
	// NextLinePrefetch, when set, inserts line+1 on every demand miss,
	// modeling a simple hardware prefetcher.
	NextLinePrefetch bool
}

// Stats counts the accesses observed by one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Prefetches uint64
}

// Cache is one set-associative cache level with exact LRU replacement.
//
// Each way is one slot of tags, sets*ways long. A slot holds the resident
// line plus one, so 0 marks an invalid way and a lookup reads one array.
// Each set's slots are kept in recency order: the most recently used line
// at index 0, then older lines, then the invalid ways. Invalidate must keep
// the invalid ways at the end: a miss then evicts the last slot, which is
// an invalid way while there is one and the least recently used line
// otherwise.
type Cache struct {
	cfg      Config
	setMask  uint64
	lineBits uint
	tags     []uint64 // line+1 per way; 0 is an invalid way
	stats    Stats
}

// New validates cfg and constructs the cache.
func New(cfg Config) (*Cache, error) {
	// A 1-byte line would make every address a line, and the largest one
	// would wrap its tag (line+1) to the invalid 0.
	if cfg.Line < 2 || bits.OnesCount64(cfg.Line) != 1 {
		return nil, fmt.Errorf("cache %s: line size %d must be a power of two of at least 2", cfg.Name, cfg.Line)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways)
	}
	if cfg.Size == 0 || cfg.Size%(cfg.Line*uint64(cfg.Ways)) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by line*ways", cfg.Name, cfg.Size)
	}
	sets := cfg.Size / (cfg.Line * uint64(cfg.Ways))
	if bits.OnesCount64(sets) != 1 {
		return nil, fmt.Errorf("cache %s: set count %d must be a power of two", cfg.Name, sets)
	}
	return &Cache{
		cfg:      cfg,
		setMask:  sets - 1,
		lineBits: uint(bits.TrailingZeros64(cfg.Line)),
		tags:     make([]uint64, int(sets)*cfg.Ways),
	}, nil
}

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineOf returns the line-granular tag of an address.
func (c *Cache) lineOf(addr uint64) uint64 { return addr >> c.lineBits }

// Access looks up addr, allocating on miss, and reports whether it hit.
// Stores allocate like loads (write-allocate); dirty-line writeback traffic
// is not modeled separately.
func (c *Cache) Access(addr uint64) bool {
	hit := c.touch(addr, false)
	if !hit && c.cfg.NextLinePrefetch {
		line := c.lineOf(addr)
		c.touch((line+1)<<c.lineBits, true)
	}
	return hit
}

// touch performs the lookup/fill. prefetch suppresses demand counters.
//
//simcheck:hotpath
func (c *Cache) touch(addr uint64, prefetch bool) bool {
	line := c.lineOf(addr)
	tag := line + 1
	base := int(line&c.setMask) * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	if !prefetch {
		c.stats.Accesses++
	} else {
		c.stats.Prefetches++
	}

	// One pass shifts each slot down by one until the line is found, with
	// the line itself entering at the front: a hit moves its line to the
	// front, and a miss shifts the whole set, dropping the last slot.
	prev := tag
	for w, t := range tags {
		tags[w] = prev
		if t == tag {
			return true
		}
		prev = t
	}
	if !prefetch {
		c.stats.Misses++
	}
	if prev != 0 {
		c.stats.Evictions++
	}
	return false
}

// Contains reports whether addr's line is resident without updating
// replacement state or counters.
func (c *Cache) Contains(addr uint64) bool {
	return c.way(addr) >= 0
}

// way returns the slot in tags holding addr's line, or -1.
func (c *Cache) way(addr uint64) int {
	line := c.lineOf(addr)
	base := int(line&c.setMask) * c.cfg.Ways
	if w := slices.Index(c.tags[base:base+c.cfg.Ways], line+1); w >= 0 {
		return base + w
	}
	return -1
}

// Invalidate removes addr's line from the cache if present, returning
// whether a copy was dropped. Used by the coherence directory to model
// cross-socket invalidations; counters are not affected. The older lines
// of the set shift up one slot, so the freed way joins the invalid ways at
// the end.
func (c *Cache) Invalidate(addr uint64) bool {
	i := c.way(addr)
	if i < 0 {
		return false
	}
	end := i - i%c.cfg.Ways + c.cfg.Ways
	copy(c.tags[i:end-1], c.tags[i+1:end])
	c.tags[end-1] = 0
	return true
}
