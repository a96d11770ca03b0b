package cache

// Hierarchy is an ordered list of cache levels searched from fastest to
// slowest. Levels may be shared between several Hierarchy values (e.g. a
// per-core L1 in front of a socket-shared L3): sharing is expressed simply
// by placing the same *Cache pointer in several hierarchies. Counters live
// on the caches, so a shared level counts for every hierarchy holding it.
type Hierarchy struct {
	levels []*Cache
}

// Result describes the outcome of one hierarchy access.
type Result struct {
	// HitLevel is the index of the level that hit, or -1 on a full miss.
	HitLevel int
	// Latency is the sum of hit latencies of all levels probed. On a full
	// miss it includes every level's latency; DRAM time is added by the
	// memory-controller model.
	Latency uint64
	// Miss reports a full miss (off-chip request required).
	Miss bool
}

// NewHierarchy builds a hierarchy over the given levels (fastest first).
func NewHierarchy(levels ...*Cache) *Hierarchy {
	return &Hierarchy{levels: append([]*Cache(nil), levels...)}
}

// LLC returns the last (slowest, largest) level, or nil for an empty
// hierarchy.
func (h *Hierarchy) LLC() *Cache {
	if len(h.levels) == 0 {
		return nil
	}
	return h.levels[len(h.levels)-1]
}

// Access walks the hierarchy for addr: each level is probed in order and,
// on a miss, the line is allocated there (inclusive fill) before probing the
// next level. The returned Result carries the accumulated latency and
// whether the access must go off-chip.
//
//simcheck:hotpath
func (h *Hierarchy) Access(addr uint64) Result {
	res := Result{HitLevel: -1}
	for i, lvl := range h.levels {
		res.Latency += lvl.cfg.Latency
		if lvl.Access(addr) {
			res.HitLevel = i
			return res
		}
	}
	res.Miss = true
	return res
}

// Invalidate removes addr's line from every level, returning whether any
// level held a copy.
func (h *Hierarchy) Invalidate(addr uint64) bool {
	dropped := false
	for _, lvl := range h.levels {
		if lvl.Invalidate(addr) {
			dropped = true
		}
	}
	return dropped
}
