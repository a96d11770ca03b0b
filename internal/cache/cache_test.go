package cache

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func small(t *testing.T) *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return mustNew(t, Config{Name: "t", Size: 512, Line: 64, Ways: 2, Latency: 1})
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Size: 512, Line: 0, Ways: 2},         // zero line
		{Size: 512, Line: 1, Ways: 2},         // 1-byte line
		{Size: 512, Line: 48, Ways: 2},        // non-pow2 line
		{Size: 512, Line: 64, Ways: 0},        // zero ways
		{Size: 500, Line: 64, Ways: 2},        // size not divisible
		{Size: 64 * 3 * 2, Line: 64, Ways: 2}, // 3 sets, not pow2
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	// Only the set count must be a power of two, not the ways.
	if _, err := New(Config{Size: 64 * 4 * 3, Line: 64, Ways: 3}); err != nil {
		t.Errorf("3-way cache rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next line should cold-miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2 ways; addresses mapping to set 0: multiples of 4*64=256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill -> set full
	c.Access(a) // hit, a most recent
	c.Access(d) // miss, evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive")
	}
	if c.Contains(b) {
		t.Error("b should be evicted")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Access(0)
	c.Access(256)
	before := c.Stats()
	c.Contains(0)
	c.Contains(999999)
	if c.Stats() != before {
		t.Error("Contains changed stats")
	}
	// Contains must not refresh LRU: touch b, then query a via Contains,
	// then fill; a must still be the LRU victim.
	c2 := small(t)
	c2.Access(0)   // a
	c2.Access(256) // b  (a is LRU)
	c2.Contains(0) // must NOT refresh a
	c2.Access(512) // evict LRU = a
	if c2.Contains(0) {
		t.Error("Contains refreshed LRU state")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// 8 KB cache, 4 KB working set swept repeatedly: only cold misses.
	c := mustNew(t, Config{Name: "t", Size: 8192, Line: 64, Ways: 4, Latency: 1})
	for round := 0; round < 10; round++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			c.Access(addr)
		}
	}
	if m := c.Stats().Misses; m != 4096/64 {
		t.Errorf("misses = %d, want %d cold misses only", m, 4096/64)
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	// 512B cache (8 lines), 4 KB cyclic sweep with LRU: every access misses
	// (classic LRU worst case for a cyclic pattern larger than capacity).
	c := small(t)
	total := 0
	for round := 0; round < 5; round++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			c.Access(addr)
			total++
		}
	}
	if m := c.Stats().Misses; m != uint64(total) {
		t.Errorf("misses = %d, want %d (full thrash)", m, total)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Size: 8192, Line: 64, Ways: 4, Latency: 1, NextLinePrefetch: true})
	c.Access(0) // miss; prefetches line 1
	if !c.Contains(64) {
		t.Error("next line not prefetched")
	}
	if c.Access(64) == false {
		t.Error("prefetched line should hit")
	}
	s := c.Stats()
	if s.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", s.Prefetches)
	}
	if s.Misses != 1 {
		t.Errorf("misses = %d; prefetch must not count as demand miss", s.Misses)
	}
	// Sequential sweep with prefetch should roughly halve demand misses.
	c2 := mustNew(t, Config{Name: "t", Size: 512, Line: 64, Ways: 2, Latency: 1, NextLinePrefetch: true})
	for addr := uint64(0); addr < 64*1024; addr += 64 {
		c2.Access(addr)
	}
	s2 := c2.Stats()
	ratio := float64(s2.Misses) / float64(s2.Accesses)
	if ratio > 0.55 {
		t.Errorf("sequential miss ratio with prefetch = %v, want ~0.5", ratio)
	}
}

func TestHierarchyAccessPath(t *testing.T) {
	l1 := mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 2})
	l2 := mustNew(t, Config{Name: "L2", Size: 4096, Line: 64, Ways: 4, Latency: 10})
	h := NewHierarchy(l1, l2)
	if h.LLC() != l2 {
		t.Error("LLC should be the last level")
	}

	r := h.Access(0)
	if !r.Miss || r.HitLevel != -1 || r.Latency != 12 {
		t.Errorf("cold access = %+v", r)
	}
	r = h.Access(0)
	if r.Miss || r.HitLevel != 0 || r.Latency != 2 {
		t.Errorf("L1 hit = %+v", r)
	}
	// Evict line 0 from tiny L1 (set 0 holds multiples of 256) but keep in L2.
	h.Access(256)
	h.Access(512)
	r = h.Access(0)
	if r.Miss || r.HitLevel != 1 || r.Latency != 12 {
		t.Errorf("L2 hit = %+v", r)
	}
	// The first level counts every hierarchy access, the last level's
	// misses are the off-chip requests.
	if got := l1.Stats().Accesses; got != 5 {
		t.Errorf("hierarchy accesses = %d", got)
	}
	if got := h.LLC().Stats().Misses; got != 3 {
		t.Errorf("LLC misses = %d, want 3 (cold 0, cold 256, cold 512)", got)
	}
}

func TestHierarchySharedLevel(t *testing.T) {
	shared := mustNew(t, Config{Name: "LLC", Size: 8192, Line: 64, Ways: 4, Latency: 20})
	h1 := NewHierarchy(mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 1}), shared)
	h2 := NewHierarchy(mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 1}), shared)
	h1.Access(0) // fills shared
	r := h2.Access(0)
	if r.Miss {
		t.Error("second core should hit the shared LLC")
	}
	if r.HitLevel != 1 {
		t.Errorf("hit level = %d, want 1", r.HitLevel)
	}
}

func TestEmptyHierarchy(t *testing.T) {
	h := NewHierarchy()
	if h.LLC() != nil {
		t.Error("empty hierarchy LLC should be nil")
	}
	r := h.Access(0)
	if !r.Miss {
		t.Error("empty hierarchy access should miss")
	}
}

// Property: for any address sequence, hits+misses == accesses and the cache
// never reports more resident lines than its capacity.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(Config{Name: "p", Size: 2048, Line: 64, Ways: 4, Latency: 1})
		if err != nil {
			return false
		}
		hits := uint64(0)
		for _, a := range addrs {
			if c.Access(uint64(a)) {
				hits++
			}
		}
		s := c.Stats()
		if s.Accesses != uint64(len(addrs)) || s.Misses != s.Accesses-hits {
			return false
		}
		// Count resident lines among all possible lines in the address space.
		resident := 0
		for line := uint64(0); line < (1<<16)/64+2; line++ {
			if c.Contains(line * 64) {
				resident++
			}
		}
		return resident <= 2048/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: immediately re-accessing any address is always a hit.
func TestRehitProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, err := New(Config{Name: "p", Size: 4096, Line: 64, Ways: 4, Latency: 1})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Access(0)
	if !c.Invalidate(32) { // same line as 0
		t.Error("Invalidate missed a resident line")
	}
	if c.Contains(0) {
		t.Error("line survived invalidation")
	}
	if c.Invalidate(0) {
		t.Error("double invalidation reported a copy")
	}
	// Counters untouched.
	if s := c.Stats(); s.Accesses != 1 || s.Misses != 1 {
		t.Errorf("stats changed: %+v", s)
	}
	// Next access misses again (a coherence miss).
	if c.Access(0) {
		t.Error("post-invalidation access should miss")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	l1 := mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 2})
	l2 := mustNew(t, Config{Name: "L2", Size: 4096, Line: 64, Ways: 4, Latency: 10})
	h := NewHierarchy(l1, l2)
	h.Access(0)
	if !h.Invalidate(0) {
		t.Error("hierarchy invalidate missed")
	}
	if l1.Contains(0) || l2.Contains(0) {
		t.Error("copy survived in some level")
	}
	if h.Invalidate(0) {
		t.Error("no copies should remain")
	}
}

// A miss after an invalidation refills the invalidated way, even when
// another line is older, and evicts nothing.
func TestLRUInvalidatedMiddleWayIsRefilled(t *testing.T) {
	// One set of 4 ways; line i lives at address 64*i.
	c := mustNew(t, Config{Name: "t", Size: 256, Line: 64, Ways: 4, Latency: 1})
	for line := uint64(0); line < 4; line++ {
		c.Access(line * 64)
	}
	if !c.Invalidate(2 * 64) {
		t.Fatal("Invalidate missed a resident line")
	}
	if c.Access(4 * 64) {
		t.Fatal("access to a new line hit")
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("evictions = %d, want 0: the refill replaced an invalid way", ev)
	}
	for _, line := range []uint64{0, 1, 3, 4} {
		if !c.Contains(line * 64) {
			t.Errorf("line %d is not resident after the refill", line)
		}
	}
	// The set is full again, so the next miss evicts the LRU line 0.
	c.Access(5 * 64)
	if c.Contains(0) {
		t.Error("the next miss did not evict the LRU line 0")
	}
	for _, line := range []uint64{1, 3, 4, 5} {
		if !c.Contains(line * 64) {
			t.Errorf("line %d is not resident after the next miss", line)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// refCache is the reference model for FuzzCacheDifferential: the earlier
// Cache algorithm, which kept validity in an array of its own and made
// three passes over a set on a miss (the lookup, a search for the first
// invalid way, the LRU victim scan).
type refCache struct {
	cfg      Config
	setMask  uint64
	lineBits uint
	tags     []uint64
	valid    []bool
	lastUse  []uint64
	tick     uint64
	stats    Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Size / (cfg.Line * uint64(cfg.Ways))
	n := int(sets) * cfg.Ways
	return &refCache{
		cfg:      cfg,
		setMask:  sets - 1,
		lineBits: uint(bits.TrailingZeros64(cfg.Line)),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		lastUse:  make([]uint64, n),
	}
}

func (m *refCache) Access(addr uint64) bool {
	hit := m.touch(addr, false)
	if !hit && m.cfg.NextLinePrefetch {
		m.touch((addr>>m.lineBits+1)<<m.lineBits, true)
	}
	return hit
}

func (m *refCache) touch(addr uint64, prefetch bool) bool {
	line := addr >> m.lineBits
	set := int(line & m.setMask)
	base := set * m.cfg.Ways
	if !prefetch {
		m.stats.Accesses++
	} else {
		m.stats.Prefetches++
	}
	m.tick++
	for w := 0; w < m.cfg.Ways; w++ {
		if m.valid[base+w] && m.tags[base+w] == line {
			m.lastUse[base+w] = m.tick
			return true
		}
	}
	if !prefetch {
		m.stats.Misses++
	}
	victim := -1
	for w := 0; w < m.cfg.Ways; w++ {
		if !m.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = m.victim(set)
		m.stats.Evictions++
	}
	m.tags[base+victim] = line
	m.valid[base+victim] = true
	m.lastUse[base+victim] = m.tick
	return false
}

// victim scans a full set for its least recently used way.
func (m *refCache) victim(set int) int {
	base := set * m.cfg.Ways
	best, bestUse := 0, m.lastUse[base]
	for w := 1; w < m.cfg.Ways; w++ {
		if u := m.lastUse[base+w]; u < bestUse {
			best, bestUse = w, u
		}
	}
	return best
}

func (m *refCache) Contains(addr uint64) bool {
	line := addr >> m.lineBits
	base := int(line&m.setMask) * m.cfg.Ways
	for w := 0; w < m.cfg.Ways; w++ {
		if m.valid[base+w] && m.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (m *refCache) Invalidate(addr uint64) bool {
	line := addr >> m.lineBits
	base := int(line&m.setMask) * m.cfg.Ways
	for w := 0; w < m.cfg.Ways; w++ {
		if m.valid[base+w] && m.tags[base+w] == line {
			m.valid[base+w] = false
			return true
		}
	}
	return false
}

// diffWays are the associativities FuzzCacheDifferential covers: direct
// mapped, the smallest set with a choice, a non-power-of-two set and the
// widest preset's.
var diffWays = []int{1, 2, 10, 16}

// FuzzCacheDifferential replays one operation stream against Cache and the
// reference model and requires the same hit/miss sequence, the same Stats
// after every operation and the same resident lines. Each operation is 3
// bytes: a kind (Invalidate below 16, Access otherwise) and a little-endian
// address that wraps over three times the cache's capacity.
func FuzzCacheDifferential(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	// Three random streams per geometry.
	for range 3 {
		for wi := range diffWays {
			for _, prefetch := range []bool{false, true} {
				ops := make([]byte, 3*600)
				r.Read(ops)
				f.Add(uint8(wi), prefetch, ops)
			}
		}
	}
	// Invalidate-heavy streams: every third operation invalidates a line
	// accessed one to four operations earlier, so it usually drops a
	// resident line from the middle of its set and the next misses refill
	// the invalid ways that leaves.
	for range 3 {
		for wi := range diffWays {
			for _, prefetch := range []bool{false, true} {
				ops := make([]byte, 3*600)
				r.Read(ops)
				for op := 0; op < len(ops)/3; op++ {
					i := 3 * op
					if op%3 != 2 {
						ops[i] |= 16 // an Access
						continue
					}
					ops[i] %= 16 // an Invalidate
					j := 3 * (op - 1 - r.Intn(min(op, 4)))
					ops[i+1], ops[i+2] = ops[j+1], ops[j+2]
				}
				f.Add(uint8(wi), prefetch, ops)
			}
		}
	}
	f.Fuzz(func(t *testing.T, waysSel uint8, prefetch bool, ops []byte) {
		const sets, line = 4, 64
		ways := diffWays[int(waysSel)%len(diffWays)]
		cfg := Config{
			Name: "d", Size: sets * line * uint64(ways), Line: line, Ways: ways, Latency: 1,
			NextLinePrefetch: prefetch,
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := newRefCache(cfg)
		span := uint64(3 * sets * ways) // lines the addresses cover
		for i := 0; i+3 <= len(ops); i += 3 {
			addr := (uint64(ops[i+1]) | uint64(ops[i+2])<<8) % (span * line)
			if ops[i] < 16 {
				if got, want := c.Invalidate(addr), m.Invalidate(addr); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v, model %v", i/3, addr, got, want)
				}
			} else if got, want := c.Access(addr), m.Access(addr); got != want {
				t.Fatalf("op %d: Access(%d) hit = %v, model %v", i/3, addr, got, want)
			}
			if c.Stats() != m.stats {
				t.Fatalf("op %d: stats %+v, model %+v", i/3, c.Stats(), m.stats)
			}
			// One line past the span: a prefetch can fill it.
			for l := uint64(0); l <= span; l++ {
				if got, want := c.Contains(l*line), m.Contains(l*line); got != want {
					t.Fatalf("op %d: Contains(line %d) = %v, model %v", i/3, l, got, want)
				}
			}
		}
	})
}
