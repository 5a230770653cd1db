package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// refCache is the executable specification of the L3's replacement
// policy: the tick-LRU cache the recency-ordered Cache replaced, kept
// verbatim in test scope. Every access stamps the slot with a strictly
// increasing tick, and a fill evicts the slot with the smallest tick
// (invalid slots carry tick 0, so a free way is taken first). Ticks
// are unique, so the smallest one always names exactly the line a
// recency order keeps last: the two must agree on every result.
type refCache struct {
	cfg     Config
	tags    []uint64
	used    []uint64 // LRU tick; 0 = invalid slot
	dirty   []bool
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
	tick    uint64
	stats   Stats
}

func newRef(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	slots := nsets * cfg.Ways
	c := &refCache{
		cfg:   cfg,
		nsets: uint64(nsets),
		tags:  make([]uint64, slots),
		used:  make([]uint64, slots),
		dirty: make([]bool, slots),
	}
	if c.nsets&(c.nsets-1) == 0 {
		c.setMask = c.nsets - 1
	}
	return c
}

func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) setBase(line uint64) int {
	var idx uint64
	if c.setMask != 0 {
		idx = line & c.setMask
	} else {
		idx = line % c.nsets
	}
	return int(idx) * c.cfg.Ways
}

func (c *refCache) probe(line uint64) int {
	base := c.setBase(line)
	tags := c.tags[base : base+c.cfg.Ways]
	for i := range tags {
		if tags[i] == line && c.used[base+i] != 0 {
			return base + i
		}
	}
	return -1
}

func (c *refCache) Lookup(line uint64, write bool) bool {
	c.tick++
	if i := c.probe(line); i >= 0 {
		c.used[i] = c.tick
		if write {
			c.dirty[i] = true
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Contains(line uint64) bool {
	return c.probe(line) >= 0
}

func (c *refCache) Install(line uint64, dirty bool) (Victim, bool) {
	c.tick++
	c.stats.Installs++
	if i := c.probe(line); i >= 0 {
		c.used[i] = c.tick
		c.dirty[i] = c.dirty[i] || dirty
		return Victim{}, false
	}
	base := c.setBase(line)
	used := c.used[base : base+c.cfg.Ways]
	lru := 0
	for i := 1; i < len(used); i++ {
		if used[i] < used[lru] {
			lru = i
		}
	}
	slot := base + lru
	var v Victim
	evicted := used[lru] != 0
	if evicted {
		v = Victim{Line: c.tags[slot], Dirty: c.dirty[slot]}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tags[slot] = line
	c.used[slot] = c.tick
	c.dirty[slot] = dirty
	return v, evicted
}

func (c *refCache) OccupiedLines() int {
	n := 0
	for i := range c.used {
		if c.used[i] != 0 {
			n++
		}
	}
	return n
}

// oracleGeometry is one cache shape the differential tests cover, with
// the way its reference lines are drawn.
type oracleGeometry struct {
	name string
	cfg  Config
	// wide draws the line pool from full-width random uint64s rather
	// than from a dense range a few times the capacity.
	wide bool
}

func oracleGeometries() []oracleGeometry {
	geo := func(sets, ways int) Config {
		return Config{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, HitLatency: 30}
	}
	return []oracleGeometry{
		{name: "sim-l3-64x16", cfg: geo(64, 16)},
		{name: "non-pow2-12x4", cfg: geo(12, 4)},
		{name: "direct-mapped-32x1", cfg: geo(32, 1)},
		{name: "ways5-8x5", cfg: geo(8, 5)},
		{name: "wide-lines-64x16", cfg: geo(64, 16), wide: true},
		{name: "wide-lines-non-pow2-7x5", cfg: geo(7, 5), wide: true},
	}
}

// linePool returns the lines one differential run draws from: about
// three times the capacity, so both hits and evicting fills are common.
func (g oracleGeometry) linePool(rng *rand.Rand) []uint64 {
	lines := 3 * g.cfg.SizeBytes / g.cfg.LineBytes
	pool := make([]uint64, lines)
	for i := range pool {
		if g.wide {
			pool[i] = rng.Uint64()
		} else {
			pool[i] = uint64(i)
		}
	}
	return pool
}

// oracleStep applies one operation, chosen and parameterised by op, to
// both caches and reports the first disagreement ("" if none): the
// operation's result (hit/miss, residency, or victim line, dirty bit and
// eviction flag), then Stats and OccupiedLines.
func oracleStep(got *Cache, want *refCache, op uint64, line uint64) string {
	flag := op&4 != 0
	switch op % 3 {
	case 0:
		if g, w := got.Lookup(line, flag), want.Lookup(line, flag); g != w {
			return "Lookup hit/miss"
		}
	case 1:
		gv, ge := got.Install(line, flag)
		wv, we := want.Install(line, flag)
		if gv != wv || ge != we {
			return "Install victim"
		}
	default:
		if got.Contains(line) != want.Contains(line) {
			return "Contains"
		}
	}
	if got.Stats() != want.Stats() {
		return "Stats"
	}
	if got.OccupiedLines() != want.OccupiedLines() {
		return "OccupiedLines"
	}
	return ""
}

// conflictPool returns the quick-check's lines: half again as many as
// fit in two sets, all mapping to sets 0 and 1, so even a short stream
// fills its sets and evicts.
func (g oracleGeometry) conflictPool(rng *rand.Rand) []uint64 {
	nsets := uint64(g.cfg.SizeBytes / (g.cfg.Ways * g.cfg.LineBytes))
	per := 3*g.cfg.Ways/2 + 1
	pool := make([]uint64, 0, 2*per)
	for s := uint64(0); s < 2; s++ {
		for k := 0; k < per; k++ {
			base := uint64(k) * nsets
			if g.wide {
				base = rng.Uint64() / nsets * nsets
			}
			pool = append(pool, base+s%nsets)
		}
	}
	return pool
}

// TestQuickCacheMatchesReference drives random operation streams
// through the recency-ordered Cache and the tick-LRU reference on every
// oracle geometry and requires identical results after every step.
// Each generated word carries four 16-bit steps.
func TestQuickCacheMatchesReference(t *testing.T) {
	for _, g := range oracleGeometries() {
		t.Run(g.name, func(t *testing.T) {
			pool := g.conflictPool(rand.New(rand.NewPCG(3, 5)))
			var evictions uint64
			f := func(words []uint64) bool {
				got, want := New(g.cfg), newRef(g.cfg)
				for _, w := range words {
					for ; w != 0; w >>= 16 {
						op := w & 0xffff
						line := pool[(op>>3)%uint64(len(pool))]
						if diff := oracleStep(got, want, op, line); diff != "" {
							t.Logf("op %#x line %#x: %s differs", op, line, diff)
							return false
						}
					}
				}
				evictions += got.Stats().Evictions
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Fatal(err)
			}
			if evictions == 0 {
				t.Fatal("quick-check never evicted")
			}
		})
	}
}

// TestCacheSoakMatchesReference is the long differential run: 250k
// operations per geometry, 1.5M in all (a tenth under -short), lines
// drawn with a skew toward a hot subset so long-lived hot lines and
// streaming fills mix the way they do at the simulator's L3.
func TestCacheSoakMatchesReference(t *testing.T) {
	steps := 250_000
	if testing.Short() {
		steps /= 10
	}
	for _, g := range oracleGeometries() {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, uint64(len(g.name))))
			pool := g.linePool(rng)
			hot := len(pool) / 4
			got, want := New(g.cfg), newRef(g.cfg)
			for i := 0; i < steps; i++ {
				n := len(pool)
				if rng.IntN(2) == 0 {
					n = hot
				}
				line := pool[rng.IntN(n)]
				if diff := oracleStep(got, want, rng.Uint64(), line); diff != "" {
					t.Fatalf("step %d line %#x: %s differs", i, line, diff)
				}
			}
			if s := got.Stats(); s.Hits == 0 || s.Evictions == 0 || s.Writebacks == 0 {
				t.Fatalf("soak exercised too little: %+v", s)
			}
		})
	}
}
