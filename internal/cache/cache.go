// Package cache implements a set-associative write-back SRAM cache model
// with true-LRU replacement. The simulator uses it for the shared L3 (the
// level whose hit rate DICE's neighbor-line installs improve, Table 6) and
// for the private L1/L2 levels in the full-hierarchy example. The model
// tracks tags, validity and dirty state; data bytes are owned by the
// simulator's deterministic data sources, so the cache itself stays
// compact even at large geometries.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size (64 throughout the paper)
	// HitLatency is the access latency in CPU cycles charged on a hit.
	HitLatency int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache: geometry must be positive: %+v", c)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line %d",
			c.SizeBytes, c.Ways*c.LineBytes)
	case c.HitLatency < 0:
		return fmt.Errorf("cache: negative hit latency")
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Installs   uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits / (hits + misses).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative cache indexed by 64-byte line address.
// State is stored as parallel flat arrays (set i occupies slots
// [i*Ways, (i+1)*Ways)): the probe loop scans only the contiguous tag
// words, touching two cache lines for a 16-way set instead of the
// eight a struct-per-way layout costs, and power-of-two set counts
// index with a mask instead of a hardware divide. Both effects are
// measurable because the L3 sits on the simulator's per-reference
// path. True LRU is kept by recency order: set i's valid lines fill
// its first valid[i] slots, most recently used first, so a hit moves
// its line to the front, a fill shifts the set down one slot, and the
// LRU line is the last valid slot — no per-line age and no victim
// scan.
type Cache struct {
	cfg     Config
	tags    []uint64
	dirty   []bool
	valid   []int // valid lines per set
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
	stats   Stats
}

// New builds a cache. It panics on invalid configuration (configurations
// are static experiment inputs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	slots := nsets * cfg.Ways
	c := &Cache{
		cfg:   cfg,
		nsets: uint64(nsets),
		tags:  make([]uint64, slots),
		dirty: make([]bool, slots),
		valid: make([]int, nsets),
	}
	if c.nsets&(c.nsets-1) == 0 {
		c.setMask = c.nsets - 1
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.nsets) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics; contents are preserved.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// probe returns the set holding line and line's recency position in
// it, or -1. The scan reads only the set's valid tag words.
func (c *Cache) probe(line uint64) (set, pos int) {
	if c.setMask != 0 {
		set = int(line & c.setMask)
	} else {
		set = int(line % c.nsets)
	}
	base := set * c.cfg.Ways
	for i, t := range c.tags[base : base+c.valid[set]] {
		if t == line {
			return set, i
		}
	}
	return set, -1
}

// shiftDown moves the first n lines of the set starting at slot base
// down one slot, freeing the front slot for the most recent line.
func (c *Cache) shiftDown(base, n int) {
	copy(c.tags[base+1:base+1+n], c.tags[base:base+n])
	copy(c.dirty[base+1:base+1+n], c.dirty[base:base+n])
}

// touch moves the line at recency position pos of the set starting at
// slot base to the front, ORing dirty into its dirty bit.
func (c *Cache) touch(base, pos int, dirty bool) {
	line, was := c.tags[base+pos], c.dirty[base+pos]
	c.shiftDown(base, pos)
	c.tags[base], c.dirty[base] = line, was || dirty
}

// Lookup probes for a line, updating LRU on a hit. When write is true a
// hit marks the line dirty (write-back policy).
func (c *Cache) Lookup(line uint64, write bool) bool {
	set, pos := c.probe(line)
	if pos < 0 {
		c.stats.Misses++
		return false
	}
	c.touch(set*c.cfg.Ways, pos, write)
	c.stats.Hits++
	return true
}

// Contains reports residency without touching LRU or statistics.
func (c *Cache) Contains(line uint64) bool {
	_, pos := c.probe(line)
	return pos >= 0
}

// Victim describes a line displaced by Install.
type Victim struct {
	Line  uint64
	Dirty bool
}

// Install fills a line (write-allocate), evicting the LRU way if the set
// is full. It returns the victim, if any. Installing a line that is
// already resident refreshes its LRU state and ORs in dirty.
func (c *Cache) Install(line uint64, dirty bool) (Victim, bool) {
	c.stats.Installs++
	set, pos := c.probe(line)
	base := set * c.cfg.Ways
	// Already resident (can happen when a prefetch races a demand fill).
	if pos >= 0 {
		c.touch(base, pos, dirty)
		return Victim{}, false
	}
	n := c.valid[set]
	var v Victim
	evicted := n == c.cfg.Ways
	if evicted {
		n-- // the LRU line falls off the end
		v = Victim{Line: c.tags[base+n], Dirty: c.dirty[base+n]}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	} else {
		c.valid[set]++
	}
	c.shiftDown(base, n)
	c.tags[base], c.dirty[base] = line, dirty
	return v, evicted
}

// OccupiedLines returns the number of valid lines (for capacity reports).
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, v := range c.valid {
		n += v
	}
	return n
}
