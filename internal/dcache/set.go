package dcache

import (
	"dice/internal/compress"
)

// Set-content model for the flexible tag-and-data format of Figure 5.
//
// Each physical set is one 72-byte Alloy TAD frame. The memory controller
// is free to interpret any byte as tag or data, so a set holds a variable
// number of compressed lines: each tag entry occupies 4 bytes (18-bit tag,
// valid, dirty, BAI, Next-Tag-Valid, Shared-Tag flags and up to 9
// compression-metadata bits), and spatially contiguous lines compressed
// into the same set share one tag entry. Data occupies whatever the
// compression produced; a shared-base BDI pair additionally drops the
// second line's base bytes. Capacity rules exercised by the tests:
//
//	1 uncompressed line:            4 + 64           = 68 <= 72
//	2 singles, separate tags:       8 + s1 + s2     -> s1+s2 <= 64
//	2 adjacent lines, shared tag:   4 + pairSize    -> pair  <= 68
//	up to MaxLinesPerSet entries in total.
const (
	// SetBytes is the physical size of one set frame (a 72B TAD).
	SetBytes = 72
	// TagBytes is the cost of one tag entry in the flexible format.
	TagBytes = 4
	// MaxLinesPerSet caps the logical lines one set may hold (Section 4.3).
	MaxLinesPerSet = 28
	// TransferBytes is the bus transfer per Alloy access: the 72B TAD
	// plus 8B of the neighboring set's tags (Figure 2).
	TransferBytes = 80
	// KNLTransferBytes is the bus transfer in the KNL organization: a
	// 72B TAD carried on ECC lanes over four bursts, with no neighbor
	// tag visibility (Section 6.6).
	KNLTransferBytes = 72
)

// entry is one logical line resident in a set, most recently used first.
// It holds no pointers and packs into 16 bytes, so the cache's per-set
// entry arena is a noscan allocation.
type entry struct {
	line  uint64
	dirty bool
	bai   bool // stored at its BAI location (meaningful when not invariant)
	// size is the data bytes this entry currently occupies, after any
	// pair base-sharing discount (0..128). Maintained by repack.
	size uint8
	// singleP1 caches the line's single compressed size + 1 (0 = not yet
	// computed). Sizes are immutable per line, so once set, repack never
	// consults the sizer for this entry's single encoding again.
	singleP1 uint8
	// sharedTag marks the second member of an adjacent pair, which rides
	// on its buddy's tag entry.
	sharedTag bool
}

// set holds the resident lines of one physical set frame in LRU order
// (index 0 = most recent).
// entryArenaCap is the per-set entry capacity carved from the cache's
// shared arena at construction: four lines covers the typical
// compressed occupancy (two pairs per 72B TAD), so steady-state
// installs never grow the slice.
const entryArenaCap = 4

type set struct {
	entries []entry
}

// find returns the index of line in the set, or -1.
func (s *set) find(line uint64) int {
	for i := range s.entries {
		if s.entries[i].line == line {
			return i
		}
	}
	return -1
}

// touch moves entry i to the MRU position.
func (s *set) touch(i int) {
	if i == 0 {
		return
	}
	e := s.entries[i]
	copy(s.entries[1:i+1], s.entries[:i])
	s.entries[0] = e
}

// remove deletes entry i, preserving order.
func (s *set) remove(i int) entry {
	e := s.entries[i]
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	return e
}

// usage returns the physical bytes the set occupies: one 4B tag per
// non-shared entry plus all data bytes. repack must have run since the
// last mutation.
func (s *set) usage() int {
	u := 0
	for _, e := range s.entries {
		if !e.sharedTag {
			u += TagBytes
		}
		u += int(e.size)
	}
	return u
}

// sizer resolves compressed sizes for lines; implemented by the cache with
// memoization over its data source.
type sizer interface {
	singleSize(line uint64) int
	pairSize(evenLine uint64) int
}

// repack recomputes entry sizes and tag sharing after any membership
// change: buddies present together compress as a shared-tag (and possibly
// shared-base) pair; lone lines revert to their single encoding.
func (s *set) repack(sz sizer) {
	// Reset to single encodings (cached per entry after the first pass).
	for i := range s.entries {
		e := &s.entries[i]
		if e.singleP1 == 0 {
			e.singleP1 = uint8(sz.singleSize(e.line)) + 1
		}
		e.size = e.singleP1 - 1
		e.sharedTag = false
	}
	// Apply pair sharing for co-resident buddies. The even member keeps
	// the tag; the odd member shares it and the pair discount lands on it.
	for i := range s.entries {
		e := &s.entries[i]
		if e.line&1 != 0 {
			continue
		}
		j := s.find(Buddy(e.line))
		if j < 0 {
			continue
		}
		pair := sz.pairSize(e.line)
		odd := &s.entries[j]
		odd.sharedTag = true
		// Split the pair size: even keeps its single size; the odd entry
		// absorbs the remainder (which includes any shared-base saving).
		odd.size = uint8(max(pair-int(e.size), 0))
	}
}

// lineCount returns the number of resident logical lines.
func (s *set) lineCount() int { return len(s.entries) }

// evictLRU removes and returns the least recently used entry, skipping
// index `keep` when keep >= 0 (used so a just-updated line is never its
// own victim).
func (s *set) evictLRU(keep int) (entry, bool) {
	for i := len(s.entries) - 1; i >= 0; i-- {
		if i == keep {
			continue
		}
		return s.remove(i), true
	}
	return entry{}, false
}

// compressedSizeOf computes the hybrid compressed size of a data line,
// treating a nil line (unknown data) as incompressible.
func compressedSizeOf(data []byte) int {
	if data == nil {
		return compress.LineSize
	}
	return compress.CompressedSize(data)
}

// pairCompressedSizeOf computes the pair encoding size of two adjacent
// data lines; nil data is incompressible.
func pairCompressedSizeOf(even, odd []byte) int {
	if even == nil || odd == nil {
		return 2 * compress.LineSize
	}
	return compress.PairSize(even, odd)
}
