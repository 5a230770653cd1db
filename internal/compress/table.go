package compress

import "sync/atomic"

// SizeTable memoizes the exact compressed sizes of one data image: the
// single size of every line and the pair size of every even/odd buddy
// pair, per sizing algorithm. Sizes are pure functions of a line's
// bytes and an image's bytes never change, so one table serves every
// simulation of the image for as long as the image lives.
//
// A table is safe for concurrent use and its contents never depend on
// lookup order. Each algorithm's words are allocated on its first
// lookup, one uint32 per line pair (2 bytes per line). A miss computes
// the size with SizeWith/PairSizeWith and publishes it by
// compare-and-swap; concurrent fillers compute the same value, so a
// lost race changes nothing.
type SizeTable struct {
	pairs uint64 // line pairs covered: lines [0, 2*pairs)
	fill  func(line uint64, buf []byte)
	algs  [3]atomic.Pointer[[]atomic.Uint32] // hybrid, FPC, BDI
}

// Word layout: each field holds a size + 1, so 0 means "not computed".
const (
	evenShift = 0  // single size of the even line
	oddShift  = 8  // single size of the odd line
	pairShift = 16 // pair size of the two (0..128)
)

// NewSizeTable returns an empty table for the image whose lines
// [0, lines) fill writes. fill must be a pure function of the line
// and safe for concurrent use. Lines outside the range are sized
// directly on every lookup.
func NewSizeTable(lines uint64, fill func(line uint64, buf []byte)) *SizeTable {
	return &SizeTable{pairs: (lines + 1) / 2, fill: fill}
}

// words returns alg's table (allocating it on first use), or nil when
// the pair index p lies outside the table.
func (t *SizeTable) words(alg AlgID, p uint64) []atomic.Uint32 {
	if p >= t.pairs {
		return nil
	}
	slot := &t.algs[0]
	switch alg {
	case AlgFPC:
		slot = &t.algs[1]
	case AlgBDI:
		slot = &t.algs[2]
	}
	if w := slot.Load(); w != nil {
		return *w
	}
	w := make([]atomic.Uint32, t.pairs)
	if !slot.CompareAndSwap(nil, &w) {
		return *slot.Load()
	}
	return w
}

// Single returns SizeWith(alg, line's bytes). buf is caller scratch of
// LineSize bytes.
func (t *SizeTable) Single(alg AlgID, line uint64, buf []byte) int {
	shift := uint(evenShift)
	if line&1 != 0 {
		shift = oddShift
	}
	w := t.words(alg, line>>1)
	if w != nil {
		if v := w[line>>1].Load() >> shift & 0xFF; v != 0 {
			return int(v) - 1
		}
	}
	t.fill(line, buf)
	size := SizeWith(alg, buf)
	if w != nil {
		publish(&w[line>>1], shift, size)
	}
	return size
}

// Pair returns PairSizeWith(alg, ...) over the bytes of the even line
// even and its odd buddy. a and b are caller scratch of LineSize bytes
// each.
func (t *SizeTable) Pair(alg AlgID, even uint64, a, b []byte) int {
	w := t.words(alg, even>>1)
	if w != nil {
		if v := w[even>>1].Load() >> pairShift & 0xFF; v != 0 {
			return int(v) - 1
		}
	}
	t.fill(even, a)
	t.fill(even|1, b)
	size := PairSizeWith(alg, a, b)
	if w != nil {
		publish(&w[even>>1], pairShift, size)
	}
	return size
}

// publish sets one field of a word to size + 1 unless another filler
// already did; the other fields are left as they are.
func publish(w *atomic.Uint32, shift uint, size int) {
	v := uint32(size+1) << shift
	for {
		old := w.Load()
		if old>>shift&0xFF != 0 || w.CompareAndSwap(old, old|v) {
			return
		}
	}
}
