package compress

import (
	"sync"
	"testing"
)

// corpusTable returns a size table over the size corpus, one corpus
// line per table line; fill calls are counted.
func corpusTable(t testing.TB) (*SizeTable, [][]byte, *countingFill) {
	lines := sizeCorpus(t)
	f := &countingFill{lines: lines}
	return NewSizeTable(uint64(len(lines)), f.fill), lines, f
}

type countingFill struct {
	lines [][]byte
	mu    sync.Mutex
	calls int
}

// fill serves the corpus; lines past its end read as zero.
func (f *countingFill) fill(line uint64, buf []byte) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	clear(buf)
	if line < uint64(len(f.lines)) {
		copy(buf, f.lines[line])
	}
}

// line returns the bytes fill serves for line.
func (f *countingFill) line(line uint64) []byte {
	buf := make([]byte, LineSize)
	f.fill(line, buf)
	return buf
}

var tableAlgs = []AlgID{AlgNone, AlgFPC, AlgBDI} // AlgNone: the hybrid

// TestSizeTableMatchesDirect pins every table entry to the direct
// SizeWith/PairSizeWith result for each algorithm, across the whole
// compressibility corpus, on the filling pass and on the memoized one.
// The second pass must not touch the image at all.
func TestSizeTableMatchesDirect(t *testing.T) {
	tbl, lines, f := corpusTable(t)
	var a, b [LineSize]byte
	for pass := 0; pass < 2; pass++ {
		before := f.calls
		for _, alg := range tableAlgs {
			for i := range lines {
				line := uint64(i)
				if got, want := tbl.Single(alg, line, a[:]), SizeWith(alg, lines[i]); got != want {
					t.Fatalf("pass %d alg %v line %d: Single=%d, SizeWith=%d", pass, alg, i, got, want)
				}
				if line&1 == 0 {
					want := PairSizeWith(alg, lines[i], f.line(line|1))
					if got := tbl.Pair(alg, line, a[:], b[:]); got != want {
						t.Fatalf("pass %d alg %v pair %d: Pair=%d, PairSizeWith=%d", pass, alg, i, got, want)
					}
				}
			}
		}
		if pass == 1 {
			// The direct pair reference above calls fill once per pair.
			if extra := f.calls - before - (len(lines)+1)/2*len(tableAlgs); extra != 0 {
				t.Fatalf("memoized pass filled %d lines, want 0", extra)
			}
		}
	}
}

// TestSizeTableConcurrentFill races 8 goroutines filling one table, each
// walking the lines in its own order, and checks every size they saw
// and every stored entry against a serially filled table. Run it under
// -race: the table is shared mutable state on the simulation path.
func TestSizeTableConcurrentFill(t *testing.T) {
	serial, lines, _ := corpusTable(t)
	shared, _, _ := corpusTable(t)
	n := uint64(len(lines))
	const workers = 8
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			var a, b, sa, sb [LineSize]byte
			for k := uint64(0); k < n; k++ {
				line := (k*(2*w+1) + w*97) % n // a distinct permutation per worker
				for _, alg := range tableAlgs {
					if got, want := shared.Single(alg, line, a[:]), serial.Single(alg, line, sa[:]); got != want {
						errs <- "single size differs"
						return
					}
					even := line &^ 1
					if got, want := shared.Pair(alg, even, a[:], b[:]), serial.Pair(alg, even, sa[:], sb[:]); got != want {
						errs <- "pair size differs"
						return
					}
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Every word the workers published equals the serial table's word.
	for slot := range shared.algs {
		got, want := *shared.algs[slot].Load(), *serial.algs[slot].Load()
		for i := range got {
			if got[i].Load() != want[i].Load() {
				t.Fatalf("alg slot %d word %d: concurrent %#x, serial %#x", slot, i, got[i].Load(), want[i].Load())
			}
		}
	}
}

// TestSizeTableOutOfRange checks a line past the table's range is sized
// directly from the image on every lookup (nothing is stored for it),
// and that lookups allocate only the algorithm actually asked for.
func TestSizeTableOutOfRange(t *testing.T) {
	tbl, lines, f := corpusTable(t)
	var a, b [LineSize]byte
	past := uint64(len(lines)+1) &^ 1 // first even line past the table
	for i := 0; i < 3; i++ {
		before := f.calls
		if got := tbl.Single(AlgFPC, past+2, a[:]); got != 0 {
			t.Fatalf("zero line past the range sized %d", got)
		}
		if got := tbl.Pair(AlgFPC, past+2, a[:], b[:]); got != 0 {
			t.Fatalf("zero pair past the range sized %d", got)
		}
		if f.calls-before != 3 {
			t.Fatalf("lookup %d past the range filled %d lines, want 3 (direct every time)", i, f.calls-before)
		}
	}
	for slot := range tbl.algs {
		if tbl.algs[slot].Load() != nil {
			t.Fatalf("alg slot %d allocated by out-of-range lookups", slot)
		}
	}
	tbl.Single(AlgBDI, 0, a[:])
	if tbl.algs[2].Load() == nil || tbl.algs[0].Load() != nil || tbl.algs[1].Load() != nil {
		t.Fatal("a BDI lookup must allocate the BDI table and only it")
	}
	if n := len(*tbl.algs[2].Load()); n != (len(lines)+1)/2 {
		t.Fatalf("table holds %d words, want one per line pair (%d)", n, (len(lines)+1)/2)
	}
}
