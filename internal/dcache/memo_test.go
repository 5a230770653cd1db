package dcache

import (
	"testing"

	"dice/internal/compress"
	"dice/internal/data"
	"dice/internal/dram"
)

// synthSource adapts data.Synth to a plain DataSource (Line only), which
// the cache sizes with the hybrid compressor over Line.
type synthSource struct{ s *data.Synth }

func (ss *synthSource) Line(line uint64) []byte { return ss.s.Line(line) }

// fillSource is additionally a SizeSource: it sizes lines under alg
// (AlgNone: the hybrid) through reused scratch buffers, as the
// simulator's size tables do, and counts the questions it is asked.
type fillSource struct {
	s     *data.Synth
	alg   compress.AlgID
	a, b  [compress.LineSize]byte
	calls int
}

func (fs *fillSource) Line(line uint64) []byte { return fs.s.Line(line) }

func (fs *fillSource) SingleSize(line uint64) int {
	fs.calls++
	fs.s.FillLine(line, fs.a[:])
	return compress.SizeWith(fs.alg, fs.a[:])
}

func (fs *fillSource) PairSize(evenLine uint64) int {
	fs.calls++
	fs.s.FillLine(evenLine, fs.a[:])
	fs.s.FillLine(evenLine|1, fs.b[:])
	return compress.PairSizeWith(fs.alg, fs.a[:], fs.b[:])
}

func memoTestCache(t *testing.T, src DataSource, cfg Config) *Cache {
	t.Helper()
	cfg.Sets = 1 << 8
	cfg.Mem = dram.New(dram.HBMConfig())
	cfg.Data = src
	return New(cfg)
}

// TestSizeMemoMatchesDirect pins the memoized size path to the direct
// compressor result for every line, on both the Line and FillLine data
// paths, across repeated lookups (the second pass must be all hits).
func TestSizeMemoMatchesDirect(t *testing.T) {
	synth := data.NewSynth(0xABCD, data.HighlyCompressible())
	sources := map[string]DataSource{
		"line-alloc":   &synthSource{s: synth},
		"fill-scratch": &fillSource{s: synth},
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			c := memoTestCache(t, src, Config{Policy: PolicyDICE})
			for pass := 0; pass < 2; pass++ {
				for line := uint64(0); line < 512; line++ {
					want := compress.CompressedSize(synth.Line(line))
					if got := c.singleSize(line); got != want {
						t.Fatalf("pass %d line %d: singleSize=%d, direct=%d", pass, line, got, want)
					}
					if line%2 == 0 {
						wantPair := compress.PairSize(synth.Line(line), synth.Line(line|1))
						wantPair = (wantPair + 1) &^ 1 // memo rounds odd pair sizes up to even
						if got := c.pairSize(line); got != wantPair {
							t.Fatalf("pass %d line %d: pairSize=%d, direct=%d", pass, line, got, wantPair)
						}
					}
				}
			}
			st := c.Stats()
			if st.SizeMemoMisses != 512+256 {
				t.Fatalf("SizeMemoMisses=%d, want %d (one per distinct single + pair)", st.SizeMemoMisses, 512+256)
			}
			if st.SizeMemoHits != 512+256 {
				t.Fatalf("SizeMemoHits=%d, want %d (the whole second pass)", st.SizeMemoHits, 512+256)
			}
		})
	}
}

// TestSizeMemoMatchesDirectPerAlgorithm covers sources sizing under the
// FPC-only and BDI-only ablation algorithms: the memoized sizes must
// match direct SizeWith/PairSizeWith calls, and the source must be asked
// once per distinct single and pair — never again from the memo.
func TestSizeMemoMatchesDirectPerAlgorithm(t *testing.T) {
	for _, alg := range []compress.AlgID{compress.AlgFPC, compress.AlgBDI} {
		synth := data.NewSynth(0x600D, data.HighlyCompressible())
		src := &fillSource{s: synth, alg: alg}
		c := memoTestCache(t, src, Config{Policy: PolicyDICE})
		for pass := 0; pass < 2; pass++ {
			for line := uint64(0); line < 256; line++ {
				if got, want := c.singleSize(line), compress.SizeWith(alg, synth.Line(line)); got != want {
					t.Fatalf("alg %v line %d: singleSize=%d, direct=%d", alg, line, got, want)
				}
				if line%2 == 0 {
					want := (compress.PairSizeWith(alg, synth.Line(line), synth.Line(line|1)) + 1) &^ 1
					if got := c.pairSize(line); got != want {
						t.Fatalf("alg %v line %d: pairSize=%d, direct=%d", alg, line, got, want)
					}
				}
			}
		}
		if src.calls != 256+128 {
			t.Fatalf("alg %v: source asked %d times, want %d (once per single and pair)", alg, src.calls, 256+128)
		}
	}
}

// TestSizeMemoSparseAddresses exercises the overflow level of the
// two-level memo table: line addresses far beyond the dense page range
// must memoize correctly too.
func TestSizeMemoSparseAddresses(t *testing.T) {
	synth := data.NewSynth(0xFEED, data.HighlyCompressible())
	c := memoTestCache(t, &fillSource{s: synth}, Config{Policy: PolicyDICE})
	sparse := []uint64{
		memoMaxDensePages << memoLineShift,
		(memoMaxDensePages << memoLineShift) * 7,
		1 << 40, 1<<40 | 1, 1 << 62,
	}
	for pass := 0; pass < 2; pass++ {
		for _, line := range sparse {
			if got, want := c.singleSize(line), compress.CompressedSize(synth.Line(line)); got != want {
				t.Fatalf("pass %d sparse line %#x: singleSize=%d, direct=%d", pass, line, got, want)
			}
		}
	}
	if st := c.Stats(); st.SizeMemoHits != uint64(len(sparse)) {
		t.Fatalf("SizeMemoHits=%d, want %d (overflow cells must memoize)", st.SizeMemoHits, len(sparse))
	}
}

// nilOddSource serves real data for even lines but reports odd lines
// unknown, modelling a pair whose second member falls outside the data
// image at an end-of-set boundary.
type nilOddSource struct{ s *data.Synth }

func (n *nilOddSource) Line(line uint64) []byte {
	if line&1 == 1 {
		return nil
	}
	return n.s.Line(line)
}

// TestPairSizeNilOddBoundary pins the end-of-set boundary behavior: a
// pair whose odd member has no data is incompressible (128B, rounding
// to 2*LineSize), matching pairCompressedSizeOf's nil contract, and the
// even member still sizes alone.
func TestPairSizeNilOddBoundary(t *testing.T) {
	synth := data.NewSynth(0xB00, data.HighlyCompressible())
	c := memoTestCache(t, &nilOddSource{s: synth}, Config{Policy: PolicyDICE})
	for line := uint64(0); line < 64; line += 2 {
		if got := c.pairSize(line); got != 128 {
			t.Fatalf("line %d: pairSize with nil odd member = %d, want 128", line, got)
		}
		if got, want := c.singleSize(line), compress.CompressedSize(synth.Line(line)); got != want {
			t.Fatalf("line %d: even member singleSize=%d, want %d", line, got, want)
		}
		if got := c.singleSize(line | 1); got != 64 {
			t.Fatalf("line %d: nil odd member singleSize=%d, want 64", line|1, got)
		}
	}
}

// oddPairSource reports a 33B single size and an odd 67B pair size for
// every line.
type oddPairSource struct{ *synthSource }

func (oddPairSource) SingleSize(uint64) int { return 33 }
func (oddPairSource) PairSize(uint64) int   { return 67 }

// TestPairSizeOddRoundsUp pins the memo's storage quirk: odd pair sizes
// (possible only from a SizeSource, never from the compressors) round up
// to the next even byte count — the memo packs pair sizes /2 into a byte
// — and the rounded value is what every caller observes, first
// computation included.
func TestPairSizeOddRoundsUp(t *testing.T) {
	synth := data.NewSynth(0x0DD, data.HighlyCompressible())
	c := memoTestCache(t, oddPairSource{&synthSource{s: synth}}, Config{Policy: PolicyDICE})
	if got := c.pairSize(0); got != 68 {
		t.Fatalf("first pairSize(0)=%d, want 68 (67 rounded up)", got)
	}
	if got := c.pairSize(0); got != 68 {
		t.Fatalf("memoized pairSize(0)=%d, want 68", got)
	}
}

// sizeOnlySource is a SizeSource whose bytes the cache must never read.
type sizeOnlySource struct{ fillSource }

func (*sizeOnlySource) Line(uint64) []byte { panic("Line called on a SizeSource outside verify mode") }

// TestSizeSourceIsTheOnlySizer drives a DICE cache over a SizeSource
// whose Line panics: every size the cache needs — install decisions,
// repacks, pair sharing — must come from the source, and each memo miss
// is exactly one question to it.
func TestSizeSourceIsTheOnlySizer(t *testing.T) {
	src := &sizeOnlySource{fillSource{s: data.NewSynth(0x51CE, data.HighlyCompressible())}}
	c := memoTestCache(t, src, Config{Policy: PolicyDICE})
	now := uint64(0)
	for i := uint64(0); i < 4000; i++ {
		line := (i * 0x9E3779B1) % 2048
		r := c.Read(now, line)
		now = r.Done
		if !r.Hit {
			now = c.Install(now, line, i%5 == 0).Done
		}
	}
	st := c.Stats()
	if st.SizeMemoMisses == 0 || st.SizeMemoHits == 0 {
		t.Fatalf("memo idle: %d hits, %d misses", st.SizeMemoHits, st.SizeMemoMisses)
	}
	if uint64(src.calls) != st.SizeMemoMisses {
		t.Fatalf("source asked %d times for %d memo misses", src.calls, st.SizeMemoMisses)
	}
}
