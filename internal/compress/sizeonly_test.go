package compress

import (
	"math/rand"
	"testing"

	"dice/internal/data"
)

// sizeCorpus builds a line set spanning every synthetic data kind plus
// adversarial hand-built and uniformly random lines, so the size-only
// paths are checked across the whole compressibility spectrum.
func sizeCorpus(t testing.TB) [][]byte {
	t.Helper()
	var p data.Profile
	for k := data.Kind(0); k < data.KindCount; k++ {
		p.Weights[k] = 1
	}
	p.PageCoherence = 0.9
	s := data.NewSynth(0x5EED, p)
	var lines [][]byte
	for i := 0; i < 2048; i++ {
		lines = append(lines, s.Line(uint64(i)))
	}
	// Hand-built edges: all zero, single trailing byte, repeated word,
	// near-overflow deltas, incompressible noise.
	zero := make([]byte, LineSize)
	lines = append(lines, zero)
	one := make([]byte, LineSize)
	one[LineSize-1] = 1
	lines = append(lines, one)
	rep := make([]byte, LineSize)
	for i := 0; i < LineSize; i += 8 {
		copy(rep[i:], []byte{0xEF, 0xBE, 0xAD, 0xDE, 0xEF, 0xBE, 0xAD, 0xDE})
	}
	lines = append(lines, rep)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 512; i++ {
		l := make([]byte, LineSize)
		rng.Read(l)
		lines = append(lines, l)
	}
	return lines
}

// TestSizeOnlyMatchesCodec pins the allocation-free size paths to the
// real codecs: every public size function must return exactly what
// compressing (and for pairs, pair-compressing) would report.
func TestSizeOnlyMatchesCodec(t *testing.T) {
	lines := sizeCorpus(t)
	for i, l := range lines {
		if got, want := CompressedSize(l), CompressBest(l).Size(); got != want {
			t.Fatalf("line %d: CompressedSize=%d, CompressBest().Size()=%d", i, got, want)
		}
		// Per-algorithm sizers against their codecs.
		wantFPC := LineSize
		if isZero(l) {
			wantFPC = 0
		} else if enc, ok := (FPC{}).Compress(l); ok {
			wantFPC = enc.Size()
		}
		if got := SizeWith(AlgFPC, l); got != wantFPC {
			t.Fatalf("line %d: SizeWith(FPC)=%d, codec=%d", i, got, wantFPC)
		}
		wantBDI := LineSize
		if isZero(l) {
			wantBDI = 0
		} else if enc, ok := (BDI{}).Compress(l); ok {
			wantBDI = enc.Size()
		}
		if got := SizeWith(AlgBDI, l); got != wantBDI {
			t.Fatalf("line %d: SizeWith(BDI)=%d, codec=%d", i, got, wantBDI)
		}
		if got, want := SizeWith(AlgNone, l), CompressBest(l).Size(); got != want {
			t.Fatalf("line %d: SizeWith(hybrid)=%d, codec=%d", i, got, want)
		}
	}
}

// TestPairSizeOnlyMatchesCodec checks pair sizing, including the
// shared-base path, against CompressPair across adjacent corpus lines.
func TestPairSizeOnlyMatchesCodec(t *testing.T) {
	lines := sizeCorpus(t)
	for i := 0; i+1 < len(lines); i++ {
		a, b := lines[i], lines[i+1]
		if got, want := PairSize(a, b), CompressPair(a, b).Size(); got != want {
			t.Fatalf("pair %d: PairSize=%d, CompressPair().Size()=%d", i, got, want)
		}
		if got, want := PairSize(b, a), CompressPair(b, a).Size(); got != want {
			t.Fatalf("pair %d reversed: PairSize=%d, codec=%d", i, got, want)
		}
	}
}

// TestPairSizeWithMatchesReference pins the per-algorithm pair sizers:
// FPC pairs never share data bytes; BDI pairs share a base exactly when
// re-encoding both lines with BDI alone would.
func TestPairSizeWithMatchesReference(t *testing.T) {
	lines := sizeCorpus(t)
	for i := 0; i+1 < len(lines); i++ {
		a, b := lines[i], lines[i+1]
		if got, want := PairSizeWith(AlgFPC, a, b), SizeWith(AlgFPC, a)+SizeWith(AlgFPC, b); got != want {
			t.Fatalf("pair %d: PairSizeWith(FPC)=%d, want %d", i, got, want)
		}
		// Reference BDI pair size via the codec: compress each alone,
		// then try the shared-base re-encode like CompressPair does.
		want := SizeWith(AlgBDI, a) + SizeWith(AlgBDI, b)
		if !isZero(a) {
			if encA, ok := (BDI{}).Compress(a); ok && encA.Mode != BDIRep {
				k, _ := bdiGeometry(encA.Mode)
				base := int64(readUint(encA.Payload[:k], k))
				if payload, ok := bdiTryModeWithBase(b, encA.Mode, base); ok {
					if s := encA.Size() + len(payload); s < want {
						want = s
					}
				}
			}
		}
		if got := PairSizeWith(AlgBDI, a, b); got != want {
			t.Fatalf("pair %d: PairSizeWith(BDI)=%d, want %d", i, got, want)
		}
		if got, want := PairSizeWith(AlgNone, a, b), PairSize(a, b); got != want {
			t.Fatalf("pair %d: PairSizeWith(hybrid)=%d, want %d", i, got, want)
		}
	}
}

// TestSizeChoiceMatchesCompressBest pins the selector outcome — the
// algorithm and BDI mode, which pair base-sharing depends on — to the
// codec's choice, not just the size.
func TestSizeChoiceMatchesCompressBest(t *testing.T) {
	for i, l := range sizeCorpus(t) {
		size, alg, mode := sizeChoice(l)
		enc := CompressBest(l)
		if size != enc.Size() || alg != enc.Alg {
			t.Fatalf("line %d: sizeChoice=(%d,%v), CompressBest=(%d,%v)", i, size, alg, enc.Size(), enc.Alg)
		}
		if alg == AlgBDI && mode != enc.Mode {
			t.Fatalf("line %d: sizeChoice mode=%d, CompressBest mode=%d", i, mode, enc.Mode)
		}
	}
}
