package workloads

import (
	"testing"

	"dice/internal/compress"
)

// TestSizeTablesMatchDirect checks every instance's size table against
// direct SizeWith/PairSizeWith calls on the instance's own data, for
// every algorithm, on a synthetic workload and on a GAP workload, and
// that the GAP cores reading one workspace share one table.
func TestSizeTablesMatchDirect(t *testing.T) {
	withColdCache(t)
	for _, name := range []string{"gcc", "cc_twi"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		insts := w.Build(testScale)
		for i, in := range insts {
			if in.Sizes == nil {
				t.Fatalf("%s core %d: no size table", name, i)
			}
			var a, b [compress.LineSize]byte
			step := in.FootprintLines/509 + 1
			for line := uint64(0); line < in.FootprintLines+2; line += step {
				for _, alg := range []compress.AlgID{compress.AlgNone, compress.AlgFPC, compress.AlgBDI} {
					if got, want := in.Sizes.Single(alg, line, a[:]), compress.SizeWith(alg, in.Data(line)); got != want {
						t.Fatalf("%s core %d line %d alg %v: table %d, direct %d", name, i, line, alg, got, want)
					}
					even := line &^ 1
					want := compress.PairSizeWith(alg, in.Data(even), in.Data(even|1))
					if got := in.Sizes.Pair(alg, even, a[:], b[:]); got != want {
						t.Fatalf("%s core %d pair %d alg %v: table %d, direct %d", name, i, even, alg, got, want)
					}
				}
			}
		}
		if name == "cc_twi" {
			for i := range insts {
				if insts[i].Sizes != insts[0].Sizes {
					t.Fatalf("GAP core %d has its own size table; the workspace's must be shared", i)
				}
			}
		} else if insts[0].Sizes == insts[1].Sizes {
			t.Fatal("synthetic cores with distinct data images share a size table")
		}
		if again := w.Build(testScale); again[0].Sizes != insts[0].Sizes {
			t.Fatalf("%s: a cached build must hand out the same size table", name)
		}
	}
}
