package graph

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dice/internal/compress"
)

// neighbors returns the adjacency slice of v.
func neighbors(g *CSR, v int) []uint32 { return g.Col[g.RowPtr[v]:g.RowPtr[v+1]] }

// sameCSR reports the first difference between got and the reference
// build want, or "" when N, RowPtr and Col match exactly. got's Col must
// also retain no capacity beyond its edges.
func sameCSR(got, want *CSR) string {
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(got.Col, want.Col):
		return fmt.Sprintf("Col differs (len %d, want %d)", len(got.Col), len(want.Col))
	case cap(got.Col) != len(got.Col):
		return fmt.Sprintf("Col retains cap %d for %d edges", cap(got.Col), len(got.Col))
	}
	return ""
}

// Property: the linear buildCSR matches the sort-based reference on
// random edge lists mixing self-loops, duplicate and reversed edges.
func TestQuickBuildCSRMatchesReference(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 1 + int(nRaw)%4096
		m := int(mRaw) % (4 * n)
		r := &rng{s: seed}
		src := make([]uint32, 0, m)
		dst := make([]uint32, 0, m)
		for i := 0; i < m; i++ {
			u, v := uint32(r.intn(n)), uint32(r.intn(n))
			switch j := r.intn(8); {
			case j == 0:
				v = u // self-loop
			case j == 1 && i > 0: // duplicate an earlier edge
				k := r.intn(i)
				u, v = src[k], dst[k]
			case j == 2 && i > 0: // reverse an earlier edge
				k := r.intn(i)
				u, v = dst[k], src[k]
			}
			src = append(src, u)
			dst = append(dst, v)
		}
		if d := sameCSR(buildCSR(n, src, dst), refBuildCSR(n, src, dst)); d != "" {
			t.Logf("n=%d m=%d seed=%d: %s", n, m, seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4096} {
		if d := sameCSR(buildCSR(n, nil, nil), refBuildCSR(n, nil, nil)); d != "" {
			t.Fatalf("empty edge list, n=%d: %s", n, d)
		}
	}
}

// The generators match their float-draw, sort-based references over a
// seed x scale grid, byte for byte.
func TestGeneratorsMatchReference(t *testing.T) {
	maxScale := 16
	if testing.Short() {
		maxScale = 12
	}
	for scale := 1; scale <= maxScale; scale++ {
		for ef := 1; ef <= 9; ef++ {
			seeds := []uint64{uint64(scale*10 + ef), 1 << 40}
			if scale > 12 {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				if d := sameCSR(RMAT(scale, ef, seed), refRMAT(scale, ef, seed)); d != "" {
					t.Fatalf("RMAT(%d, %d, %d): %s", scale, ef, seed, d)
				}
			}
		}
	}
	for _, n := range []int{2, 3, 255, 256, 257, 1000, 4096, 30000} {
		for _, deg := range []int{1, 2, 8} {
			for _, seed := range []uint64{uint64(n + deg), 99} {
				if d := sameCSR(Web(n, deg, seed), refWeb(n, deg, seed)); d != "" {
					t.Fatalf("Web(%d, %d, %d): %s", n, deg, seed, d)
				}
			}
		}
	}
}

// RMAT's integer thresholds split k exactly where the float draw
// k/2^53 crosses each cumulative quadrant probability.
func TestRMATThresholdsExact(t *testing.T) {
	unit := func(k uint64) float64 { return float64(k) / (1 << 53) }
	for _, c := range []struct {
		k uint64
		p float64
	}{
		{rmatTA, rmatA},
		{rmatTAB, rmatA + rmatB},
		{rmatTABC, rmatA + rmatB + rmatC},
	} {
		if !(unit(c.k-1) < c.p) || unit(c.k) < c.p {
			t.Fatalf("threshold %d does not split at p=%v", c.k, c.p)
		}
	}
}

func TestCSRWellFormed(t *testing.T) {
	for name, g := range map[string]*CSR{
		"rmat": RMAT(10, 8, 1),
		"web":  Web(1024, 8, 2),
	} {
		t.Run(name, func(t *testing.T) {
			if len(g.RowPtr) != g.N+1 {
				t.Fatalf("RowPtr length %d, want %d", len(g.RowPtr), g.N+1)
			}
			if int(g.RowPtr[g.N]) != len(g.Col) {
				t.Fatal("RowPtr does not terminate at len(Col)")
			}
			for v := 0; v < g.N; v++ {
				if g.RowPtr[v] > g.RowPtr[v+1] {
					t.Fatal("RowPtr not monotone")
				}
				nbrs := neighbors(g, v)
				for i, u := range nbrs {
					if int(u) >= g.N {
						t.Fatal("neighbor out of range")
					}
					if int(u) == v {
						t.Fatal("self loop survived")
					}
					if i > 0 && nbrs[i-1] >= u {
						t.Fatal("adjacency not sorted/deduped")
					}
				}
			}
		})
	}
}

func TestCSRSymmetric(t *testing.T) {
	g := RMAT(8, 8, 3)
	for v := 0; v < g.N; v++ {
		for _, u := range neighbors(g, v) {
			found := false
			for _, back := range neighbors(g, int(u)) {
				if int(back) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no reverse", v, u)
			}
		}
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g := RMAT(12, 8, 7)
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(g.N)
	if float64(maxDeg) < 8*avg {
		t.Fatalf("max degree %d vs avg %.1f: not heavy-tailed", maxDeg, avg)
	}
}

func TestWebLocality(t *testing.T) {
	g := Web(4096, 8, 9)
	local, total := 0, 0
	for v := 0; v < g.N; v++ {
		for _, u := range neighbors(g, v) {
			total++
			if v/256 == int(u)/256 {
				local++
			}
		}
	}
	if frac := float64(local) / float64(total); frac < 0.6 {
		t.Fatalf("local-edge fraction %.2f, want > 0.6", frac)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := RMAT(8, 4, 5), RMAT(8, 4, 5)
	if len(a.Col) != len(b.Col) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatal("nondeterministic adjacency")
		}
	}
}

func TestBadParamsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { RMAT(0, 8, 1) },
		func() { RMAT(31, 8, 1) },
		func() { RMAT(8, 0, 1) },
		func() { Web(1, 8, 1) },
		func() { Web(100, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad parameters accepted")
				}
			}()
			f()
		}()
	}
}

func TestTraceProducesRequests(t *testing.T) {
	g := RMAT(11, 8, 11)
	for _, k := range []Kernel{PageRank, ConnectedComponents, BetweennessCentrality} {
		t.Run(k.String(), func(t *testing.T) {
			w := Trace(k, g, 50000)
			reqs := w.Requests()
			if len(reqs) < 10000 {
				t.Fatalf("only %d requests traced", len(reqs))
			}
			if len(reqs) > 50000 {
				t.Fatalf("trace exceeded budget: %d", len(reqs))
			}
			writes := 0
			maxLine := w.FootprintBytes() >> 6
			for _, r := range reqs {
				if r.Line > maxLine {
					t.Fatalf("request line %d beyond footprint", r.Line)
				}
				if r.Write {
					writes++
				}
			}
			if k != ConnectedComponents && writes == 0 {
				t.Fatal("kernel performed no writes")
			}
		})
	}
}

// The request slice retains no more than the kernel recorded: the full
// budget when it fills, exactly the recorded length when it does not.
func TestTraceRetainsOnlyRecorded(t *testing.T) {
	g := RMAT(8, 4, 23)
	full := Trace(PageRank, g, 5000).Requests()
	if len(full) != 5000 || cap(full) != 5000 {
		t.Fatalf("full trace len %d cap %d, want 5000/5000", len(full), cap(full))
	}
	short := Trace(ConnectedComponents, g, 1_000_000).Requests()
	if len(short) == 0 || len(short) >= 1_000_000 || cap(short) != len(short) {
		t.Fatalf("under-budget trace len %d cap %d", len(short), cap(short))
	}
}

func TestTraceDeterministic(t *testing.T) {
	g := RMAT(8, 8, 13)
	a := Trace(PageRank, g, 20000).Requests()
	b := Trace(PageRank, g, 20000).Requests()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestWorkspaceLineServesArrayBytes(t *testing.T) {
	w := NewWorkspace(10)
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = uint32(1000 + i)
	}
	w.AddU32(vals)
	// First region starts at regionAlign; line holding vals[0..15].
	line := uint64(regionAlign) >> 6
	buf := w.Line(line)
	for i := 0; i < 16; i++ {
		got := uint32(buf[i*4]) | uint32(buf[i*4+1])<<8 | uint32(buf[i*4+2])<<16 | uint32(buf[i*4+3])<<24
		if got != vals[i] {
			t.Fatalf("element %d = %d, want %d", i, got, vals[i])
		}
	}
	// A gap line reads as zero.
	if b := w.Line(5); len(b) != 64 {
		t.Fatal("gap line must still be 64 bytes")
	}
}

func TestGraphDataIsCompressible(t *testing.T) {
	// CSR indices and labels must compress meaningfully overall — the
	// property that gives GAP its large capacity gains (Table 5).
	g := RMAT(10, 8, 17)
	w := Trace(ConnectedComponents, g, 100000)
	totalSize, lines := 0, 0
	end := w.FootprintBytes() >> 6
	for line := uint64(regionAlign >> 6); line < end; line += 37 {
		totalSize += compress.CompressedSize(w.Line(line))
		lines++
	}
	ratio := float64(lines*64) / float64(totalSize)
	if ratio < 1.5 {
		t.Fatalf("graph data compression ratio %.2f, want > 1.5", ratio)
	}
}

func TestKernelStrings(t *testing.T) {
	if PageRank.String() != "pr" || ConnectedComponents.String() != "cc" ||
		BetweennessCentrality.String() != "bc" {
		t.Fatal("kernel names wrong")
	}
	if Kernel(7).String() != "kernel(7)" {
		t.Fatal("unknown kernel name wrong")
	}
}

// Property: Workspace.Line is deterministic and always 64 bytes for
// arbitrary addresses.
func TestQuickWorkspaceLine(t *testing.T) {
	g := RMAT(8, 4, 19)
	w := Trace(PageRank, g, 5000)
	f := func(line uint64) bool {
		l := line % (w.FootprintBytes() >> 5) // include out-of-range
		a := w.Line(l)
		b := w.Line(l)
		if len(a) != 64 || len(b) != 64 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RMAT(10, 8, uint64(i))
	}
}

// BenchmarkBuildCSR builds the CSR of an RMAT edge list at the twitter
// input's size in the sweep-short workload (scale 15, edge factor 8).
func BenchmarkBuildCSR(b *testing.B) {
	src, dst := rmatEdges(15, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csrSink = buildCSR(1<<15, src, dst)
	}
}

// csrSink keeps BenchmarkBuildCSR's result live.
var csrSink *CSR

func BenchmarkTracePageRank(b *testing.B) {
	g := RMAT(10, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trace(PageRank, g, 100000)
	}
}
