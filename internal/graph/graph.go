// Package graph provides the GAP-suite substrate: CSR graphs, generators
// for twitter-like (RMAT power-law) and web-like (locality-clustered)
// topologies, and real implementations of the three kernels the paper
// evaluates — PageRank (pr), Connected Components (cc) and Betweenness
// Centrality (bc). The kernels run on actual in-memory arrays; every
// element access is recorded as a line-granular memory reference, and the
// final array bytes serve as the data image the DRAM cache compresses.
// This preserves the two properties that make GAP the paper's biggest
// winner: highly irregular high-MPKI access streams, and integer-heavy
// data (indices, labels, counts) that FPC/BDI compress well.
package graph

import "fmt"

// CSR is a graph in compressed-sparse-row form. Edges are stored once,
// symmetrized (undirected), with sorted adjacency lists — sorted
// neighbors give the small deltas BDI exploits, as real CSR builders
// produce.
type CSR struct {
	N      int      // vertices
	RowPtr []uint32 // length N+1
	Col    []uint32 // length = 2*edges (symmetrized)
}

// Edges returns the number of stored directed edges.
func (g *CSR) Edges() int { return len(g.Col) }

// Degree returns the degree of v.
func (g *CSR) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// rng is a tiny deterministic generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s++
	return splitmix64(r.s)
}

func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so callers avoid a data-dependent branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// buildCSR symmetrizes, deduplicates and sorts an edge list into CSR
// form in linear time. Self-loops are dropped. Because the graph is
// symmetric, a vertex's out-degree equals its in-degree, so one set of
// row offsets serves two stable counting passes: the first scatters
// every directed edge into the row of its destination, the second walks
// those rows in destination order and appends each destination to its
// source's row — so every row comes out sorted, with duplicates
// adjacent and dropped as they arrive. The returned Col holds exactly
// the deduplicated edges.
func buildCSR(n int, src, dst []uint32) *CSR {
	// rowPtr[v] first counts v's directed edges, then (inclusive prefix
	// sum) marks the end of v's row; the first pass decrements it back
	// to the row's start.
	rowPtr := make([]uint32, n+1)
	for i, u := range src {
		if v := dst[i]; u != v {
			rowPtr[u]++
			rowPtr[v]++
		}
	}
	for v := 1; v <= n; v++ {
		rowPtr[v] += rowPtr[v-1]
	}
	// Pass 1: byDst's row v lists the sources of the edges into v.
	byDst := make([]uint32, rowPtr[n])
	for i, u := range src {
		if v := dst[i]; u != v {
			rowPtr[v]--
			byDst[rowPtr[v]] = u
			rowPtr[u]--
			byDst[rowPtr[u]] = v
		}
	}
	// Pass 2: walk destinations in order; end[u] is the fill cursor of
	// row u in col.
	col := make([]uint32, len(byDst))
	end := make([]uint32, n)
	copy(end, rowPtr[:n])
	for v := 0; v < n; v++ {
		for _, u := range byDst[rowPtr[v]:rowPtr[v+1]] {
			if e := end[u]; e == rowPtr[u] || col[e-1] != uint32(v) {
				col[e] = uint32(v)
				end[u] = e + 1
			}
		}
	}
	// Close the gaps the dropped duplicates left, then keep exactly the
	// deduplicated edges.
	next := uint32(0)
	for v := 0; v < n; v++ {
		start := rowPtr[v]
		rowPtr[v] = next
		next += uint32(copy(col[next:], col[start:end[v]]))
	}
	rowPtr[n] = next
	g := &CSR{N: n, RowPtr: rowPtr, Col: make([]uint32, next)}
	copy(g.Col, col)
	return g
}

// rmatA, rmatB and rmatC are RMAT's upper-left, upper-right and
// lower-left quadrant probabilities; the lower-right gets the rest.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// The quadrant thresholds on k = r.next()>>11, the integer behind
// r.unit() = k/2^53: unit() < p exactly when k < float64(p)*2^53.
// Every cumulative probability lies in [0.5, 1), so its float64 value
// is a multiple of 2^-53 and each threshold is an exact integer.
const (
	rmatTA   = uint64(float64(rmatA) * (1 << 53))
	rmatTAB  = uint64(float64(rmatA+rmatB) * (1 << 53))
	rmatTABC = uint64(float64(rmatA+rmatB+rmatC) * (1 << 53))
)

// RMAT generates a power-law graph in the Graph500/RMAT style used for
// the twitter input: 2^scale vertices, edgeFactor edges per vertex, with
// the standard (0.57, 0.19, 0.19, 0.05) quadrant probabilities producing
// the heavy-tailed degree distribution of social graphs.
func RMAT(scale, edgeFactor int, seed uint64) *CSR {
	if scale < 1 || scale > 30 || edgeFactor < 1 {
		panic(fmt.Sprintf("graph: bad RMAT parameters scale=%d ef=%d", scale, edgeFactor))
	}
	src, dst := rmatEdges(scale, edgeFactor, seed)
	return buildCSR(1<<scale, src, dst)
}

// rmatEdges draws RMAT's raw edge list: 2^scale*edgeFactor edges, with
// self-loops and duplicates left for buildCSR to drop.
func rmatEdges(scale, edgeFactor int, seed uint64) (src, dst []uint32) {
	n := 1 << scale
	m := n * edgeFactor
	src = make([]uint32, m)
	dst = make([]uint32, m)
	r := &rng{s: seed}
	mask := uint64(n - 1)
	for i := 0; i < m; i++ {
		var u, v uint64
		// One draw per bit, most significant first.
		for range scale {
			k := r.next() >> 11
			// Quadrants in threshold order: none, v, u, both.
			ub := b2u(k >= rmatTAB)
			u = u<<1 | ub
			v = v<<1 | (b2u(k >= rmatTA) ^ ub ^ b2u(k >= rmatTABC))
		}
		// Hash the labels so high-degree vertices are not all at id 0.
		// The hash is not a permutation of [0, n): it hits about 63% of
		// the labels, so distinct RMAT vertices share a label (their
		// edges merge) and about 37% of the ids stay isolated
		// (DESIGN §5).
		src[i] = uint32(splitmix64(seed^u) & mask)
		dst[i] = uint32(splitmix64(seed^v) & mask)
	}
	return src, dst
}

// Web generates a web-like graph for the sk-2005-style input: vertices
// form host-sized clusters with dense local links and sparse long-range
// links, yielding the high spatial locality and long chains of web
// crawls.
func Web(n, avgDeg int, seed uint64) *CSR {
	if n < 2 || avgDeg < 1 {
		panic(fmt.Sprintf("graph: bad Web parameters n=%d deg=%d", n, avgDeg))
	}
	m := n * avgDeg / 2
	src := make([]uint32, 0, m)
	dst := make([]uint32, 0, m)
	r := &rng{s: seed}
	const cluster = 256
	for i := 0; i < m; i++ {
		u := r.intn(n)
		var v int
		if r.unit() < 0.85 {
			// Local link within the cluster.
			base := u - u%cluster
			v = base + r.intn(cluster)
			if v >= n {
				v = r.intn(n)
			}
		} else {
			v = r.intn(n)
		}
		src = append(src, uint32(u))
		dst = append(dst, uint32(v))
	}
	return buildCSR(n, src, dst)
}
