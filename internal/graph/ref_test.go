package graph

import (
	"fmt"
	"sort"
)

// The reference builders: the original sort.Slice CSR construction and
// the float-draw generators, kept verbatim as the oracle the linear
// builders in graph.go are checked against (graph_test.go).

// refBuildCSR symmetrizes, deduplicates and sorts an edge list into CSR form.
func refBuildCSR(n int, src, dst []uint32) *CSR {
	type edge struct{ u, v uint32 }
	edges := make([]edge, 0, 2*len(src))
	for i := range src {
		u, v := src[i], dst[i]
		if u == v {
			continue
		}
		edges = append(edges, edge{u, v}, edge{v, u})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	// Deduplicate.
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	g := &CSR{N: n, RowPtr: make([]uint32, n+1), Col: make([]uint32, len(out))}
	for i, e := range out {
		g.Col[i] = e.v
		g.RowPtr[e.u+1]++
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	return g
}

// refRMAT generates a power-law graph in the Graph500/RMAT style used for
// the twitter input: 2^scale vertices, edgeFactor edges per vertex, with
// the standard (0.57, 0.19, 0.19, 0.05) quadrant probabilities producing
// the heavy-tailed degree distribution of social graphs.
func refRMAT(scale, edgeFactor int, seed uint64) *CSR {
	if scale < 1 || scale > 30 || edgeFactor < 1 {
		panic(fmt.Sprintf("graph: bad RMAT parameters scale=%d ef=%d", scale, edgeFactor))
	}
	n := 1 << scale
	m := n * edgeFactor
	src := make([]uint32, m)
	dst := make([]uint32, m)
	r := &rng{s: seed}
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.unit()
			switch {
			case p < a:
				// upper-left: neither bit set
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		// Permute vertex labels so high-degree vertices are not all at
		// id 0 (standard Graph500 practice keeps locality realistic).
		src[i] = uint32(splitmix64(seed^uint64(u)) % uint64(n))
		dst[i] = uint32(splitmix64(seed^uint64(v)) % uint64(n))
	}
	return refBuildCSR(n, src, dst)
}

// refWeb generates a web-like graph for the sk-2005-style input: vertices
// form host-sized clusters with dense local links and sparse long-range
// links, yielding the high spatial locality and long chains of web
// crawls.
func refWeb(n, avgDeg int, seed uint64) *CSR {
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
	return refBuildCSR(n, src, dst)
}
