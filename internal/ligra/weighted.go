package ligra

import (
	"sync/atomic"

	"repro/internal/parallel"
)

// WeightedGraph is the optional weighted-traversal capability: engines
// whose adjacency carries per-edge weights (aspen.WeightedGraph's
// compressed float32 payload) expose them to the algorithm layer through
// ForEachNeighborKV, and weighted algorithms (SSSP and friends) run over
// WeightedEdgeMap exactly as their unweighted counterparts run over
// EdgeMap.
type WeightedGraph interface {
	Graph
	// ForEachNeighborKV applies f to u's (neighbor, weight) pairs in
	// increasing neighbor order until f returns false.
	ForEachNeighborKV(u uint32, f func(v uint32, w float32) bool)
}

// FlatWeightedGraph is the weighted flat-snapshot capability
// (aspen.FlatWeightedSnapshot): a dense id-indexed degree array over a
// weighted adjacency, giving WeightedEdgeMap the same O(1) degree access
// and exact work-based scheduling as FlatGraph gives EdgeMap.
type FlatWeightedGraph interface {
	WeightedGraph
	// Degrees returns the id-indexed degree array, length Order(). Callers
	// must treat it as read-only.
	Degrees() []int32
}

// WeightedEdgeMap applies F over weighted edges (u, v, w) with u in subset
// U and C(v) true, and returns the subset of targets v for which F returned
// true. The contract mirrors EdgeMap (§2): F must be safe for concurrent
// calls and should claim each target atomically if it must fire once per
// vertex. Direction optimization (§5.1) picks a dense, in-neighbor oriented
// traversal when the frontier is large; weights are symmetric on the
// symmetrized inputs this repository uses, so the pulled weight equals the
// pushed one.
func WeightedEdgeMap(g WeightedGraph, u VertexSubset, f func(src, dst uint32, w float32) bool, c func(v uint32) bool, opts EdgeMapOpts) VertexSubset {
	if u.IsEmpty() {
		return Empty(u.n)
	}
	div := opts.DenseThresholdDiv
	if div == 0 {
		div = 20
	}
	if !opts.NoDense {
		sp := u.ToSparse()
		outDeg := degreeSum(g, sp.sparse)
		if uint64(u.Size())+outDeg > g.NumEdges()/div {
			return weightedEdgeMapDense(g, u, f, c)
		}
		u = sp
	}
	return weightedEdgeMapSparse(g, u.ToSparse(), f, c)
}

// weightedEdgeMapSparse maps over the out-edges of the frontier, collecting
// targets. On a FlatWeightedGraph the frontier is partitioned by exact
// degree prefix sums (see frontierBlocks).
func weightedEdgeMapSparse(g WeightedGraph, u VertexSubset, f func(src, dst uint32, w float32) bool, c func(v uint32) bool) VertexSubset {
	var degs []int32
	if fg, ok := g.(FlatWeightedGraph); ok {
		degs = fg.Degrees()
	}
	src := u.sparse
	bounds := frontierBlocks(degs, src, parallel.Procs*4)
	nb := len(bounds) - 1
	if nb <= 0 {
		return Empty(u.n)
	}
	buffers := make([][]uint32, nb)
	parallel.ForGrain(nb, 1, func(b int) {
		lo, hi := bounds[b], bounds[b+1]
		if lo >= hi {
			return
		}
		var buf []uint32
		for _, s := range src[lo:hi] {
			g.ForEachNeighborKV(s, func(v uint32, w float32) bool {
				if c(v) && f(s, v, w) {
					buf = append(buf, v)
				}
				return true
			})
		}
		buffers[b] = buf
	})
	total := 0
	for _, b := range buffers {
		total += len(b)
	}
	out := make([]uint32, 0, total)
	for _, b := range buffers {
		out = append(out, b...)
	}
	return FromSparse(u.n, out)
}

// weightedEdgeMapDense scans all vertices v with C(v) true and pulls from
// their in-neighbors (== neighbors on symmetric graphs), stopping early
// once C(v) turns false.
func weightedEdgeMapDense(g WeightedGraph, u VertexSubset, f func(src, dst uint32, w float32) bool, c func(v uint32) bool) VertexSubset {
	ud := u.ToDense()
	var degs []int32
	if fg, ok := g.(FlatWeightedGraph); ok {
		degs = fg.Degrees()
	}
	out := make([]bool, ud.n)
	var count atomic.Int64
	parallel.ForGrain(ud.n, denseGrain(g, degs), func(i int) {
		if degs != nil && i < len(degs) && degs[i] == 0 {
			return
		}
		v := uint32(i)
		if !c(v) {
			return
		}
		g.ForEachNeighborKV(v, func(s uint32, w float32) bool {
			if ud.dense[s] && f(s, v, w) {
				if !out[v] {
					out[v] = true
					count.Add(1)
				}
			}
			return c(v)
		})
	})
	return FromDense(out, int(count.Load()))
}
