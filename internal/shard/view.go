package shard

import (
	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/parallel"
)

// View is the cross-shard tree snapshot: one pinned per-shard graph per
// entry of the version vector, served through the ligra traversal
// interfaces by dispatching every vertex access to the shard that owns it.
// Because ownership is by source vertex over the full id space, Degree and
// ForEachNeighbor answer exactly as the equivalent single-engine snapshot
// would: the owner holds u's complete adjacency and every other shard
// holds u with no out-edges (or not at all). A View is valid only while
// the transaction that produced it is open.
type View[G ligra.Graph] struct {
	part  Partitioner
	gs    []G
	order int
	m     uint64
}

// Order returns the vertex-id space size: the maximum over the pinned
// shard snapshots (destination ride-along vertices make every id reachable
// on some shard, so this equals the unsharded Order).
func (v *View[G]) Order() int { return v.order }

// NumEdges returns the directed edge count, summed over shards in O(S).
func (v *View[G]) NumEdges() uint64 { return v.m }

// Degree returns u's degree from its owning shard. O(log n_s).
func (v *View[G]) Degree(u uint32) int { return v.gs[v.part.Owner(u)].Degree(u) }

// ForEachNeighbor applies f to u's neighbors in increasing order until f
// returns false, reading the owning shard's edge tree.
func (v *View[G]) ForEachNeighbor(u uint32, f func(w uint32) bool) {
	v.gs[v.part.Owner(u)].ForEachNeighbor(u, f)
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// when the shard snapshot supports it (aspen graphs do).
func (v *View[G]) ForEachNeighborPar(u uint32, f func(w uint32)) {
	g := v.gs[v.part.Owner(u)]
	if pg, ok := any(g).(ligra.ParallelNeighborGraph); ok {
		pg.ForEachNeighborPar(u, f)
		return
	}
	g.ForEachNeighbor(u, func(w uint32) bool { f(w); return true })
}

// WeightedView adapts the weighted cluster's tree view to
// ligra.WeightedGraph, so SSSP and friends run on sharded snapshots
// unmodified.
type WeightedView struct {
	*View[aspen.WeightedGraph]
}

// ForEachNeighborKV applies f to u's (neighbor, weight) pairs in increasing
// neighbor order until f returns false.
func (v WeightedView) ForEachNeighborKV(u uint32, f func(w uint32, wt float32) bool) {
	v.gs[v.part.Owner(u)].ForEachNeighborKV(u, f)
}

// FlatView is the stitched §5.1 flat snapshot of a version vector: each
// shard's per-version flat view (built and cached by its engine) plus one
// global id-indexed degree array assembled from the per-shard degree
// arrays — contiguous copies under a RangePartitioner, an ownership
// scatter otherwise. The stitched array is what ligra's FlatGraph routing
// consumes: O(1) degree access and exact work-based frontier partitioning
// on degree prefix sums, now spanning all shards. Neighbor iteration
// dispatches to the owning shard's flat view in O(1).
type FlatView struct {
	part  Partitioner
	views []ligra.Graph
	degs  []int32
	order int
	m     uint64
}

// Order returns the vertex-id space size.
func (f *FlatView) Order() int { return f.order }

// NumEdges returns the directed edge count over all shards.
func (f *FlatView) NumEdges() uint64 { return f.m }

// Degree returns u's degree in O(1) from the stitched array. Total:
// out-of-range ids have degree 0.
func (f *FlatView) Degree(u uint32) int {
	if int(u) >= f.order {
		return 0
	}
	return int(f.degs[u])
}

// Degrees exposes the stitched id-indexed degree array — the
// ligra.FlatGraph capability. Callers must treat it as read-only.
func (f *FlatView) Degrees() []int32 { return f.degs }

// ForEachNeighbor applies fn to u's neighbors in increasing order until fn
// returns false, via the owning shard's flat view.
func (f *FlatView) ForEachNeighbor(u uint32, fn func(w uint32) bool) {
	f.views[f.part.Owner(u)].ForEachNeighbor(u, fn)
}

// ForEachNeighborPar applies fn with edge-tree parallelism when the
// owning shard's view supports it.
func (f *FlatView) ForEachNeighborPar(u uint32, fn func(w uint32)) {
	v := f.views[f.part.Owner(u)]
	if pg, ok := v.(ligra.ParallelNeighborGraph); ok {
		pg.ForEachNeighborPar(u, fn)
		return
	}
	v.ForEachNeighbor(u, func(w uint32) bool { fn(w); return true })
}

// FlatWeightedView is the stitched flat view of a weighted cluster; it
// additionally satisfies ligra.WeightedGraph (and so
// ligra.FlatWeightedGraph), giving weighted kernels the stitched degree
// array too.
type FlatWeightedView struct {
	*FlatView
}

// ForEachNeighborKV applies fn to u's (neighbor, weight) pairs in
// increasing neighbor order until fn returns false.
func (f FlatWeightedView) ForEachNeighborKV(u uint32, fn func(w uint32, wt float32) bool) {
	if wg, ok := f.views[f.part.Owner(u)].(ligra.WeightedGraph); ok {
		wg.ForEachNeighborKV(u, fn)
	}
}

// stitchFlat assembles the global flat view from per-shard views. O(n)
// work: the stitched degree array is filled by contiguous copies of each
// shard's owned range (RangePartitioner) or a parallel ownership scatter
// (any other partitioner); ids a shard never saw keep degree 0, matching
// the unsharded flat view's totality. Returns a FlatWeightedView when
// every shard view carries weights.
func stitchFlat(part Partitioner, views []ligra.Graph) ligra.Graph {
	order := 0
	var m uint64
	for _, v := range views {
		if o := v.Order(); o > order {
			order = o
		}
		m += v.NumEdges()
	}
	degs := make([]int32, order)
	// Per-shard dense degree arrays, nil when a shard has no flat view
	// (engine flatten disabled): those fall back to Degree calls.
	sdegs := make([][]int32, len(views))
	for s, v := range views {
		if fg, ok := v.(ligra.FlatGraph); ok {
			sdegs[s] = fg.Degrees()
		}
	}
	if rp, ok := part.(RangePartitioner); ok {
		for s, v := range views {
			lo, hi := rp.Range(s)
			if lo >= uint64(order) {
				continue
			}
			if hi > uint64(order) {
				hi = uint64(order)
			}
			if sd := sdegs[s]; sd != nil {
				end := hi
				if end > uint64(len(sd)) {
					end = uint64(len(sd))
				}
				if lo < end {
					copy(degs[lo:end], sd[lo:end])
				}
				continue
			}
			for u := lo; u < hi; u++ {
				degs[u] = int32(v.Degree(uint32(u)))
			}
		}
	} else {
		parallel.ForGrain(order, 1024, func(u int) {
			s := part.Owner(uint32(u))
			if sd := sdegs[s]; sd != nil {
				if u < len(sd) {
					degs[u] = sd[u]
				}
				return
			}
			degs[u] = int32(views[s].Degree(uint32(u)))
		})
	}
	fv := &FlatView{part: part, views: views, degs: degs, order: order, m: m}
	return wrapWeighted(fv, views)
}

// StitchViews assembles the global flat view from per-shard views under
// part's ownership — the same stitch the in-process Tx.Flat performs,
// exported so a remote cluster client can stitch views it fetched over
// the wire. Views must answer as complete per-shard snapshots (Order,
// NumEdges, Degree, ForEachNeighbor over owned vertices); the result is
// a FlatWeightedView when every view satisfies ligra.WeightedGraph.
func StitchViews(part Partitioner, views []ligra.Graph) ligra.Graph {
	return stitchFlat(part, views)
}

// wrapWeighted returns the view as FlatWeightedView when every shard view
// carries weights, else as-is.
func wrapWeighted(fv *FlatView, views []ligra.Graph) ligra.Graph {
	for _, v := range views {
		if _, ok := v.(ligra.WeightedGraph); !ok {
			return fv
		}
	}
	return FlatWeightedView{fv}
}

// flatViewOf unwraps the stitched FlatView behind either wrapper.
func flatViewOf(g ligra.Graph) *FlatView {
	switch v := g.(type) {
	case *FlatView:
		return v
	case FlatWeightedView:
		return v.FlatView
	}
	return nil
}

// deltaStitch assembles the flat view of a version vector out of a
// previously stitched base: every shard whose vector component did not move
// keeps its per-shard view verbatim (pointer identity — its version is
// unchanged, so its flat view is too), and only moved shards fetch fresh
// views and refill their slice of the degree array. The base degree array
// is copied wholesale (a memmove) before the refill, so the cost is
// O(n copy + moved-shard ranges) instead of the full O(n) degree gather
// with per-shard dispatch — and, more importantly, unmoved shards' engines
// are never asked for their views at all. The base is never mutated.
// Returns nil when the delta brings no advantage (no unmoved shard, or the
// base is not a stitched flat view), signaling the caller to stitch fully.
func deltaStitch(part Partitioner, base ligra.Graph, baseStamps, stamps []uint64, fetch func(s int) ligra.Graph) ligra.Graph {
	bv := flatViewOf(base)
	if bv == nil || len(bv.views) != len(stamps) || len(baseStamps) != len(stamps) {
		return nil
	}
	moved := make([]bool, len(stamps))
	anyKept := false
	for s := range stamps {
		moved[s] = stamps[s] != baseStamps[s]
		anyKept = anyKept || !moved[s]
	}
	if !anyKept {
		return nil
	}
	views := make([]ligra.Graph, len(stamps))
	order := 0
	var m uint64
	for s := range views {
		if moved[s] {
			views[s] = fetch(s)
		} else {
			views[s] = bv.views[s]
		}
		if o := views[s].Order(); o > order {
			order = o
		}
		m += views[s].NumEdges()
	}
	degs := make([]int32, order)
	copy(degs, bv.degs) // ids beyond the base order stay 0 until refilled
	if rp, ok := part.(RangePartitioner); ok {
		for s, v := range views {
			if !moved[s] {
				continue
			}
			lo, hi := rp.Range(s)
			if lo >= uint64(order) {
				continue
			}
			if hi > uint64(order) {
				hi = uint64(order)
			}
			var sd []int32
			if fg, ok := v.(ligra.FlatGraph); ok {
				sd = fg.Degrees()
			}
			if sd != nil {
				end := hi
				if end > uint64(len(sd)) {
					end = uint64(len(sd))
				}
				if lo < end {
					copy(degs[lo:end], sd[lo:end])
				}
				// The shard may have shrunk (or the base order may exceed
				// the new per-shard array): the copied base values past the
				// new array are stale, zero them.
				for u := end; u < hi; u++ {
					degs[u] = 0
				}
				continue
			}
			for u := lo; u < hi; u++ {
				degs[u] = int32(v.Degree(uint32(u)))
			}
		}
	} else {
		// Arbitrary ownership: one O(n) pass testing the owner against the
		// moved set — still far cheaper than the full gather, which
		// dispatches a Degree read (or array index) per id on every shard.
		sdegs := make([][]int32, len(views))
		for s, v := range views {
			if fg, ok := v.(ligra.FlatGraph); ok {
				sdegs[s] = fg.Degrees()
			}
		}
		parallel.ForGrain(order, 1024, func(u int) {
			s := part.Owner(uint32(u))
			if !moved[s] {
				return
			}
			if sd := sdegs[s]; sd != nil {
				if u < len(sd) {
					degs[u] = sd[u]
				} else {
					degs[u] = 0
				}
				return
			}
			degs[u] = int32(views[s].Degree(uint32(u)))
		})
	}
	fv := &FlatView{part: part, views: views, degs: degs, order: order, m: m}
	return wrapWeighted(fv, views)
}
