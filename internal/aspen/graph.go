// Package aspen implements the Aspen graph-streaming framework (paper §5–§6):
// an undirected graph represented as a purely-functional vertex-tree whose
// values are C-trees of neighbor ids (a tree of compressed trees, Figure 4),
// with lightweight snapshots, functional batch updates, flat snapshots for
// global algorithms, and a single-writer / multi-reader versioned graph that
// provides strictly serializable concurrent updates and queries.
//
// The graph is generic over a fixed-width edge payload V riding the same
// compressed chunks (ctree.Tree[V]): Graph is the paper's id-only
// instantiation (V = struct{}, zero payload bytes) and WeightedGraph the
// float32-weighted one — the weighted edges §6 leaves to future work.
//
// All graph methods are read-only or functional: updates return a new graph
// that shares almost all structure with the old one, so existing snapshots
// are never disturbed. Use Versioned to coordinate a writer with concurrent
// readers.
package aspen

import (
	"reflect"
	"sync"
	"unsafe"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/pftree"
)

// EdgeOf is a directed edge update carrying a payload of type V. Undirected
// graphs insert both directions (MakeUndirected does this). The payload
// comes first: Go pads a trailing zero-size field to a full word, which
// would grow the id-only Edge from 8 to 12 bytes.
type EdgeOf[V ctree.Value] struct {
	Val      V
	Src, Dst uint32
}

// Edge is the id-only edge update.
type Edge = EdgeOf[struct{}]

// WeightedEdge is the float32-weighted edge update.
type WeightedEdge = EdgeOf[float32]

// GraphOf is an immutable snapshot of a graph whose edges carry payloads of
// type V. The zero value uses unusable parameters; construct with
// NewGraphOf (or NewGraph, FromAdjacency).
type GraphOf[V ctree.Value] struct {
	c  *graphCfg[V]
	vt *vnode[V]
}

// Graph is the id-only graph — the paper's original structure.
type Graph = GraphOf[struct{}]

// WeightedGraph is the float32-weighted graph. Edge trees are C-trees over
// a float32 payload: neighbor ids are difference-encoded exactly as in the
// unweighted graph, with each id's weight stored as four fixed bytes
// interleaved into the chunk, so weighted workloads keep the space and
// locality wins of the compressed format. It satisfies ligra.WeightedGraph.
type WeightedGraph = GraphOf[float32]

// graphCfg bundles what every graph of one (payload type, Params) class
// shares: the edge-tree parameters and the vertex-tree operation table.
// Configs are interned, so a graph value is two words and resolves its
// table once, at construction, instead of on every access.
type graphCfg[V ctree.Value] struct {
	p   ctree.Params
	ops *vopsT[V]
}

// cfgKey keys the intern table by payload type and parameters.
type cfgKey struct {
	t reflect.Type
	p ctree.Params
}

var cfgCache sync.Map // cfgKey -> *graphCfg[V]

func cfgFor[V ctree.Value](p ctree.Params) *graphCfg[V] {
	key := cfgKey{t: reflect.TypeFor[V](), p: p}
	if c, ok := cfgCache.Load(key); ok {
		return c.(*graphCfg[V])
	}
	c, _ := cfgCache.LoadOrStore(key, &graphCfg[V]{p: p, ops: newVops[V]()})
	return c.(*graphCfg[V])
}

// NewGraphOf returns an empty graph with payload type V whose edge trees
// use params p.
func NewGraphOf[V ctree.Value](p ctree.Params) GraphOf[V] {
	return GraphOf[V]{c: cfgFor[V](p)}
}

// NewGraph returns an empty id-only graph whose edge trees use params p.
func NewGraph(p ctree.Params) Graph { return NewGraphOf[struct{}](p) }

// FromAdjacency builds an id-only graph from adjacency lists: adj[u] lists
// the neighbors of vertex u (they will be sorted and deduplicated). Every
// index of adj becomes a vertex, including isolated ones.
func FromAdjacency(p ctree.Params, adj [][]uint32) Graph {
	c := cfgFor[struct{}](p)
	entries := make([]pftree.Entry[uint32, ctree.Set], len(adj))
	parallel.ForGrain(len(adj), 64, func(u int) {
		nbrs := append([]uint32(nil), adj[u]...)
		parallel.SortUint32(nbrs)
		nbrs = parallel.DedupSortedUint32(nbrs)
		entries[u] = pftree.Entry[uint32, ctree.Set]{Key: uint32(u), Val: ctree.Build(p, nbrs)}
	})
	return Graph{c: c, vt: c.ops.BuildSorted(entries)}
}

// cfg returns the graph's interned config, resolving the zero-Params one
// for zero-value graphs that never went through a constructor.
func (g GraphOf[V]) cfg() *graphCfg[V] {
	if g.c != nil {
		return g.c
	}
	return cfgFor[V](ctree.Params{})
}

// ops returns the vertex-tree operation table.
func (g GraphOf[V]) ops() *vopsT[V] { return g.cfg().ops }

// with returns a graph of g's class rooted at vt.
func (g GraphOf[V]) with(vt *vnode[V]) GraphOf[V] { return GraphOf[V]{c: g.cfg(), vt: vt} }

// Params returns the edge-tree parameters of g.
func (g GraphOf[V]) Params() ctree.Params { return g.cfg().p }

// NumVertices returns the number of vertices, in O(1).
func (g GraphOf[V]) NumVertices() int { return g.vt.Size() }

// NumEdges returns the number of directed edges, in O(1) via the vertex-tree
// augmentation.
func (g GraphOf[V]) NumEdges() uint64 { return g.ops().AugOf(g.vt) }

// Order returns the size of the vertex-id space (max id + 1); algorithm
// state arrays are indexed by vertex id.
func (g GraphOf[V]) Order() int {
	last := g.ops().Last(g.vt)
	if last == nil {
		return 0
	}
	return int(last.Key()) + 1
}

// HasVertex reports whether u is a vertex of g.
func (g GraphOf[V]) HasVertex(u uint32) bool {
	_, ok := g.ops().Find(g.vt, u)
	return ok
}

// EdgeTree returns u's edge C-tree. O(log n).
func (g GraphOf[V]) EdgeTree(u uint32) (ctree.Tree[V], bool) {
	return g.ops().Find(g.vt, u)
}

// Degree returns the degree of u (0 for absent vertices). O(log n).
func (g GraphOf[V]) Degree(u uint32) int {
	et, ok := g.ops().Find(g.vt, u)
	if !ok {
		return 0
	}
	return int(et.Size())
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g GraphOf[V]) HasEdge(u, v uint32) bool {
	et, ok := g.ops().Find(g.vt, u)
	return ok && et.Contains(v)
}

// Value returns the payload of edge (u, v) — its weight, on a
// WeightedGraph.
func (g GraphOf[V]) Value(u, v uint32) (V, bool) {
	et, ok := g.ops().Find(g.vt, u)
	if !ok {
		var zero V
		return zero, false
	}
	return et.Find(v)
}

// ForEachNeighbor applies f to u's neighbors in increasing order until f
// returns false.
func (g GraphOf[V]) ForEachNeighbor(u uint32, f func(v uint32) bool) {
	if et, ok := g.ops().Find(g.vt, u); ok {
		et.ForEach(f)
	}
}

// ForEachNeighborKV applies f to u's (neighbor, payload) pairs in
// increasing neighbor order until f returns false. On a WeightedGraph this
// is the ligra.WeightedGraph capability.
func (g GraphOf[V]) ForEachNeighborKV(u uint32, f func(v uint32, val V) bool) {
	if et, ok := g.ops().Find(g.vt, u); ok {
		et.ForEachKV(f)
	}
}

// ForEachNeighborPar applies f to u's neighbors with edge-tree parallelism
// (unordered). Tree-structured adjacency makes intra-vertex parallelism
// possible — the capability §7.5 credits for Aspen's fast traversals of
// high-degree vertices.
func (g GraphOf[V]) ForEachNeighborPar(u uint32, f func(v uint32)) {
	if et, ok := g.ops().Find(g.vt, u); ok {
		et.ForEachPar(f)
	}
}

// ForEachVertex applies f to every (vertex, edge-tree) pair in id order
// until f returns false.
func (g GraphOf[V]) ForEachVertex(f func(u uint32, et ctree.Tree[V]) bool) {
	g.ops().ForEach(g.vt, f)
}

// ForEachVertexPar applies f to every vertex in parallel.
func (g GraphOf[V]) ForEachVertexPar(f func(u uint32, et ctree.Tree[V])) {
	g.ops().ForEachPar(g.vt, f)
}

// edgeKeys packs a batch into (src<<32 | dst) keys, radix-sorted and
// deduplicated: O(k) work per populated key byte.
func edgeKeys[V ctree.Value](edges []EdgeOf[V]) []uint64 {
	packed := make([]uint64, len(edges))
	parallel.For(len(edges), func(i int) {
		packed[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
	})
	parallel.RadixSortUint64(packed)
	return parallel.DedupSortedUint64(packed)
}

// sortEdgeBatch packs, stably sorts and dedupes a batch with its payloads;
// for duplicate (src, dst) pairs the last payload in batch order wins.
// Id-only batches take the keys-only sort and carry no payload slice.
func sortEdgeBatch[V ctree.Value](edges []EdgeOf[V]) ([]uint64, []V) {
	var zero V
	if unsafe.Sizeof(zero) == 0 {
		return edgeKeys(edges), nil
	}
	packed := make([]uint64, len(edges))
	vals := make([]V, len(edges))
	parallel.For(len(edges), func(i int) {
		packed[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
		vals[i] = edges[i].Val
	})
	parallel.RadixSortUint64Pairs(packed, vals)
	return parallel.DedupSortedUint64PairsLast(packed, vals)
}

// InsertEdges returns a graph with the batch inserted. Vertices appearing
// as sources or destinations are created as needed; the whole batch is one
// radix sort plus one fused vertex-tree pass (batch.go). Duplicate updates
// in the batch keep the last payload in batch order, and updates to
// existing edges overwrite their payload (the paper's interface allows
// weight updates through the same insertion path, §5). O(k log n) work,
// polylog depth.
func (g GraphOf[V]) InsertEdges(edges []EdgeOf[V]) GraphOf[V] {
	return g.InsertEdgesWith(edges, nil)
}

// InsertEdgesWith is InsertEdges with an explicit payload-merge policy for
// edges that already exist: the stored payload becomes merge(old, new). A
// nil merge overwrites (last-writer-wins).
func (g GraphOf[V]) InsertEdgesWith(edges []EdgeOf[V], merge func(old, new V) V) GraphOf[V] {
	if len(edges) == 0 {
		return g
	}
	packed, vals := sortEdgeBatch(edges)
	return g.with(insertEdgesCore(g.ops(), g.Params(), g.vt, packed, vals, merge))
}

// DeleteEdges returns a graph with the batch removed (payloads ignored);
// absent edges are ignored and vertices are kept even at degree zero (the
// paper makes singleton removal optional — see DeleteEdgesGC for the
// opt-in).
func (g GraphOf[V]) DeleteEdges(edges []EdgeOf[V]) GraphOf[V] {
	if len(edges) == 0 {
		return g
	}
	return g.with(deleteEdgesCore(g.ops(), g.Params(), g.vt, edgeKeys(edges), false))
}

// DeleteEdgesGC is DeleteEdges with the isolated-vertex GC opted in: any
// vertex whose edge tree becomes empty is dropped from the vertex-tree in
// the same pass. Intended for symmetric graphs, where deletes arrive in
// both directions and so both endpoints empty out together.
func (g GraphOf[V]) DeleteEdgesGC(edges []EdgeOf[V]) GraphOf[V] {
	if len(edges) == 0 {
		return g
	}
	return g.with(deleteEdgesCore(g.ops(), g.Params(), g.vt, edgeKeys(edges), true))
}

// CollectIsolated returns a graph without its degree-zero vertices — the
// full-sweep form of the isolated-vertex GC. O(n).
func (g GraphOf[V]) CollectIsolated() GraphOf[V] {
	return g.with(collectIsolatedCore(g.ops(), g.vt))
}

// InsertVertices adds the given vertex ids with empty edge trees.
func (g GraphOf[V]) InsertVertices(ids []uint32) GraphOf[V] {
	if len(ids) == 0 {
		return g
	}
	sorted := append([]uint32(nil), ids...)
	parallel.SortUint32(sorted)
	sorted = parallel.DedupSortedUint32(sorted)
	empty := ctree.NewKV[V](g.Params())
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], len(sorted))
	for i, id := range sorted {
		entries[i] = pftree.Entry[uint32, ctree.Tree[V]]{Key: id, Val: empty}
	}
	root := g.ops().MultiInsert(g.vt, entries, func(old, _ ctree.Tree[V]) ctree.Tree[V] { return old })
	return g.with(root)
}

// DeleteVertices removes the given vertices and every edge incident to them
// (the induced-subgraph semantics of the paper's interface, G[V \ V']).
func (g GraphOf[V]) DeleteVertices(ids []uint32) GraphOf[V] {
	if len(ids) == 0 {
		return g
	}
	ops := g.ops()
	sorted := append([]uint32(nil), ids...)
	parallel.SortUint32(sorted)
	sorted = parallel.DedupSortedUint32(sorted)
	root := ops.MultiDelete(g.vt, sorted)
	// Strip edges pointing at the removed vertices from every survivor.
	del := ctree.BuildKV[V](g.Params(), sorted, nil)
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], 0, root.Size())
	ops.ForEach(root, func(u uint32, et ctree.Tree[V]) bool {
		entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{Key: u, Val: et})
		return true
	})
	parallel.ForGrain(len(entries), 16, func(i int) {
		entries[i].Val = entries[i].Val.Difference(del)
	})
	return g.with(ops.BuildSorted(entries))
}

// Stats aggregates the memory shape of the whole graph: vertex-tree nodes
// plus all edge C-trees. Used by the space experiments.
type Stats struct {
	VertexNodes int
	Edge        ctree.Stats
}

// Stats walks the graph and returns its memory shape (chunk bytes include
// any interleaved payload bytes).
func (g GraphOf[V]) Stats() Stats {
	s := Stats{VertexNodes: g.vt.Size()}
	g.ForEachVertex(func(_ uint32, et ctree.Tree[V]) bool {
		s.Edge.Add(et.Stats())
		return true
	})
	return s
}

// TotalWeight sums all edge weights (an example of an associative
// aggregation the paper notes could be maintained by augmentation).
func TotalWeight(g WeightedGraph) float64 {
	var total float64
	g.ForEachVertex(func(_ uint32, et ctree.Tree[float32]) bool {
		et.ForEachKV(func(_ uint32, w float32) bool {
			total += float64(w)
			return true
		})
		return true
	})
	return total
}

// MakeUndirected duplicates each edge in both directions with the same
// payload, the form batch updates on symmetric graphs use (paper §7.3
// inserts each undirected edge as two directed updates within a single
// batch).
func MakeUndirected[V ctree.Value](edges []EdgeOf[V]) []EdgeOf[V] {
	out := make([]EdgeOf[V], 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, EdgeOf[V]{Val: e.Val, Src: e.Dst, Dst: e.Src})
	}
	return out
}
