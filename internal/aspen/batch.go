package aspen

import (
	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/pftree"
)

// This file is the batch-update engine behind GraphOf[V]: one
// radix-sorted, fused vertex-tree pass per batch, generic over the edge
// payload. It is the paper's batch-update algorithm (§5) — sort, group,
// build per-source edge C-trees, then MultiInsert into the vertex-tree with
// a combine function that unions edge trees — extended so payloads (edge
// weights, and any future fixed-width property) ride the same compressed
// path.

// vnode is a vertex-tree node: key = vertex id, value = edge C-tree,
// augmented with the total number of edges in the subtree so NumEdges is
// O(1) (paper §5, "we augment the vertex-tree to store the number of edges
// contained in its subtrees").
type vnode[V ctree.Value] = pftree.Node[uint32, ctree.Tree[V], uint64]

// vopsT is the vertex-tree operation table for payload type V.
type vopsT[V ctree.Value] = pftree.Ops[uint32, ctree.Tree[V], uint64]

func cmpU32(a, b uint32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func newVops[V ctree.Value]() *vopsT[V] {
	return &vopsT[V]{
		Cmp: cmpU32,
		Aug: pftree.Augment[uint32, ctree.Tree[V], uint64]{
			Zero:      0,
			FromEntry: func(_ uint32, et ctree.Tree[V]) uint64 { return et.Size() },
			Combine:   func(a, b uint64) uint64 { return a + b },
		},
	}
}

// groupBySourceKV splits the packed sorted batch into per-source runs of
// destination ids and (when vals is non-nil) the aligned payload runs.
// Every run is a subslice of one shared backing array (the low words of
// packed, materialized once in parallel) — no per-run copies.
func groupBySourceKV[V ctree.Value](packed []uint64, vals []V) (srcs []uint32, dsts [][]uint32, vruns [][]V) {
	if len(packed) == 0 {
		return nil, nil, nil
	}
	all := make([]uint32, len(packed))
	parallel.For(len(packed), func(i int) { all[i] = uint32(packed[i]) })
	starts := parallel.PackIndices(len(packed), func(i int) bool {
		return i == 0 || packed[i]>>32 != packed[i-1]>>32
	})
	srcs = make([]uint32, len(starts))
	dsts = make([][]uint32, len(starts))
	if vals != nil {
		vruns = make([][]V, len(starts))
	}
	parallel.ForGrain(len(starts), 64, func(j int) {
		lo := int(starts[j])
		hi := len(packed)
		if j+1 < len(starts) {
			hi = int(starts[j+1])
		}
		srcs[j] = uint32(packed[lo] >> 32)
		dsts[j] = all[lo:hi]
		if vals != nil {
			vruns[j] = vals[lo:hi]
		}
	})
	return srcs, dsts, vruns
}

// groupBySource is the id-only view of groupBySourceKV.
func groupBySource(packed []uint64) (srcs []uint32, dsts [][]uint32) {
	srcs, dsts, _ = groupBySourceKV[struct{}](packed, nil)
	return srcs, dsts
}

// insertEdgesCore inserts a sorted, deduplicated packed batch (with aligned
// payloads, nil for zero payloads) into the vertex-tree. Vertices appearing
// as sources or destinations are created as needed; destination-only
// endpoints ride along in the same MultiInsert as entries with empty edge
// trees, so the whole batch is one vertex-tree pass. Payload collisions
// with existing edges resolve to merge(oldVal, newVal), or the batch value
// when merge is nil (last-writer-wins). O(k log n) work, polylog depth.
func insertEdgesCore[V ctree.Value](ops *vopsT[V], p ctree.Params, vt *vnode[V], packed []uint64, vals []V, merge func(old, new V) V) *vnode[V] {
	srcs, dsts, vruns := groupBySourceKV(packed, vals)
	// One prototype tree interns the per-V operation table; every edge tree
	// of the batch is built from it instead of re-resolving the table.
	proto := ctree.NewKV[V](p)
	// Destination endpoints must exist as vertices so traversals can land
	// on them. Keep only the ids actually missing from the vertex tree
	// (checked in parallel against the pre-update tree): in a populated
	// graph this is usually empty, so the fused MultiInsert below carries
	// no extra entries. A missing destination that is also a batch source
	// is created by its source entry; the merge dedupes that case.
	dstIDs := make([]uint32, len(packed))
	parallel.For(len(packed), func(i int) { dstIDs[i] = uint32(packed[i]) })
	parallel.RadixSortUint32(dstIDs)
	dstIDs = parallel.DedupSortedUint32(dstIDs)
	missing := make([]bool, len(dstIDs))
	parallel.ForGrain(len(dstIDs), 64, func(i int) {
		_, ok := ops.Find(vt, dstIDs[i])
		missing[i] = !ok
	})
	w := 0
	for i, d := range dstIDs {
		if missing[i] {
			dstIDs[w] = d
			w++
		}
	}
	dstIDs = dstIDs[:w]
	// Merge sources and missing destinations into one sorted entry list:
	// sources carry their batch edge tree (built below, in parallel),
	// destination-only ids an empty tree. A single MultiInsert then both
	// unions the edge batches and creates the missing endpoints.
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], 0, len(srcs)+len(dstIDs))
	runOf := make([]int, 0, len(srcs)+len(dstIDs)) // index into dsts, -1 for dst-only
	i, j := 0, 0
	for i < len(srcs) || j < len(dstIDs) {
		switch {
		case j >= len(dstIDs) || (i < len(srcs) && srcs[i] < dstIDs[j]):
			entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{Key: srcs[i]})
			runOf = append(runOf, i)
			i++
		case i >= len(srcs) || dstIDs[j] < srcs[i]:
			entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{Key: dstIDs[j], Val: proto})
			runOf = append(runOf, -1)
			j++
		default: // same id is both a source and a destination
			entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{Key: srcs[i]})
			runOf = append(runOf, i)
			i++
			j++
		}
	}
	parallel.ForGrain(len(entries), 16, func(k int) {
		if r := runOf[k]; r >= 0 {
			var vr []V
			if vruns != nil {
				vr = vruns[r]
			}
			entries[k].Val = proto.BuildLike(dsts[r], vr)
		}
	})
	return ops.MultiInsert(vt, entries, func(old, new ctree.Tree[V]) ctree.Tree[V] {
		return old.UnionWith(new, merge)
	})
}

// deleteEdgesCore removes a sorted, deduplicated packed batch from the
// vertex-tree; absent edges are ignored. With dropEmpty set, vertices
// whose edge tree becomes empty are removed from the vertex-tree (the
// opt-in isolated-vertex GC; meaningful on symmetric graphs, where deletes
// arrive in both directions).
func deleteEdgesCore[V ctree.Value](ops *vopsT[V], p ctree.Params, vt *vnode[V], packed []uint64, dropEmpty bool) *vnode[V] {
	srcs, dsts, _ := groupBySourceKV[struct{}](packed, nil)
	proto := ctree.NewKV[V](p)
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], 0, len(srcs))
	keep := make([]bool, len(srcs))
	parallel.ForGrain(len(srcs), 16, func(i int) {
		_, ok := ops.Find(vt, srcs[i])
		keep[i] = ok
	})
	for i := range srcs {
		if keep[i] {
			entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{
				Key: srcs[i], Val: proto.BuildLike(dsts[i], nil),
			})
		}
	}
	if len(entries) == 0 {
		return vt
	}
	root := ops.MultiInsert(vt, entries, func(old, del ctree.Tree[V]) ctree.Tree[V] {
		return old.Difference(del)
	})
	if !dropEmpty {
		return root
	}
	// Drop batch-touched vertices that lost their last edge. Only entries
	// from this batch can have become empty, so the sweep is O(batch).
	emptied := make([]bool, len(entries))
	parallel.ForGrain(len(entries), 16, func(i int) {
		et, ok := ops.Find(root, entries[i].Key)
		emptied[i] = ok && et.Empty()
	})
	var dead []uint32
	for i := range entries {
		if emptied[i] {
			dead = append(dead, entries[i].Key)
		}
	}
	if len(dead) == 0 {
		return root
	}
	return ops.MultiDelete(root, dead)
}

// collectIsolatedCore removes every vertex with an empty edge tree.
func collectIsolatedCore[V ctree.Value](ops *vopsT[V], vt *vnode[V]) *vnode[V] {
	entries := make([]pftree.Entry[uint32, ctree.Tree[V]], 0, vt.Size())
	ops.ForEach(vt, func(u uint32, et ctree.Tree[V]) bool {
		if !et.Empty() {
			entries = append(entries, pftree.Entry[uint32, ctree.Tree[V]]{Key: u, Val: et})
		}
		return true
	})
	if len(entries) == vt.Size() {
		return vt
	}
	return ops.BuildSorted(entries)
}
