package main

import (
	"encoding/binary"
	"hash"

	"repro/internal/aspen"
	"repro/internal/rmat"
)

// edgeStream is one seed's rMAT sample stream (a=.5, b=c=.1) cut into a
// base graph and a sequence of fresh batches: the base is samples
// [0, init) and batch i is samples [init + i·size, init + (i+1)·size),
// both symmetrised. No batch repeats a sample index, so no commit is an
// idempotent re-insert of an earlier batch.
type edgeStream struct {
	gen  rmat.Generator
	init uint64
	size uint64
}

func newEdgeStream(scale int, seed, init, size uint64) edgeStream {
	return edgeStream{gen: rmat.NewGenerator(scale, seed), init: init, size: size}
}

// base returns the symmetrised base edges.
func (s edgeStream) base() []aspen.Edge {
	return aspen.MakeUndirected(s.gen.Edges(0, s.init))
}

// batch returns fresh batch i, symmetrised.
func (s edgeStream) batch(i int) []aspen.Edge {
	lo := s.init + uint64(i)*s.size
	return aspen.MakeUndirected(s.gen.Edges(lo, lo+s.size))
}

// batches returns batches [0, n).
func (s edgeStream) batches(n int) [][]aspen.Edge {
	out := make([][]aspen.Edge, n)
	for i := range out {
		out[i] = s.batch(i)
	}
	return out
}

// ackedEdges regenerates every acknowledged batch, in batch order, as one
// slice: the update set the reference graph applies on top of the base.
func (s edgeStream) ackedEdges(acked []bool) []aspen.Edge {
	var out []aspen.Edge
	for i, ok := range acked {
		if ok {
			out = append(out, s.batch(i)...)
		}
	}
	return out
}

// hashEdges feeds a batch into h as little-endian (src, dst) pairs, the
// bytes the engine's WAL codec writes for it.
func hashEdges(h hash.Hash, edges []aspen.Edge) {
	var buf [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], e.Src)
		binary.LittleEndian.PutUint32(buf[4:], e.Dst)
		h.Write(buf[:])
	}
}
