package shard

import (
	"testing"
	"unsafe"

	"repro/internal/aspen"
	"repro/internal/xhash"
)

func randomEdges(n int, idSpace uint32, seed uint64) []aspen.Edge {
	rng := xhash.NewRNG(seed)
	out := make([]aspen.Edge, n)
	for i := range out {
		out[i] = aspen.Edge{Src: rng.Uint32() % idSpace, Dst: rng.Uint32() % idSpace}
	}
	return out
}

func TestRouteSplitsByOwner(t *testing.T) {
	edges := randomEdges(5_000, 1<<16, 9)
	for _, p := range []Partitioner{
		NewRangePartitioner(4, 1<<16),
		NewHashPartitioner(3),
		NewRangePartitioner(1, 1<<16),
	} {
		parts := Route(p, edges, EdgeSource)
		if len(parts) != p.Shards() {
			t.Fatalf("Route returned %d parts, want %d", len(parts), p.Shards())
		}
		// Every edge lands on its owner, and the per-shard order equals the
		// input order filtered to that shard (stability).
		want := make([][]aspen.Edge, p.Shards())
		for _, e := range edges {
			o := p.Owner(e.Src)
			want[o] = append(want[o], e)
		}
		total := 0
		for s, sub := range parts {
			total += len(sub)
			if len(sub) != len(want[s]) {
				t.Fatalf("shard %d got %d edges, want %d", s, len(sub), len(want[s]))
			}
			for i, e := range sub {
				if e != want[s][i] {
					t.Fatalf("shard %d edge %d = %v, want %v (order not stable)", s, i, e, want[s][i])
				}
			}
		}
		if total != len(edges) {
			t.Fatalf("routed %d edges, want %d", total, len(edges))
		}
	}
}

func TestRouteZeroCopyBacking(t *testing.T) {
	edges := randomEdges(1_000, 1<<12, 10)
	p := NewRangePartitioner(4, 1<<12)
	parts := Route(p, edges, EdgeSource)
	var prev []aspen.Edge
	for _, sub := range parts {
		if len(sub) == 0 {
			continue
		}
		// Capacity is clipped to the slice: an append cannot clobber the
		// next shard's region of the shared backing array.
		if cap(sub) != len(sub) {
			t.Fatalf("sub-batch capacity %d > len %d: not clipped", cap(sub), len(sub))
		}
		// Consecutive non-empty shards are adjacent in one backing array.
		if prev != nil {
			end := uintptr(unsafe.Pointer(&prev[0])) + uintptr(len(prev))*unsafe.Sizeof(prev[0])
			if uintptr(unsafe.Pointer(&sub[0])) != end {
				t.Fatal("per-shard slices are not contiguous views of one backing array")
			}
		}
		prev = sub
	}
}

func TestRouteEmptyAndSingle(t *testing.T) {
	p := NewRangePartitioner(4, 1<<10)
	parts := Route(p, nil, EdgeSource[struct{}])
	for s, sub := range parts {
		if len(sub) != 0 {
			t.Fatalf("empty batch produced edges on shard %d", s)
		}
	}
	edges := randomEdges(100, 1<<10, 11)
	one := Route(NewRangePartitioner(1, 1<<10), edges, EdgeSource)
	if len(one) != 1 || &one[0][0] != &edges[0] {
		t.Fatal("single-shard route must return the input slice itself")
	}
}
