package aspen

import (
	"sync"
	"testing"

	"repro/internal/xhash"
)

func TestHistoryAsOf(t *testing.T) {
	h := NewHistory(NewGraph(params()))
	s1 := h.InsertEdges(MakeUndirected([]Edge{{Src: 0, Dst: 1}}))
	s2 := h.InsertEdges(MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	s3 := h.DeleteEdges(MakeUndirected([]Edge{{Src: 0, Dst: 1}}))
	if h.Len() != 4 {
		t.Fatalf("retained %d versions, want 4", h.Len())
	}
	if g, ok := h.AsOf(0); !ok || g.NumEdges() != 0 {
		t.Fatal("stamp 0 should be the empty graph")
	}
	if g, ok := h.AsOf(s1); !ok || g.NumEdges() != 2 {
		t.Fatal("stamp s1 wrong")
	}
	if g, ok := h.AsOf(s2); !ok || g.NumEdges() != 4 {
		t.Fatal("stamp s2 wrong")
	}
	if g, ok := h.AsOf(s3); !ok || g.NumEdges() != 2 {
		t.Fatal("stamp s3 wrong")
	}
	// Querying between stamps resolves to the newest not-after version.
	if g, ok := h.AsOf(s3 + 100); !ok || g.NumEdges() != h.Latest().NumEdges() {
		t.Fatal("future stamp should resolve to latest")
	}
}

func TestDiffEdges(t *testing.T) {
	g1 := NewGraph(params()).InsertEdges([]Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 4}})
	g2 := g1.DeleteEdges([]Edge{{Src: 0, Dst: 2}}).InsertEdges([]Edge{{Src: 5, Dst: 6}})
	added, removed := DiffEdges(g1, g2)
	if len(added) != 1 || added[0] != (Edge{Src: 5, Dst: 6}) {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != (Edge{Src: 0, Dst: 2}) {
		t.Fatalf("removed = %v", removed)
	}
	// Identity diff.
	a2, r2 := DiffEdges(g2, g2)
	if len(a2) != 0 || len(r2) != 0 {
		t.Fatal("self-diff should be empty")
	}
}

func TestDiffEdgesRandomized(t *testing.T) {
	r := xhash.NewRNG(17)
	g1 := NewGraph(params()).InsertEdges(randomEdges(r, 400, 60))
	ins := randomEdges(r, 100, 60)
	del := randomEdges(r, 100, 60)
	g2 := g1.InsertEdges(ins).DeleteEdges(del)
	added, removed := DiffEdges(g1, g2)
	// Applying the diff to g1 must reproduce g2 exactly.
	g3 := g1.InsertEdges(added).DeleteEdges(removed)
	if g3.NumEdges() != g2.NumEdges() {
		t.Fatalf("patched edges = %d, want %d", g3.NumEdges(), g2.NumEdges())
	}
	moreAdded, moreRemoved := DiffEdges(g2, g3)
	if len(moreAdded) != 0 || len(moreRemoved) != 0 {
		t.Fatalf("patch incomplete: +%d -%d", len(moreAdded), len(moreRemoved))
	}
}

func TestHistoryConcurrentReads(t *testing.T) {
	h := NewHistory(NewGraph(params()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint32(0); i < 50; i++ {
			h.InsertEdges([]Edge{{Src: i, Dst: i + 1}})
		}
	}()
	for i := 0; i < 200; i++ {
		if g, ok := h.AsOf(uint64(i % 50)); ok {
			_ = g.NumEdges()
		}
	}
	<-done
	if h.Latest().NumEdges() != 50 {
		t.Fatalf("final edges = %d", h.Latest().NumEdges())
	}
}

// TestHistoryConcurrentWriters pins every retained version to the stamp it
// was published under: with writers racing, AsOf(s) must return exactly
// the version stamp s published, which also needs the retained stamps in
// order for AsOf's binary search. Each insert adds one new edge, so the
// version with stamp s has s edges.
func TestHistoryConcurrentWriters(t *testing.T) {
	const writers, perWriter, trials = 8, 20, 20
	for trial := 0; trial < trials; trial++ {
		h := NewHistory(NewGraph(params()))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					h.InsertEdges([]Edge{{Src: uint32(w), Dst: uint32(1000 + i)}})
				}
			}(w)
		}
		wg.Wait()
		for s := uint64(0); s <= writers*perWriter; s++ {
			g, ok := h.AsOf(s)
			if !ok || g.NumEdges() != s {
				t.Fatalf("trial %d: AsOf(%d) = %d edges (ok=%v), want %d", trial, s, g.NumEdges(), ok, s)
			}
		}
	}
}
