package aspen

import (
	"testing"

	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/xhash"
)

// TestFlatWeightedSnapshotMatchesGraph is the weighted analogue of
// TestFlatSnapshotMatchesGraph: the generic flat view must agree with the
// weighted graph on degrees, presence, neighbor order and weights.
func TestFlatWeightedSnapshotMatchesGraph(t *testing.T) {
	r := xhash.NewRNG(51)
	g := NewGraphOf[float32](ctree.DefaultParams()).InsertEdges(randomWeightedBatch(r, 3000, 500))
	fs := BuildFlatSnapshot(g)
	if fs.Order() != g.Order() || fs.NumEdges() != g.NumEdges() {
		t.Fatal("flat weighted snapshot header mismatch")
	}
	degs := fs.Degrees()
	if len(degs) != g.Order() {
		t.Fatalf("Degrees length = %d, want %d", len(degs), g.Order())
	}
	for u := uint32(0); int(u) < g.Order(); u++ {
		if fs.Degree(u) != g.Degree(u) || int(degs[u]) != g.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
		if fs.HasVertex(u) != g.HasVertex(u) {
			t.Fatalf("presence mismatch at %d", u)
		}
		type nbr struct {
			v uint32
			w float32
		}
		var a, b []nbr
		g.ForEachNeighborKV(u, func(v uint32, w float32) bool { a = append(a, nbr{v, w}); return true })
		fs.ForEachNeighborKV(u, func(v uint32, w float32) bool { b = append(b, nbr{v, w}); return true })
		if len(a) != len(b) {
			t.Fatalf("neighbor count mismatch at %d", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("weighted neighbor mismatch at %d: %v vs %v", u, a[i], b[i])
			}
		}
	}
	// Point lookups agree too.
	for u := uint32(0); int(u) < g.Order(); u += 13 {
		g.ForEachNeighborKV(u, func(v uint32, w float32) bool {
			fw, ok := fs.Value(u, v)
			if !ok || fw != w {
				t.Fatalf("Weight(%d,%d) = %v,%v, want %v", u, v, fw, ok, w)
			}
			return true
		})
	}
}

// TestFlatBuildParallelMatchesSerial pins the per-worker-range parallel
// build against a 1-worker build of the same snapshot.
func TestFlatBuildParallelMatchesSerial(t *testing.T) {
	r := xhash.NewRNG(52)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 20_000, 3_000))
	par := BuildFlatSnapshot(g)
	old := parallel.Procs
	parallel.Procs = 1
	ser := BuildFlatSnapshot(g)
	parallel.Procs = old
	if par.Order() != ser.Order() {
		t.Fatal("order mismatch")
	}
	for u := uint32(0); int(u) < par.Order(); u++ {
		if par.Degree(u) != ser.Degree(u) || par.HasVertex(u) != ser.HasVertex(u) {
			t.Fatalf("parallel and serial flat builds disagree at %d", u)
		}
		pe, pok := par.EdgeTree(u)
		se, sok := ser.EdgeTree(u)
		if pok != sok || (pok && !pe.EqualRep(se)) {
			t.Fatalf("edge-tree handle mismatch at %d", u)
		}
	}
}

// TestFlatSnapshotTotality: the dense view must stay total on ids outside
// the id space — degree 0, no neighbors, no vertex — never panic (the
// satellite-(b) contract).
func TestFlatSnapshotTotality(t *testing.T) {
	r := xhash.NewRNG(53)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 500, 100))
	fs := BuildFlatSnapshot(g)
	fw := BuildFlatSnapshot(NewGraphOf[float32](ctree.DefaultParams()).InsertEdges(randomWeightedBatch(r, 500, 100)))
	for _, u := range []uint32{uint32(g.Order()), uint32(g.Order()) + 1, 1 << 30, ^uint32(0)} {
		if fs.Degree(u) != 0 || fw.Degree(u) != 0 {
			t.Fatalf("out-of-range degree(%d) != 0", u)
		}
		if fs.HasVertex(u) || fw.HasVertex(u) {
			t.Fatalf("out-of-range HasVertex(%d)", u)
		}
		fs.ForEachNeighbor(u, func(uint32) bool { t.Fatalf("neighbor yielded for %d", u); return false })
		fs.ForEachNeighborPar(u, func(uint32) { t.Errorf("parallel neighbor yielded for %d", u) })
		fw.ForEachNeighborKV(u, func(uint32, float32) bool { t.Fatalf("weighted neighbor yielded for %d", u); return false })
		if _, ok := fs.EdgeTree(u); ok {
			t.Fatalf("out-of-range EdgeTree(%d) present", u)
		}
		if _, ok := fw.Value(u, 0); ok {
			t.Fatalf("out-of-range Weight(%d) present", u)
		}
	}
}

// TestFlatSnapshotStaleness documents the §5.1 footgun: a flat view is tied
// to the immutable version it was built from. Updates produce new graphs;
// the old view keeps answering for the old version, and Current detects the
// divergence.
func TestFlatSnapshotStaleness(t *testing.T) {
	r := xhash.NewRNG(54)
	g := NewGraph(params()).InsertEdges(randomEdges(r, 1000, 200))
	fs := BuildFlatSnapshot(g)
	if !fs.Current(g) {
		t.Fatal("fresh view must be current for its snapshot")
	}
	fs.MustCurrent(g) // no-op in release builds, must not panic under aspendebug
	degBefore := fs.Degree(7)

	g2 := g.InsertEdges(MakeUndirected(randomEdges(r, 500, 200)))
	if fs.Current(g2) {
		t.Fatal("view must not report current for a newer version")
	}
	if !fs.Current(g) {
		t.Fatal("view must stay current for its own version after updates elsewhere")
	}
	if fs.Degree(7) != degBefore || fs.NumEdges() != g.NumEdges() {
		t.Fatal("view drifted: flat snapshots must be frozen at their version")
	}
	// The fresh version gets its own view.
	fs2 := BuildFlatSnapshot(g2)
	if !fs2.Current(g2) || fs2.Current(g) {
		t.Fatal("rebuilt view bound to the wrong version")
	}
	if flatDebug {
		// Under -tags aspendebug a stale use must panic.
		defer func() {
			if recover() == nil {
				t.Fatal("MustCurrent should panic on a stale view under aspendebug")
			}
		}()
		fs.MustCurrent(g2)
	}
}
