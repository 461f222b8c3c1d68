package aspen

import (
	"testing"
	"unsafe"
)

// Batch edges are copied, sorted and shipped by the million; a trailing
// zero-size payload field would be padded to a full word and add 50% to
// every unweighted edge.
func TestEdgeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Edge{}); got != 8 {
		t.Fatalf("sizeof(Edge) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(WeightedEdge{}); got != 12 {
		t.Fatalf("sizeof(WeightedEdge) = %d, want 12", got)
	}
}
