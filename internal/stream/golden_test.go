package stream

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/aspen"
)

// The golden hex below pins the WAL edge encodings and the checkpoint
// payload byte for byte: both are on-disk formats, so any change to the
// edge or graph types above them must leave these bytes unchanged.

func encodeEdges[E any](c Codec[E], edges []E) []byte {
	buf := make([]byte, c.Width*len(edges))
	for i, e := range edges {
		c.Encode(buf[i*c.Width:], e)
	}
	return buf
}

func checkGolden(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if h := hex.EncodeToString(got); h != want {
		t.Fatalf("%s bytes changed:\n got %s\nwant %s", what, h, want)
	}
}

func TestEdgeCodecGolden(t *testing.T) {
	edges := []aspen.Edge{{Src: 1, Dst: 2}, {Src: 0x01020304, Dst: 0xfffffffe}}
	c := EdgeCodec
	checkGolden(t, "unweighted WAL", encodeEdges(c, edges),
		"010000000200000004030201feffffff")
	for i, e := range edges {
		if got := c.Decode(encodeEdges(c, edges)[i*c.Width:]); got != e {
			t.Fatalf("decode %d: got %+v, want %+v", i, got, e)
		}
	}
}

func TestWeightedEdgeCodecGolden(t *testing.T) {
	edges := []aspen.WeightedEdge{
		{Src: 1, Dst: 2, Val: 1.5},
		{Src: 7, Dst: 0x01020304, Val: float32(math.Inf(-1))},
		{Src: 0xfffffffe, Dst: 0, Val: float32(math.Copysign(0, -1))},
	}
	c := EdgeCodecOf[float32]()
	checkGolden(t, "weighted WAL", encodeEdges(c, edges),
		"01000000020000000000c03f0700000004030201000080fffeffffff0000000000000080")
	for i, e := range edges {
		got := c.Decode(encodeEdges(c, edges)[i*c.Width:])
		if got.Src != e.Src || got.Dst != e.Dst || math.Float32bits(got.Val) != math.Float32bits(e.Val) {
			t.Fatalf("decode %d: got %+v, want %+v", i, got, e)
		}
	}
}

func TestWeightedCheckpointGolden(t *testing.T) {
	g := aspen.NewGraphOf[float32](testParams()).InsertEdges(aspen.MakeUndirected([]aspen.WeightedEdge{
		{Src: 0, Dst: 1, Val: 0.5},
		{Src: 1, Dst: 5, Val: -2},
		{Src: 5, Dst: 9, Val: 3.25},
	}))
	sc := GraphSnapshotCodecOf[float32](testParams())
	var buf bytes.Buffer
	if err := sc.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "weighted checkpoint", buf.Bytes(),
		"4153504301000000040000000000000004000000000000000600000000000000f17f299400000000010000000500000009000000000000000000000001000000000000000300000000000000050000000000000006000000000000000100000000000000050000000100000009000000050000000000003f0000003f000000c0000000c0000050400000504053e5b095")
	back, err := sc.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("checkpoint round trip changed the graph")
	}
}
