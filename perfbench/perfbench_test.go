package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/aspen"
)

// inputDigest hashes the base and the first n batches exactly as the
// workloads submit them.
func inputDigest(s edgeStream, n int) []byte {
	h := sha256.New()
	hashEdges(h, s.base())
	for _, b := range s.batches(n) {
		hashEdges(h, b)
	}
	return h.Sum(nil)
}

func TestSameSeedSameInputs(t *testing.T) {
	a := newEdgeStream(12, 7, 5000, 10)
	b := newEdgeStream(12, 7, 5000, 10)
	if !bytes.Equal(inputDigest(a, 50), inputDigest(b, 50)) {
		t.Fatal("two streams with the same seed submit different bytes")
	}
	c := newEdgeStream(12, 8, 5000, 10)
	if bytes.Equal(inputDigest(a, 50), inputDigest(c, 50)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestBatchesAreFreshSamples(t *testing.T) {
	s := newEdgeStream(12, 3, 1000, 25)
	seen := make(map[uint64]bool)
	for i := range 4 {
		lo := s.init + uint64(i)*s.size
		want := aspen.MakeUndirected(s.gen.Edges(lo, lo+s.size))
		if got := s.batch(i); !slices.Equal(got, want) {
			t.Fatalf("batch %d is not samples [%d, %d) symmetrised", i, lo, lo+s.size)
		}
		for j := lo; j < lo+s.size; j++ {
			if j < s.init || seen[j] {
				t.Fatalf("sample %d reused", j)
			}
			seen[j] = true
		}
	}
	mask := []bool{true, false, true}
	got := s.ackedEdges(mask)
	want := append(s.batch(0), s.batch(2)...)
	if !slices.Equal(got, want) {
		t.Fatal("ackedEdges does not regenerate exactly the acked batches")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{{2000, 99, 99}, {1000, 99, 99}, {500, 99, 98}, {60, 90, 83.3}, {20, 99, 50}, {3, 99, 50}, {1000, 90, 90}} {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stream.commit", Start: 0, End: 100},
		{ID: 2, Name: "wal.fsync", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "aspen.insert_edges", Start: 20, End: 50, Parent: 1},
		{ID: 4, Name: "aspen.flat_patch", Start: 90, End: 120, Parent: 1},
		{ID: 5, Name: "wal.fsync", Start: 500, End: 600},
	}
	sum := summarize(spans, 0, 200)
	c := sum["stream.commit"]
	// Children cover [10,50) and [90,100) of the parent: 50 of its 100 ns.
	if c.selfNS != 50 || c.busyNS != 100 {
		t.Fatalf("commit self %d busy %d, want 50 and 100", c.selfNS, c.busyNS)
	}
	if f := sum["wal.fsync"]; f.Count != 1 || f.Parent != "stream.commit" {
		t.Fatalf("fsync outside the phase counted: %+v", f)
	}
}

// The metric and workload names in BENCHMARK.json must be the ones the
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string }       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	names = names[:0]
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
	}
	e2e := sortedKeys(endToEndMetrics(e2eInputs{}, io.Discard))
	if !slices.Equal(sortedNames(names), e2e) {
		t.Errorf("end_to_end %v, program prints %v", names, e2e)
	}
	printed := make(map[string]metric)
	layerMetrics(nil, time.Second, printed)
	fillLayerMetrics(layerInputs{}, printed)
	names = names[:0]
	for _, m := range doc.PerLayer {
		names = append(names, m.Name)
		if p, ok := printed[m.Name]; ok && p.Unit != m.Unit {
			t.Errorf("per_layer %s has unit %s, program prints %s", m.Name, m.Unit, p.Unit)
		}
	}
	if got, want := sortedNames(names), sortedKeys(printed); !slices.Equal(got, want) {
		t.Errorf("per_layer %v, program prints %v", got, want)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "small-fresh", "--seconds", "0"},
		{"--workload", "small-fresh", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no output", args, code, out.String())
		}
	}
}
