package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/aspen"
	"repro/internal/shard/remote"
	"repro/internal/stream"
)

func sortedNames(names []string) []string {
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	return sortedNames(names)
}

// e2eInputs is what the end-to-end metrics are computed from.
type e2eInputs struct {
	setups  []float64 // seconds, one per set-up repetition
	loop    loopStats
	closed  bool      // closed loop: throughput over send-to-ack time
	queries []float64 // ms, Begin to Close
	memB    uint64    // live heap after a forced GC
	edges   uint64    // directed edges in the newest version
}

func endToEndMetrics(in e2eInputs, log io.Writer) map[string]metric {
	lat := in.loop.lat
	tail := tailQuantile(len(lat), 99)
	qtail := tailQuantile(len(in.queries), 90)
	fmt.Fprintf(log, "samples: commits=%d (commit_p99_ms is p%.1f) queries=%d (query_p90_ms is p%.1f)\n",
		len(lat), tail, len(in.queries), qtail)
	wall := in.loop.lastAck.Sub(in.loop.first)
	if in.closed {
		wall = in.loop.active
	}
	var rate float64
	if wall > 0 {
		rate = float64(in.loop.ackedEdges) / wall.Seconds()
	}
	return map[string]metric{
		"setup_s":            {median(in.setups), "s"},
		"commit_p50_ms":      {percentile(lat, 50), "ms"},
		"commit_p99_ms":      {percentile(lat, tail), "ms"},
		"ingest_edges_per_s": {rate, "1/s"},
		"query_p50_ms":       {percentile(in.queries, 50), "ms"},
		"query_p90_ms":       {percentile(in.queries, qtail), "ms"},
		"mem_bytes_per_edge": {float64(in.memB) / float64(max(in.edges, 1)), "B/edge"},
	}
}

// layerInputs is what the non-span per-layer metrics are computed from.
type layerInputs struct {
	engines    []stream.Stats // end-of-run stats of every engine
	queueDepth int            // engine queue depth when the schedule ended
	late       []float64      // ms the generator sent each batch past its due time
	goD        goDelta
	edgesAcked int           // directed edges acked in the window
	graphs     []aspen.Graph // newest version of every engine
	flatBytes  uint64        // bytes of the newest flat views
	client     *remote.Stats // nil without a remote client
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Analytic node sizes of the C-tree format (paper §7.1), the accounting
// the repository's memory tables use: a vertex-tree node is 56 bytes and
// an edge-tree head node 48, plus the encoded chunk bytes.
const (
	vertexNodeBytes = 56
	edgeNodeBytes   = 48
)

// fillLayerMetrics computes the per-layer metrics that are not span
// digests. Layers a workload does not reach report 0, so every run prints
// the same names.
func fillLayerMetrics(in layerInputs, into map[string]metric) {
	var batches, commits, edges, walBytes, ckpts uint64
	for _, s := range in.engines {
		batches += s.Batches
		commits += s.Commits
		edges += s.Edges
		walBytes += s.WAL.Bytes
		ckpts += s.Checkpoints
	}
	var aspenB, m uint64
	for _, g := range in.graphs {
		st := g.Stats()
		aspenB += uint64(st.VertexNodes)*vertexNodeBytes + uint64(st.Edge.Nodes)*edgeNodeBytes + uint64(st.Edge.ChunkBytes)
		m += g.NumEdges()
	}
	var cs remote.Stats
	if in.client != nil {
		cs = *in.client
	}
	late := append([]float64(nil), in.late...)
	into["stream.coalesce_factor"] = metric{ratio(batches, commits), "ratio"}
	into["stream.queue_depth_end"] = metric{float64(in.queueDepth), "count"}
	into["wal.bytes_per_edge"] = metric{ratio(walBytes, edges), "B/edge"}
	into["graphio.checkpoints"] = metric{float64(ckpts), "count"}
	into["remote.view_hit_ratio"] = metric{ratio(cs.ViewHits, cs.ViewHits+cs.ViewFetches), "ratio"}
	into["remote.view_lookups"] = metric{float64(cs.ViewHits + cs.ViewFetches), "count"}
	into["remote.stitch_hit_ratio"] = metric{ratio(cs.StitchHits, cs.StitchHits+cs.StitchBuilds), "ratio"}
	into["remote.stitch_lookups"] = metric{float64(cs.StitchHits + cs.StitchBuilds), "count"}
	into["remote.retries"] = metric{float64(cs.Retries), "count"}
	into["go.gc_cpu_frac"] = metric{in.goD.gcCPUFrac, "ratio"}
	into["go.allocs_per_edge"] = metric{ratio(in.goD.allocObjs, uint64(in.edgesAcked)), "count/edge"}
	into["go.alloc_bytes_per_edge"] = metric{ratio(in.goD.allocBytes, uint64(in.edgesAcked)), "B/edge"}
	into["go.gc_pause_p99_ms"] = metric{ms(in.goD.pauseP99), "ms"}
	into["aspen.bytes_per_edge"] = metric{ratio(aspenB, m), "B/edge"}
	into["flat.bytes_per_edge"] = metric{ratio(in.flatBytes, m), "B/edge"}
	into["gen.late_max_ms"] = metric{percentile(late, 100), "ms"}
	into["gen.late_p99_ms"] = metric{percentile(late, 99), "ms"}
}

// flatBytes is the analytic size of a flat view: what it owns plus the
// pages it shares with the view it was patched from.
func flatBytes(v any) uint64 {
	if fs, ok := v.(*aspen.FlatSnapshot); ok {
		return fs.MemoryBytes() + fs.SharedMemoryBytes()
	}
	return 0
}
