// Remote-cluster mode for cmd/stream: -connect points the §7.8 driver
// at a running cluster of cmd/shardd processes instead of an in-process
// engine, exercising the full distributed read/write path — routed
// submits over the rpc frame protocol, pinned version vectors, and
// stitched flat views fetched from the shard servers (from replicas,
// with -read-from). The servers keep their state between runs of the
// sweep, so the writer schedule keeps one cursor across all runs.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/aspen"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/shard/remote"
	"repro/internal/stream"
)

// remoteRunResult is one entry of the remote sweep.
type remoteRunResult struct {
	Name   string        `json:"name"`
	Report remote.Report `json:"report"`
}

// persistentSchedule wraps an UpdateScheduleMix closure (which owns the
// generator cursor) with a call counter that survives across the
// sweep's runs: Drive restarts its batch index at 0 every run, but the
// remote servers keep their state, so the stream must not replay.
func persistentSchedule[E any](inner func(i uint64) (bool, []E)) func(i uint64) (bool, []E) {
	var calls uint64 // writer-goroutine only, one run at a time
	return func(uint64) (bool, []E) {
		i := calls
		calls++
		return inner(i)
	}
}

// runRemote drives the remote sweep: reader counts × {saturated, paced
// when -interval is set} against one dialed cluster.
func runRemote(ctx context.Context, cfg config, connect, readFrom string, ro remote.Options,
	readerCounts []int, d, interval time.Duration, jsonOut, jsonTag, mergeIn string) {
	primaries := splitAddrs(connect)
	var replicas []string
	if readFrom != "" {
		replicas = splitAddrs(readFrom)
		if len(replicas) != len(primaries) {
			fatal("-read-from lists %d addresses for %d shards (use empty entries for shards without replicas)", len(replicas), len(primaries))
		}
	}
	part := shardPartitioner(cfg, len(primaries))
	oneRun, closeC := driverFor(cfg.Weighted).dialRemote(cfg, part, primaries, replicas, ro, d, ctx.Done())
	defer closeC()

	paceModes := []time.Duration{0}
	if interval > 0 {
		paceModes = append(paceModes, interval)
	}
	var runs []remoteRunResult
	for _, pace := range paceModes {
		mode := "saturated"
		if pace > 0 {
			mode = fmt.Sprintf("paced %v", pace)
		}
		for _, r := range readerCounts {
			if ctx.Err() != nil {
				fmt.Println("stream: interrupted, skipping remaining runs")
				break
			}
			name := fmt.Sprintf("remote %d shards, %d readers, %s", part.Shards(), r, mode)
			rep := oneRun(r, pace)
			printRemoteRun(name, rep)
			runs = append(runs, remoteRunResult{Name: name, Report: rep})
		}
	}
	if jsonOut != "" {
		writeRemoteJSON(jsonOut, jsonTag, mergeIn, cfg, runs)
		fmt.Printf("wrote %s\n", jsonOut)
	}
}

func printRemoteRun(name string, r remote.Report) {
	fmt.Printf("\n== %s ==\n", name)
	if r.Updates > 0 {
		fmt.Printf("updates: %.3g edges/sec (%d edges, %d submit frames across %d shards)\n",
			r.UpdatesPerSec, r.Updates, r.Batches, r.Shards)
		fmt.Printf("commit latency (worst shard): p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.CommitWorst.P50, r.CommitWorst.P95, r.CommitWorst.P99, r.CommitWorst.Max)
	}
	if r.Queries > 0 {
		fmt.Printf("queries: %.1f/sec across %d readers (%d errors)\n", r.QueriesPerSec, r.Readers, r.QueryErrs)
		fmt.Printf("query latency:   p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.Query.P50, r.Query.P95, r.Query.P99, r.Query.Max)
		for _, k := range r.PerKernel {
			fmt.Printf("  %-5s          p50 %-10v p95 %-10v p99 %-10v (%d runs)\n",
				k.Name, k.Latency.P50, k.Latency.P95, k.Latency.P99, k.Latency.Count)
		}
	}
	cs := r.Client
	fmt.Printf("client: %d range RPCs, %d view fetches, %d view hits, %d stitches, %d stitch hits",
		cs.RangeRPCs, cs.ViewFetches, cs.ViewHits, cs.StitchBuilds, cs.StitchHits)
	if cs.ReplicaReads+cs.PrimaryFallbacks > 0 {
		fmt.Printf(", %d replica reads, %d primary fallbacks", cs.ReplicaReads, cs.PrimaryFallbacks)
	}
	fmt.Println()
	if cs.Retries+cs.DedupAcks+cs.BreakerOpens+cs.BreakerFastFails+cs.RPCTimeouts+
		cs.Failovers+cs.Promotions+cs.DegradedPins+cs.StaleReads > 0 {
		fmt.Printf("faults: %d retries, %d dedup acks, %d breaker opens (%d fast fails), %d rpc timeouts, %d failovers, %d promotions, %d degraded pins, %d stale reads\n",
			cs.Retries, cs.DedupAcks, cs.BreakerOpens, cs.BreakerFastFails, cs.RPCTimeouts,
			cs.Failovers, cs.Promotions, cs.DegradedPins, cs.StaleReads)
	}
	fmt.Printf("versions: final stamps %v\n", r.FinalStamps)
}

// splitAddrs splits a comma list, keeping empty entries (a shard with
// no replica).
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// writeRemoteJSON writes the remote sweep as a BENCH_*.json document.
func writeRemoteJSON(path, tag, mergePath string, cfg config, runs []remoteRunResult) {
	doc := remoteBenchDoc{
		Tag: tag,
		Description: "Distributed shard transport sweep (PR 8): rpc frame protocol, routed " +
			"remote submits with commit-acked durability, pinned version vectors, stitched " +
			"remote flat views, optional WAL-tailed read replicas. Benchmarks array gates " +
			"allocs in CI via cmd/benchdiff.",
		Machine:    runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: json.RawMessage("[]"),
		Remote:     remoteDoc{Config: cfg, Runs: runs},
	}
	if mergePath != "" {
		raw, err := os.ReadFile(mergePath)
		if err != nil {
			fatal("-merge: %v", err)
		}
		var snap struct {
			Benchmarks json.RawMessage `json:"benchmarks"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			fatal("-merge: %v", err)
		}
		if len(snap.Benchmarks) > 0 {
			doc.Benchmarks = snap.Benchmarks
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatal("write: %v", err)
	}
}

type remoteBenchDoc struct {
	Tag         string          `json:"tag"`
	Description string          `json:"description"`
	Machine     string          `json:"machine,omitempty"`
	Benchmarks  json.RawMessage `json:"benchmarks"`
	Remote      remoteDoc       `json:"remote_experiment"`
}

type remoteDoc struct {
	Config config            `json:"config"`
	Runs   []remoteRunResult `json:"runs"`
}

// dialRemote connects the cluster client and returns the per-run driver
// over it plus the client's close.
func (dr graphDriver[V]) dialRemote(cfg config, part shard.Partitioner, primaries, replicas []string, ro remote.Options,
	d time.Duration, stop <-chan struct{}) (func(readers int, pace time.Duration) remote.Report, func()) {
	c, err := remote.DialGraphOf[V](part, primaries, replicas, ro)
	if err != nil {
		fatal("%v", err)
	}
	mountRemoteObs(c)
	next := persistentSchedule(stream.UpdateScheduleMix(0, cfg.Batch, cfg.DelPeriod,
		dr.edges(rmat.NewGenerator(cfg.Scale, cfg.Seed))))
	run := func(readers int, pace time.Duration) remote.Report {
		w := &remote.Workload[aspen.EdgeOf[V]]{
			Cluster: c, NextBatch: next, Readers: readers,
			Kernels: kernels(cfg), Duration: d, Interval: pace, Stop: stop,
		}
		return w.Run()
	}
	return run, c.Close
}
