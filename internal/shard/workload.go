package shard

import (
	"sort"
	"time"

	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/stream"
)

// Kernel is a named analytics query over a cross-shard snapshot. Both
// access paths hand the kernel a ligra.Graph (WeightedView /
// FlatWeightedView for weighted clusters — weighted kernels type-assert
// ligra.WeightedGraph exactly as on the single engine).
type Kernel struct {
	Name string
	Run  func(g ligra.Graph)
}

// Workload drives the sharded §7.8 experiment: one writer goroutine routes
// batched updates through the cluster (each batch fanning out to all
// touched shard writers concurrently) while Readers goroutines query
// pinned version vectors, for Duration. The run loop itself is the shared
// stream.Drive, so measurement semantics match the single-engine Workload
// by construction.
type Workload[G ligra.Graph, E any] struct {
	Cluster *Cluster[G, E]
	// NextBatch returns the i-th update batch of the stream (del reports a
	// deletion batch). Called only from the writer goroutine; nil means an
	// idle writer (query-only baseline).
	NextBatch func(i uint64) (del bool, edges []E)
	// Readers is the number of concurrent query goroutines.
	Readers int
	// Kernels are cycled round-robin by every reader.
	Kernels []Kernel
	// Duration is how long the writer sustains updates; readers stop with
	// the writer.
	Duration time.Duration
	// Interval, when positive, paces the writer to one batch per Interval;
	// zero saturates (submit as fast as the shard queues accept).
	Interval time.Duration
	// UseFlat routes kernels through the stitched flat view (Tx.Flat)
	// instead of the cross-shard tree view.
	UseFlat bool
	// Stop, when non-nil, ends the run early once closed (graceful
	// shutdown): the writer stops submitting, submitted batches flush on
	// every shard, and readers drain as usual.
	Stop <-chan struct{}
}

// Report is the outcome of one sharded workload run. Counters are deltas
// over the run — a cluster preloaded through its own ingest path does not
// leak the load into the streamed-update numbers — while latency digests
// are engine-lifetime (histograms are cumulative; preload through the
// serving path lands its commit samples there, so drivers preload via the
// *With constructors instead). Digests that span shards (CommitWorst)
// report the worst shard's distribution — tail latency is the serving
// metric, and the slowest shard is the tail.
type Report struct {
	Shards        int           `json:"shards"`
	Duration      time.Duration `json:"duration_ns"`
	Readers       int           `json:"readers"`
	Updates       uint64        `json:"updates"`
	UpdatesPerSec float64       `json:"updates_per_sec"`
	Commits       uint64        `json:"commits"`
	Batches       uint64        `json:"batches"`

	// CommitWorst is the commit-latency digest of the shard with the
	// highest p99; PerShard carries every shard's full counters.
	CommitWorst obs.LatencySummary `json:"commit_worst"`
	PerShard    []stream.Stats     `json:"per_shard"`

	Queries       uint64              `json:"queries"`
	QueriesPerSec float64             `json:"queries_per_sec"`
	Query         obs.LatencySummary  `json:"query_latency"`
	PerKernel     []stream.KernelStat `json:"per_kernel"`

	LiveVersions    int64    `json:"live_versions"`
	RetiredVersions uint64   `json:"retired_versions"`
	FinalStamps     []uint64 `json:"final_stamps"`

	FlatBuilds    uint64 `json:"flat_builds"`
	FlatPatches   uint64 `json:"flat_patches,omitempty"`
	FlatHits      uint64 `json:"flat_hits"`
	StitchBuilds  uint64 `json:"stitch_builds"`
	StitchPatches uint64 `json:"stitch_patches,omitempty"`
	StitchHits    uint64 `json:"stitch_hits"`
}

// Run executes the workload and reports. The cluster is flushed but left
// open (Close it separately).
func (w *Workload[G, E]) Run() Report {
	before := w.Cluster.Stats()
	var stamps []uint64
	spec := stream.DriveSpec{
		Readers: w.Readers,
		Kernels: len(w.Kernels),
		RunKernel: func(k int) {
			tx := w.Cluster.Begin()
			if w.UseFlat {
				w.Kernels[k].Run(tx.Flat())
			} else {
				w.Kernels[k].Run(tx.Ligra())
			}
			tx.Close()
		},
		Flush:    func() { stamps, _ = w.Cluster.FlushAll() },
		Duration: w.Duration,
		Interval: w.Interval,
		Stop:     w.Stop,
	}
	if w.NextBatch != nil {
		spec.Submit = func(i uint64) error {
			del, edges := w.NextBatch(i)
			var err error
			if del {
				_, err = w.Cluster.Delete(edges)
			} else {
				_, err = w.Cluster.Insert(edges)
			}
			return err
		}
	}
	ds := stream.Drive(spec)

	st := w.Cluster.Stats()
	rep := Report{
		Shards:          st.Shards,
		Duration:        ds.Elapsed,
		Readers:         w.Readers,
		Updates:         st.Edges - before.Edges,
		UpdatesPerSec:   float64(st.Edges-before.Edges) / ds.Elapsed.Seconds(),
		Commits:         st.Commits - before.Commits,
		Batches:         st.Batches - before.Batches,
		PerShard:        st.PerShard,
		Queries:         ds.Queries,
		QueriesPerSec:   float64(ds.Queries) / ds.Elapsed.Seconds(),
		Query:           ds.Query,
		LiveVersions:    st.LiveVersions,
		RetiredVersions: st.RetiredVersions - before.RetiredVersions,
		FinalStamps:     stamps,
		FlatBuilds:      st.FlatBuilds - before.FlatBuilds,
		FlatPatches:     st.FlatPatches - before.FlatPatches,
		FlatHits:        st.FlatHits - before.FlatHits,
		StitchBuilds:    st.StitchBuilds - before.StitchBuilds,
		StitchPatches:   st.StitchPatches - before.StitchPatches,
		StitchHits:      st.StitchHits - before.StitchHits,
	}
	for _, es := range st.PerShard {
		if es.Commit.P99 >= rep.CommitWorst.P99 {
			rep.CommitWorst = es.Commit
		}
	}
	for i, k := range w.Kernels {
		rep.PerKernel = append(rep.PerKernel, stream.KernelStat{Name: k.Name, Latency: ds.PerKernel[i]})
	}
	sort.Slice(rep.PerKernel, func(i, j int) bool { return rep.PerKernel[i].Name < rep.PerKernel[j].Name })
	return rep
}
