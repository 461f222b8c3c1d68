package remote

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Workload drives the §7.8 experiment against a remote cluster: one
// writer goroutine routes batched updates over the wire while Readers
// goroutines pin version vectors and run kernels on stitched flat
// views fetched from the shard servers. The run loop is the shared
// stream.Drive, so measurement semantics match the in-process
// workloads by construction.
type Workload[E any] struct {
	Cluster *Cluster[E]
	// NextBatch returns the i-th update batch (del reports a deletion
	// batch). Writer-goroutine only; nil means an idle writer.
	NextBatch func(i uint64) (del bool, edges []E)
	// Readers is the number of concurrent query goroutines.
	Readers int
	// Kernels are cycled round-robin by every reader. Remote kernels
	// always see the stitched flat view.
	Kernels []shard.Kernel
	// Duration is how long the writer sustains updates.
	Duration time.Duration
	// Interval, when positive, paces the writer; zero saturates.
	Interval time.Duration
	// Stop, when non-nil, ends the run early once closed.
	Stop <-chan struct{}
}

// Report is the outcome of one remote workload run: client-observed
// throughput/latency plus the cluster client counters and each shard
// server's engine counters.
type Report struct {
	Shards        int           `json:"shards"`
	Duration      time.Duration `json:"duration_ns"`
	Readers       int           `json:"readers"`
	Updates       uint64        `json:"updates"`
	UpdatesPerSec float64       `json:"updates_per_sec"`
	Batches       uint64        `json:"batches"`

	Queries       uint64              `json:"queries"`
	QueriesPerSec float64             `json:"queries_per_sec"`
	Query         obs.LatencySummary  `json:"query_latency"`
	PerKernel     []stream.KernelStat `json:"per_kernel"`
	QueryErrs     uint64              `json:"query_errs,omitempty"`

	FinalStamps []uint64       `json:"final_stamps"`
	Client      Stats          `json:"client"`
	PerShard    []stream.Stats `json:"per_shard,omitempty"`

	// CommitWorst is the commit-latency digest of the shard server with
	// the highest p99 (engine-lifetime, like the in-process report).
	CommitWorst obs.LatencySummary `json:"commit_worst"`
}

// Run executes the workload and reports. The cluster is flushed but
// left open (Close it separately).
func (w *Workload[E]) Run() Report {
	before := w.Cluster.Stats()
	var stamps []uint64
	var queryErrs atomic.Uint64
	spec := stream.DriveSpec{
		Readers: w.Readers,
		Kernels: len(w.Kernels),
		RunKernel: func(k int) {
			tx, err := w.Cluster.Begin()
			if err != nil {
				queryErrs.Add(1)
				return
			}
			g, err := tx.Flat()
			if err != nil {
				queryErrs.Add(1)
				tx.Close()
				return
			}
			w.Kernels[k].Run(g)
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
			var p *Pending
			var err error
			if del {
				p, err = w.Cluster.Delete(edges)
			} else {
				p, err = w.Cluster.Insert(edges)
			}
			_ = p // acks drain through the in-flight window
			return err
		}
	}
	ds := stream.Drive(spec)

	st := w.Cluster.Stats()
	rep := Report{
		Shards:        st.Shards,
		Duration:      ds.Elapsed,
		Readers:       w.Readers,
		Updates:       st.Edges - before.Edges,
		UpdatesPerSec: float64(st.Edges-before.Edges) / ds.Elapsed.Seconds(),
		Batches:       st.Batches - before.Batches,
		Queries:       ds.Queries,
		QueriesPerSec: float64(ds.Queries) / ds.Elapsed.Seconds(),
		Query:         ds.Query,
		QueryErrs:     queryErrs.Load(),
		FinalStamps:   stamps,
		Client:        st,
	}
	if per, err := w.Cluster.ShardStats(); err == nil {
		rep.PerShard = per
		for _, es := range per {
			if es.Commit.P99 >= rep.CommitWorst.P99 {
				rep.CommitWorst = es.Commit
			}
		}
	}
	for i, k := range w.Kernels {
		rep.PerKernel = append(rep.PerKernel, stream.KernelStat{Name: k.Name, Latency: ds.PerKernel[i]})
	}
	sort.Slice(rep.PerKernel, func(i, j int) bool { return rep.PerKernel[i].Name < rep.PerKernel[j].Name })
	return rep
}
