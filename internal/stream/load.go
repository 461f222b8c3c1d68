package stream

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ligra"
	"repro/internal/obs"
)

// Kernel is a named analytics query run inside read transactions — any
// algos kernel (BFS, CC, SSSP, ...) closed over its parameters.
type Kernel[G ligra.Graph] struct {
	Name string
	// Run executes the kernel against the pinned tree snapshot.
	Run func(g G)
	// RunFlat, when set and the workload has UseFlat, executes against the
	// transaction's cached flat view (Tx.Flat) instead — the §5.1 fast path.
	// Weighted kernels type-assert the view to ligra.FlatWeightedGraph.
	RunFlat func(g ligra.Graph)
}

// Workload drives the paper's §7.8 experiment against a live engine: one
// writer goroutine sustains batched updates while Readers goroutines issue
// queries on pinned snapshots, for Duration. All latencies are measured
// end-to-end (commit: enqueue → visible; query: begin → close).
type Workload[G ligra.Graph, E any] struct {
	Engine *Engine[G, E]
	// NextBatch returns the i-th update batch of the stream (del reports
	// a deletion batch). Called only from the writer goroutine. Nil means
	// an idle writer (the query-only baseline).
	NextBatch func(i uint64) (del bool, edges []E)
	// Readers is the number of concurrent query goroutines.
	Readers int
	// Kernels are cycled round-robin by every reader.
	Kernels []Kernel[G]
	// Duration is how long the writer sustains updates; readers stop with
	// the writer.
	Duration time.Duration
	// Interval, when positive, paces the writer to one batch per Interval
	// (an offered-load experiment: commit latency is measured at that
	// rate). Zero saturates: submit as fast as the queue accepts
	// (latency then includes queue backpressure).
	Interval time.Duration
	// UseFlat routes kernels that define RunFlat through the per-version
	// cached flat view; kernels without RunFlat keep the tree snapshot.
	UseFlat bool
	// Stop, when non-nil, ends the run early once closed (graceful
	// shutdown): the writer stops submitting, everything already submitted
	// is flushed, and readers drain as usual.
	Stop <-chan struct{}
}

// UpdateSchedule returns the §7.8 writer schedule shared by cmd/stream
// and the bench harness: 9 insert batches of fresh generator edges
// followed by 1 delete batch replaying a recently inserted range (so
// deletions perform real work), repeating. start is the first unconsumed
// generator index, batch the edges drawn per batch, and mk materializes a
// generator range [lo, hi) as updates. The returned closure is
// single-goroutine (writer-only), like NextBatch.
func UpdateSchedule[E any](start, batch uint64, mk func(lo, hi uint64) []E) func(i uint64) (bool, []E) {
	return UpdateScheduleMix(start, batch, 10, mk)
}

// UpdateScheduleMix generalizes UpdateSchedule to an arbitrary delete
// frequency: one delete batch (replaying the oldest recently inserted
// range) every period batches — period 10 is the classic 9:1 mix, period 2
// the delete-heavy expiry mix that stresses the incremental-maintenance
// paths (flat-view patching, IncrementalCC splits). period < 2 (or a dry
// replay buffer) degenerates to inserts only; the buffer keeps a few spans
// in flight so deletes never chase the batch just inserted.
func UpdateScheduleMix[E any](start, batch, period uint64, mk func(lo, hi uint64) []E) func(i uint64) (bool, []E) {
	type span struct{ lo, hi uint64 }
	var recent []span
	pos := start
	return func(i uint64) (bool, []E) {
		if period >= 2 && i%period == period-1 && len(recent) > 4 {
			s := recent[0]
			recent = recent[1:]
			return true, mk(s.lo, s.hi)
		}
		lo := pos
		pos += batch
		recent = append(recent, span{lo, pos})
		return false, mk(lo, pos)
	}
}

// KernelStat pairs a kernel with its query-latency digest.
type KernelStat struct {
	Name    string             `json:"name"`
	Latency obs.LatencySummary `json:"latency"`
}

// Report is the outcome of one Workload run — the §7.8 numbers.
type Report struct {
	Duration      time.Duration `json:"duration_ns"`
	Readers       int           `json:"readers"`
	Updates       uint64        `json:"updates"`         // directed edge updates applied
	UpdatesPerSec float64       `json:"updates_per_sec"` // sustained, over Duration
	Commits       uint64        `json:"commits"`
	Batches       uint64        `json:"batches"`
	Coalesce      float64       `json:"coalesce_factor"` // batches per commit

	Commit obs.LatencySummary `json:"commit_latency"`

	Queries       uint64             `json:"queries"`
	QueriesPerSec float64            `json:"queries_per_sec"`
	Query         obs.LatencySummary `json:"query_latency"`
	PerKernel     []KernelStat       `json:"per_kernel"`

	// LiveVersions and RetiredVersions are sampled after the run drains:
	// live must be 1 (only the current version) when every reader exited,
	// proving retired snapshots were released.
	LiveVersions    int64  `json:"live_versions"`
	RetiredVersions uint64 `json:"retired_versions"`
	FinalStamp      uint64 `json:"final_stamp"`

	// FlatBuilds / FlatPatches / FlatHits prove the flat-cache contract
	// under load: with flat kernels, builds + patches ≤ versions published
	// + 1 (at most one materialization per committed version; under
	// Options.PatchFlat all but the first are O(batch) patches) while hits
	// cover every other query.
	FlatBuilds  uint64 `json:"flat_builds"`
	FlatPatches uint64 `json:"flat_patches,omitempty"`
	FlatHits    uint64 `json:"flat_hits"`
}

// DriveSpec parameterizes the shared §7.8 load loop (Drive) that both the
// single-engine Workload and the sharded cluster workload run: Readers
// goroutines cycle Kernels round-robin, each query through RunKernel,
// while one writer goroutine feeds Submit until the deadline — paced to
// Interval or saturated — and Flush then drains everything submitted.
// One implementation keeps the two workloads' measurement semantics
// identical by construction.
type DriveSpec struct {
	Readers int
	// Kernels is the number of kernels cycled; 0 disables readers.
	Kernels int
	// RunKernel executes one query against kernel k (begin a transaction,
	// run, close). Called concurrently from reader goroutines.
	RunKernel func(k int)
	// Submit enqueues update batch i; nil means an idle writer.
	Submit func(i uint64) error
	// Flush blocks until everything submitted has committed.
	Flush    func()
	Duration time.Duration
	Interval time.Duration
	// Stop, when non-nil, ends the loop early once closed: the writer
	// stops submitting (mid-sleep pacing waits are interrupted), Flush
	// still runs, and readers join as usual.
	Stop <-chan struct{}
}

// DriveStats is what the loop itself measures: wall time and query
// latencies. Callers fold in their engine or cluster counter deltas.
type DriveStats struct {
	Elapsed   time.Duration
	Queries   uint64
	Query     obs.LatencySummary
	PerKernel []obs.LatencySummary
}

// Drive runs the load loop to completion (writer deadline reached, flush
// drained, readers joined).
func Drive(s DriveSpec) DriveStats {
	kh := make([]*obs.Hist, s.Kernels)
	for i := range kh {
		kh[i] = &obs.Hist{}
	}
	var queryHist obs.Hist
	var queries atomic.Uint64
	var stop atomic.Bool

	var readerWG sync.WaitGroup
	readers := s.Readers
	if s.Kernels == 0 {
		readers = 0
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := r; !stop.Load(); i++ {
				k := i % s.Kernels
				t0 := time.Now()
				s.RunKernel(k)
				d := time.Since(t0)
				queryHist.Observe(d)
				kh[k].Observe(d)
				queries.Add(1)
			}
		}(r)
	}

	// sleep waits for d unless Stop closes first; reports whether the loop
	// should keep going.
	sleep := func(d time.Duration) bool {
		if s.Stop == nil {
			time.Sleep(d)
			return true
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-s.Stop:
			return false
		case <-t.C:
			return true
		}
	}
	stopped := func() bool {
		if s.Stop == nil {
			return false
		}
		select {
		case <-s.Stop:
			return true
		default:
			return false
		}
	}

	// Writer: pipeline batches through the bounded queue(s) until the
	// deadline, then flush so every submitted batch is committed.
	start := time.Now()
	deadline := start.Add(s.Duration)
	if s.Submit == nil {
		sleep(s.Duration)
	}
	for i := uint64(0); s.Submit != nil && time.Now().Before(deadline); i++ {
		if stopped() {
			break
		}
		if s.Interval > 0 {
			// Absolute schedule: batch i is due at start + i*Interval, so
			// a slow commit doesn't shift the whole offered load.
			if due := start.Add(time.Duration(i) * s.Interval); time.Until(due) > 0 {
				if !sleep(time.Until(due)) {
					break
				}
			}
		}
		if s.Submit(i) != nil {
			break
		}
	}
	s.Flush()
	elapsed := time.Since(start)
	stop.Store(true)
	readerWG.Wait()

	ds := DriveStats{
		Elapsed: elapsed,
		Queries: queries.Load(),
		Query:   queryHist.Summary(),
	}
	for _, h := range kh {
		ds.PerKernel = append(ds.PerKernel, h.Summary())
	}
	return ds
}

// Run executes the workload and reports. The engine is flushed but left
// open (Close it separately). Counters are reported as deltas over the
// run, so an engine that already served traffic (or was preloaded through
// its own ingest path) measures only this run's updates.
func (w *Workload[G, E]) Run() Report {
	before := w.Engine.Stats()
	var stamp uint64
	spec := DriveSpec{
		Readers: w.Readers,
		Kernels: len(w.Kernels),
		RunKernel: func(k int) {
			kn := w.Kernels[k]
			tx := w.Engine.Begin()
			if w.UseFlat && kn.RunFlat != nil {
				kn.RunFlat(tx.Flat())
			} else {
				kn.Run(tx.Graph())
			}
			tx.Close()
		},
		Flush:    func() { stamp, _ = w.Engine.Flush() },
		Duration: w.Duration,
		Interval: w.Interval,
		Stop:     w.Stop,
	}
	if w.NextBatch != nil {
		spec.Submit = func(i uint64) error {
			del, edges := w.NextBatch(i)
			var err error
			if del {
				_, err = w.Engine.Delete(edges)
			} else {
				_, err = w.Engine.Insert(edges)
			}
			return err
		}
	}
	ds := Drive(spec)

	st := w.Engine.Stats()
	runStats := Stats{Commits: st.Commits - before.Commits, Batches: st.Batches - before.Batches}
	rep := Report{
		Duration:        ds.Elapsed,
		Readers:         w.Readers,
		Updates:         st.Edges - before.Edges,
		UpdatesPerSec:   float64(st.Edges-before.Edges) / ds.Elapsed.Seconds(),
		Commits:         runStats.Commits,
		Batches:         runStats.Batches,
		Coalesce:        runStats.CoalesceFactor(),
		Commit:          st.Commit,
		Queries:         ds.Queries,
		QueriesPerSec:   float64(ds.Queries) / ds.Elapsed.Seconds(),
		Query:           ds.Query,
		LiveVersions:    st.LiveVersions,
		RetiredVersions: st.RetiredVersions - before.RetiredVersions,
		FinalStamp:      stamp,
		FlatBuilds:      st.FlatBuilds - before.FlatBuilds,
		FlatPatches:     st.FlatPatches - before.FlatPatches,
		FlatHits:        st.FlatHits - before.FlatHits,
	}
	for i, k := range w.Kernels {
		rep.PerKernel = append(rep.PerKernel, KernelStat{Name: k.Name, Latency: ds.PerKernel[i]})
	}
	sort.Slice(rep.PerKernel, func(i, j int) bool { return rep.PerKernel[i].Name < rep.PerKernel[j].Name })
	return rep
}
