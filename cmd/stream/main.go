// Command stream reproduces the paper's §7.8 experiment on the live-stream
// engine: N reader goroutines issue analytics queries (BFS/CC/SSSP) against
// pinned snapshots while a single writer sustains batched edge inserts and
// deletes, reporting update throughput and p50/p95/p99 commit and query
// latencies. Examples:
//
//	stream -scale 17 -init 1000000 -batch 5000 -readers 1,4,8 -duration 5s
//	stream -weighted -algos bfs,sssp -readers 4
//	stream -quick -json BENCH_pr3_stream.json -merge bench_snap.json
//
// With -shards the driver instead runs the PR-5 sharded-ingest sweep
// (shard counts × reader counts × saturated, plus paced when -interval is
// set), comparing multi-writer clusters against the single-engine
// baseline (shard count 1):
//
//	stream -scale 16 -init 500000 -shards 1,2,4 -readers 1,4 -interval 20ms
//	stream -quick -shards 2 -partition hash -priority 64
//
// With -json the results are written as a BENCH_*.json document; -merge
// folds the "benchmarks" array of an existing snapshot (produced with
// `cmd/benchdiff -out`) into the same file so one document carries both
// the §7.8 reproduction and the CI-gated benchmark metrics.
//
// -obs-addr mounts the observability plane for the whole process:
// Prometheus-text /metrics for the current run's engine (or sharded
// cluster, or remote client), JSON /statusz with the commit stage
// breakdown and slow-commit traces, /healthz, and /debug/pprof.
// -trace-slow <dur> additionally captures every commit slower than
// <dur> into a bounded ring and dumps it (per-stage: enqueue, coalesce,
// wal_append, fsync, apply, flat_patch, ack) after each run:
//
//	stream -quick -obs-addr 127.0.0.1:9090 -trace-slow 2ms -duration 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/shard/remote"
	"repro/internal/stream"
	"repro/internal/xhash"
)

func main() {
	var (
		scale    = flag.Int("scale", 17, "log2 of the vertex-id space")
		initE    = flag.Uint64("init", 1_000_000, "rMAT edges sampled for the initial graph")
		batch    = flag.Uint64("batch", 5_000, "edges per update batch (before symmetrization)")
		readers  = flag.String("readers", "1,4", "comma list of concurrent reader counts to sweep")
		duration = flag.Duration("duration", 3*time.Second, "sustained load per run")
		weighted = flag.Bool("weighted", false, "serve aspen.WeightedGraph instead of aspen.Graph")
		algoList = flag.String("algos", "", "comma list of kernels: bfs,cc,sssp (default bfs,cc; bfs,sssp when -weighted)")
		queueCap = flag.Int("queue", 256, "ingest queue capacity (batches)")
		coalesce = flag.Int("coalesce", 32, "max batches folded into one commit")
		isolate  = flag.Bool("isolate", true, "also run update-only and query-only baselines")
		flat     = flag.Bool("flat", true, "run kernels on the per-version cached flat view (§5.1)")
		prebuild = flag.Bool("prebuild-flat", false, "build each version's flat view on commit instead of lazily on first query")
		patch    = flag.Bool("patch-flat", false, "derive each version's flat view from its predecessor's by O(batch) copy-on-write patching instead of O(n) rebuilds")
		incCC    = flag.Bool("inc-cc", false, "maintain incremental connectivity on the commit path and query it as an extra kernel (single-engine runs)")
		delmix   = flag.Uint64("delmix", 10, "delete-batch period of the writer schedule: one delete every N batches (10 = the classic 9:1 mix, 2 = delete-heavy expiry)")
		interval = flag.Duration("interval", 0, "pace the writer to one batch per interval (0 = saturate)")
		shards   = flag.String("shards", "", "comma list of shard counts: run the PR-5 sharded-ingest sweep instead of the single-engine sweep (1 = plain engine baseline)")
		connect  = flag.String("connect", "", "comma list of shardd primary addresses: drive a remote cluster (PR 8) instead of in-process engines")
		readFrom = flag.String("read-from", "", "comma list of shardd replica addresses (one per -connect shard, empty entries allowed)")
		dialTO   = flag.Duration("dial-timeout", 0, "remote: one dial attempt's timeout (0 = default 1s)")
		rpcDL    = flag.Duration("rpc-deadline", 0, "remote: per-RPC response deadline (0 = default 10s, negative disables)")
		retryDL  = flag.Duration("retry-deadline", 0, "remote: total retry budget per submit before its error surfaces (0 = default 2m)")
		maxStale = flag.Duration("max-stale", 0, "remote: when a shard is fully unreachable, serve its last cached view if at most this old (0 = fail the read instead)")
		partKind = flag.String("partition", "range", "shard partitioner: range or hash")
		priority = flag.Int("priority", 0, "priority-lane threshold in edges (0 disables the small-batch lane)")
		quick    = flag.Bool("quick", false, "tiny smoke-test configuration")
		jsonOut  = flag.String("json", "", "write results as a BENCH_*.json document")
		jsonTag  = flag.String("tag", "stream", "tag recorded in the -json document")
		mergeIn  = flag.String("merge", "", "snapshot file whose benchmarks array is merged into -json")
		seed     = flag.Uint64("seed", 42, "rMAT stream seed")

		dataDir  = flag.String("data", "", "durability directory: WAL + checkpoints; recovers existing state on start")
		fsyncPol = flag.String("fsync", "interval", "WAL fsync policy with -data: per-commit, interval, or off")
		fsyncInt = flag.Duration("fsync-every", 20*time.Millisecond, "fsync interval under -fsync interval")
		ckptEv   = flag.Int("ckpt-every", 256, "checkpoint after this many commits with -data")
		recOnly  = flag.Bool("recover-only", false, "recover -data, report what survived, and exit")
		killN    = flag.Int("killtest", 0, "ingest N deterministic durable batches into -data, printing an ack line per commit (crash-harness mode)")

		obsAddr   = flag.String("obs-addr", "", "observability listen address serving /metrics, /statusz, /healthz and /debug/pprof (empty disables)")
		traceSlow = flag.Duration("trace-slow", 0, "capture per-stage breakdowns of commits slower than this; dumped after each run and served via /statusz (0 disables)")
	)
	flag.Parse()
	if *killN > 0 {
		if *dataDir == "" {
			fatal("-killtest requires -data")
		}
		runKillTest(*dataDir, *killN)
		return
	}
	if *recOnly {
		if *dataDir == "" {
			fatal("-recover-only requires -data")
		}
		runRecoverOnly(*dataDir, *weighted)
		return
	}
	if *quick {
		// Shrink only the flags the user did not set explicitly.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		quickDefaults := []struct {
			name  string
			apply func()
		}{
			{"scale", func() { *scale = 12 }},
			{"init", func() { *initE = 40_000 }},
			{"batch", func() { *batch = 1_000 }},
			{"duration", func() { *duration = 300 * time.Millisecond }},
			{"readers", func() { *readers = "2" }},
		}
		for _, d := range quickDefaults {
			if !set[d.name] {
				d.apply()
			}
		}
	}
	if *algoList == "" {
		if *weighted {
			*algoList = "bfs,sssp"
		} else {
			*algoList = "bfs,cc"
		}
	}
	readerCounts, err := parseInts(*readers)
	if err != nil {
		fatal("bad -readers: %v", err)
	}
	if *scale < 1 || *scale > 31 {
		fatal("-scale must be in [1, 31] (vertex ids are uint32)")
	}

	if *delmix == 1 {
		fatal("-delmix must be 0 (inserts only) or ≥ 2")
	}
	cfg := config{
		Scale: *scale, InitEdges: *initE, Batch: *batch, Weighted: *weighted,
		Algos: *algoList, QueueCap: *queueCap, MaxCoalesce: *coalesce,
		Flat: *flat, PrebuildFlat: *prebuild, PatchFlat: *patch,
		IncCC: *incCC, DelPeriod: *delmix, Priority: *priority,
		Partition:  *partKind,
		DurationNS: duration.Nanoseconds(), IntervalNS: interval.Nanoseconds(),
		Seed: *seed, Procs: runtime.GOMAXPROCS(0),
		Data: *dataDir, Fsync: *fsyncPol,
		FsyncIntervalNS: fsyncInt.Nanoseconds(), CkptEvery: *ckptEv,
		TraceSlowNS: traceSlow.Nanoseconds(),
	}
	startObs(*obsAddr)
	fmt.Printf("stream: scale=%d init=%d batch=%d weighted=%v algos=%s flat=%v patch=%v inc-cc=%v delmix=%d procs=%d\n",
		*scale, *initE, *batch, *weighted, *algoList, *flat, *patch, *incCC, *delmix, cfg.Procs)

	// Graceful shutdown: SIGINT/SIGTERM stops the in-flight run early (the
	// writer quits, submitted batches flush, readers drain) and skips the
	// rest of the sweep; durable engines still close cleanly, writing a
	// final checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stop := ctx.Done()

	if *connect != "" {
		if *shards != "" || *dataDir != "" {
			fatal("-connect drives remote shardd processes; -shards/-data do not apply")
		}
		ro := remote.Options{
			DialTimeout:   *dialTO,
			RPCDeadline:   *rpcDL,
			RetryDeadline: *retryDL,
			MaxStaleness:  *maxStale,
		}
		runRemote(ctx, cfg, *connect, *readFrom, ro, readerCounts, *duration,
			time.Duration(cfg.IntervalNS), *jsonOut, *jsonTag, *mergeIn)
		return
	}
	if *readFrom != "" || *dialTO != 0 || *rpcDL != 0 || *retryDL != 0 || *maxStale != 0 {
		fatal("-read-from/-dial-timeout/-rpc-deadline/-retry-deadline/-max-stale require -connect")
	}

	if *shards != "" {
		if *dataDir != "" {
			fatal("-data applies to the single-engine sweep (shard durability is driven through the library)")
		}
		shardCounts, err := parseInts(*shards)
		if err != nil {
			fatal("bad -shards: %v", err)
		}
		sruns := shardSweep(ctx, cfg, shardCounts, readerCounts, *duration, time.Duration(cfg.IntervalNS))
		if *jsonOut != "" {
			writeShardJSON(*jsonOut, *jsonTag, *mergeIn, cfg, sruns)
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return
	}

	dr := driverFor(*weighted)
	var runs []runResult
	addRun := func(rr runResult) {
		printRun(rr)
		runs = append(runs, rr)
	}
	interrupted := func() bool {
		if ctx.Err() != nil {
			fmt.Println("stream: interrupted, skipping remaining runs")
			return true
		}
		return false
	}
	if *isolate && !interrupted() {
		addRun(dr.oneRun(cfg, 0, "update-only", *duration, true, stop))
	}
	for _, r := range readerCounts {
		if interrupted() {
			break
		}
		addRun(dr.oneRun(cfg, r, fmt.Sprintf("%d readers", r), *duration, true, stop))
	}
	if *isolate && !interrupted() {
		last := readerCounts[len(readerCounts)-1]
		addRun(dr.oneRun(cfg, last, fmt.Sprintf("query-only (%d readers)", last), *duration, false, stop))
	}

	if *jsonOut != "" {
		writeJSON(*jsonOut, *jsonTag, *mergeIn, cfg, runs)
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// config records the experiment parameters in the JSON document.
type config struct {
	Scale        int    `json:"scale"`
	InitEdges    uint64 `json:"init_edges"`
	Batch        uint64 `json:"batch"`
	Weighted     bool   `json:"weighted"`
	Algos        string `json:"algos"`
	QueueCap     int    `json:"queue_cap"`
	MaxCoalesce  int    `json:"max_coalesce"`
	Flat         bool   `json:"flat"`
	PrebuildFlat bool   `json:"prebuild_flat"`
	PatchFlat    bool   `json:"patch_flat"`
	IncCC        bool   `json:"inc_cc"`
	DelPeriod    uint64 `json:"del_period"`
	Priority     int    `json:"priority_edges"`
	Partition    string `json:"partition"`
	DurationNS   int64  `json:"duration_ns"`
	IntervalNS   int64  `json:"interval_ns"`
	Seed         uint64 `json:"seed"`
	Procs        int    `json:"procs"`

	// Durability settings (-data empty means in-memory).
	Data            string `json:"data_dir,omitempty"`
	Fsync           string `json:"fsync,omitempty"`
	FsyncIntervalNS int64  `json:"fsync_interval_ns,omitempty"`
	CkptEvery       int    `json:"ckpt_every,omitempty"`

	// TraceSlowNS is the -trace-slow slow-commit threshold (0 = off).
	TraceSlowNS int64 `json:"trace_slow_ns,omitempty"`
}

// durability translates the config into a stream.Durability (Data must be
// non-empty).
func (cfg config) durability() stream.Durability {
	return durabilityFlags{
		dir: cfg.Data, policy: cfg.Fsync,
		fsyncInt: time.Duration(cfg.FsyncIntervalNS), ckptEvery: cfg.CkptEvery,
	}.build()
}

type runResult struct {
	Name   string        `json:"name"`
	Report stream.Report `json:"report"`
	// IncCC carries the incremental-connectivity maintenance counters when
	// the run kept a standing algos.IncrementalCC on the commit path.
	IncCC *algos.IncrementalCCStats `json:"inc_cc,omitempty"`
}

// weightOf derives a deterministic non-negative weight for stream edge i.
func weightOf(i uint64) float32 {
	return 1 + float32(xhash.Mix64(i)%1000)/1000
}

// driver is the payload-dependent half of the command: every experiment
// that builds graphs or edges goes through it. driverFor picks its
// instantiation from the -weighted flag.
type driver interface {
	oneRun(cfg config, readers int, name string, d time.Duration, withWriter bool, stop <-chan struct{}) runResult
	oneShardRun(cfg config, s, readers int, d, pace time.Duration, stop <-chan struct{}) shard.Report
	dialRemote(cfg config, part shard.Partitioner, primaries, replicas []string, ro remote.Options,
		d time.Duration, stop <-chan struct{}) (run func(readers int, pace time.Duration) remote.Report, closeFn func())
	recoverOnly(dir string) (n, m, stamp uint64, err error)
}

// driverFor returns the float32-weighted driver under -weighted, the
// id-only one otherwise.
func driverFor(weighted bool) driver {
	if weighted {
		return graphDriver[float32]{val: weightOf}
	}
	return graphDriver[struct{}]{val: func(uint64) struct{} { return struct{}{} }}
}

// graphDriver runs the experiments over aspen graphs whose stream edge i
// carries payload val(i).
type graphDriver[V ctree.Value] struct {
	val func(i uint64) V
}

// edges maps directed edge ranges of the generator onto symmetrized
// updates.
func (dr graphDriver[V]) edges(gen rmat.Generator) func(lo, hi uint64) []aspen.EdgeOf[V] {
	return func(lo, hi uint64) []aspen.EdgeOf[V] {
		es := gen.Edges(lo, hi)
		out := make([]aspen.EdgeOf[V], len(es))
		for j, e := range es {
			out[j] = aspen.EdgeOf[V]{Val: dr.val(lo + uint64(j)), Src: e.Src, Dst: e.Dst}
		}
		return aspen.MakeUndirected(out)
	}
}

// preload pushes the initial edge set through a durable engine's own
// ingest path in moderate chunks (so it is WAL-logged and checkpointed like
// any other batch) and flushes.
func preload[G ligra.Graph, E any](e *stream.Engine[G, E], edges []E) {
	const chunk = 1 << 17
	for lo := 0; lo < len(edges); lo += chunk {
		hi := min(lo+chunk, len(edges))
		if _, err := e.Insert(edges[lo:hi]); err != nil {
			fatal("preload: %v", err)
		}
	}
	if _, err := e.Flush(); err != nil {
		fatal("preload flush: %v", err)
	}
	if err := e.Err(); err != nil {
		fatal("preload: %v", err)
	}
}

// closeEngine closes e and, when durable, reports the WAL/checkpoint work
// the run generated (Close writes a final checkpoint).
func closeEngine[G ligra.Graph, E any](e *stream.Engine[G, E]) {
	st := e.Stats()
	e.Close()
	if err := e.Err(); err != nil {
		fatal("durability failure: %v", err)
	}
	if st.Durable {
		fin := e.Stats()
		fmt.Printf("durability: %d WAL appends, %d fsyncs, %d MiB logged, %d checkpoints (final on close)\n",
			fin.WAL.Appends, fin.WAL.Syncs, fin.WAL.Bytes>>20, fin.Checkpoints)
	}
}

// oneRun executes one run: combined writer+readers, update-only
// (readers == 0), or query-only (withWriter == false, the isolated
// query-latency baseline). With cfg.Data set the engine is durable: it
// recovers the directory's prior state, logs every commit, and writes a
// final checkpoint on close; stop (when non-nil) ends the run early.
func (dr graphDriver[V]) oneRun(cfg config, readers int, name string, d time.Duration, withWriter bool, stop <-chan struct{}) runResult {
	edges := dr.edges(rmat.NewGenerator(cfg.Scale, cfg.Seed))
	opts := stream.Options{QueueCap: cfg.QueueCap, MaxCoalesce: cfg.MaxCoalesce,
		PrebuildFlat: cfg.PrebuildFlat, PatchFlat: cfg.PatchFlat, PriorityEdges: cfg.Priority,
		TraceSlow: time.Duration(cfg.TraceSlowNS)}
	var e *stream.Engine[aspen.GraphOf[V], aspen.EdgeOf[V]]
	if cfg.Data != "" {
		var err error
		e, err = stream.RecoverGraphEngineOf[V](ctree.DefaultParams(), opts, cfg.durability())
		if err != nil {
			fatal("recover %s: %v", cfg.Data, err)
		}
		preload(e, edges(0, cfg.InitEdges))
	} else {
		e = stream.NewGraphEngine(aspen.NewGraphOf[V](ctree.DefaultParams()).InsertEdges(edges(0, cfg.InitEdges)), opts)
	}
	var ccq *algos.IncrementalCC
	if cfg.IncCC {
		// Attached after the preload flush (ingest is quiescent here):
		// the bootstrap covers the initial graph, the commit hook
		// everything after.
		ccq = stream.AttachGraphIncrementalCC(e)
	}
	mountEngineObs(e)
	w := stream.Workload[aspen.GraphOf[V], aspen.EdgeOf[V]]{
		Engine:   e,
		Readers:  readers,
		Kernels:  engineKernels[aspen.GraphOf[V]](cfg, ccq),
		Duration: d,
		Interval: time.Duration(cfg.IntervalNS),
		UseFlat:  cfg.Flat,
		Stop:     stop,
	}
	if withWriter {
		w.NextBatch = stream.UpdateScheduleMix(cfg.InitEdges, cfg.Batch, cfg.DelPeriod, edges)
	}
	rep := w.Run()
	if cfg.TraceSlowNS > 0 {
		dumpSlowTraces(e.Tracer(), time.Duration(cfg.TraceSlowNS))
	}
	closeEngine(e)
	rr := runResult{Name: name, Report: rep}
	if ccq != nil {
		st := ccq.Stats()
		rr.IncCC = &st
	}
	return rr
}

// srcCycler varies kernel sources deterministically across calls; shared
// by every reader goroutine, hence the atomic counter.
func srcCycler(n uint32) func() uint32 {
	var i atomic.Uint64
	return func() uint32 {
		return uint32(xhash.Seeded(13, i.Add(1)) % uint64(n))
	}
}

// engineKernels lifts the -algos kernels to an engine's snapshot type G,
// plus the standing inc-cc query when one is maintained.
func engineKernels[G ligra.Graph](cfg config, ccq *algos.IncrementalCC) []stream.Kernel[G] {
	var ks []stream.Kernel[G]
	for _, k := range kernels(cfg) {
		ks = append(ks, stream.Kernel[G]{Name: k.Name, Run: func(g G) { k.Run(g) }, RunFlat: k.Run})
	}
	if ccq != nil {
		// The standing structure answers from its arrays — no kernel run,
		// no transaction snapshot needed; its latency row is the point.
		src := srcCycler(uint32(1) << cfg.Scale)
		ks = append(ks, stream.Kernel[G]{Name: "inccc",
			Run:     func(G) { ccq.Component(src()) },
			RunFlat: func(ligra.Graph) { ccq.Component(src()) }})
	}
	return ks
}

// shardRunResult is one entry of the PR-5 sharded sweep.
type shardRunResult struct {
	Name   string       `json:"name"`
	Shards int          `json:"shards"`
	Report shard.Report `json:"report"`
}

// shardSweep runs the PR-5 experiment: shard counts × reader counts ×
// {saturated, paced (when -interval is set)}. Shard count 1 runs the plain
// single engine — the baseline every speedup is quoted against.
func shardSweep(ctx context.Context, cfg config, shardCounts, readerCounts []int, d, interval time.Duration) []shardRunResult {
	var out []shardRunResult
	paceModes := []time.Duration{0}
	if interval > 0 {
		paceModes = append(paceModes, interval)
	}
	stop := ctx.Done()
	for _, pace := range paceModes {
		mode := "saturated"
		if pace > 0 {
			mode = fmt.Sprintf("paced %v", pace)
		}
		for _, r := range readerCounts {
			// Speedups are quoted against the single-engine run of the
			// same reader count and pace mode — like against like.
			var base float64
			for _, s := range shardCounts {
				if ctx.Err() != nil {
					fmt.Println("stream: interrupted, skipping remaining runs")
					return out
				}
				name := fmt.Sprintf("%d shards, %d readers, %s", s, r, mode)
				var rep shard.Report
				if s <= 1 {
					name = fmt.Sprintf("single engine, %d readers, %s", r, mode)
					rep = oneShardRunSingle(cfg, r, d, pace, stop)
					base = rep.UpdatesPerSec
				} else {
					rep = driverFor(cfg.Weighted).oneShardRun(cfg, s, r, d, pace, stop)
				}
				printShardRun(name, rep, base)
				out = append(out, shardRunResult{Name: name, Shards: max(s, 1), Report: rep})
			}
		}
	}
	return out
}

// shardPartitioner builds the requested partitioner over the id space.
func shardPartitioner(cfg config, s int) shard.Partitioner {
	if cfg.Partition == "hash" {
		return shard.NewHashPartitioner(s)
	}
	return shard.NewRangePartitioner(s, uint32(1)<<cfg.Scale)
}

// kernels adapts the -algos list to ligra.Graph views (tree snapshots,
// flat and stitched views alike; weighted kernels type-assert).
func kernels(cfg config) []shard.Kernel {
	n := uint32(1) << cfg.Scale
	var ks []shard.Kernel
	for _, a := range strings.Split(cfg.Algos, ",") {
		switch strings.TrimSpace(a) {
		case "bfs":
			src := srcCycler(n)
			ks = append(ks, shard.Kernel{Name: "bfs",
				Run: func(g ligra.Graph) { algos.BFS(g, src(), false) }})
		case "cc":
			ks = append(ks, shard.Kernel{Name: "cc",
				Run: func(g ligra.Graph) { algos.ConnectedComponents(g) }})
		case "sssp":
			if !cfg.Weighted {
				fatal("sssp requires -weighted")
			}
			src := srcCycler(n)
			ks = append(ks, shard.Kernel{Name: "sssp",
				Run: func(g ligra.Graph) { algos.SSSP(g.(ligra.WeightedGraph), src()) }})
		default:
			fatal("unknown algo %q", a)
		}
	}
	return ks
}

// oneShardRun executes one sharded run at s shards.
func (dr graphDriver[V]) oneShardRun(cfg config, s, readers int, d, pace time.Duration, stop <-chan struct{}) shard.Report {
	edges := dr.edges(rmat.NewGenerator(cfg.Scale, cfg.Seed))
	part := shardPartitioner(cfg, s)
	opts := stream.Options{QueueCap: cfg.QueueCap, MaxCoalesce: cfg.MaxCoalesce,
		PrebuildFlat: cfg.PrebuildFlat, PatchFlat: cfg.PatchFlat, PriorityEdges: cfg.Priority,
		TraceSlow: time.Duration(cfg.TraceSlowNS)}
	// Initial load outside the serving path (NewGraphClusterFrom), matching
	// how the single-engine baseline preloads before engine construction —
	// counters and latency digests see only the stream.
	c := shard.NewGraphClusterFrom(part, ctree.DefaultParams(), edges(0, cfg.InitEdges), opts)
	mountClusterObs(c)
	w := shard.Workload[aspen.GraphOf[V], aspen.EdgeOf[V]]{
		Cluster: c, Readers: readers, Kernels: kernels(cfg),
		Duration: d, Interval: pace, UseFlat: cfg.Flat, Stop: stop,
		NextBatch: stream.UpdateScheduleMix(cfg.InitEdges, cfg.Batch, cfg.DelPeriod, edges),
	}
	rep := w.Run()
	c.Close()
	return rep
}

// oneShardRunSingle is the unsharded baseline of the sweep, reported in the
// sharded Report shape so the rows compare directly.
func oneShardRunSingle(cfg config, readers int, d, pace time.Duration, stop <-chan struct{}) shard.Report {
	pacedCfg := cfg
	pacedCfg.IntervalNS = pace.Nanoseconds()
	rr := driverFor(cfg.Weighted).oneRun(pacedCfg, readers, "baseline", d, true, stop)
	r := rr.Report
	return shard.Report{
		Shards: 1, Duration: r.Duration, Readers: r.Readers,
		Updates: r.Updates, UpdatesPerSec: r.UpdatesPerSec,
		Commits: r.Commits, Batches: r.Batches,
		CommitWorst: r.Commit,
		Queries:     r.Queries, QueriesPerSec: r.QueriesPerSec, Query: r.Query,
		PerKernel:    r.PerKernel,
		LiveVersions: r.LiveVersions, RetiredVersions: r.RetiredVersions,
		FinalStamps: []uint64{r.FinalStamp},
		FlatBuilds:  r.FlatBuilds, FlatPatches: r.FlatPatches, FlatHits: r.FlatHits,
	}
}

func printShardRun(name string, r shard.Report, base float64) {
	fmt.Printf("\n== %s ==\n", name)
	if r.Updates > 0 {
		speed := ""
		if base > 0 && r.Shards > 1 {
			speed = fmt.Sprintf(" (%.2fx vs single engine)", r.UpdatesPerSec/base)
		}
		fmt.Printf("updates: %.3g edges/sec%s (%d edges, %d batches, %d commits across %d shards)\n",
			r.UpdatesPerSec, speed, r.Updates, r.Batches, r.Commits, r.Shards)
		fmt.Printf("commit latency (worst shard): p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.CommitWorst.P50, r.CommitWorst.P95, r.CommitWorst.P99, r.CommitWorst.Max)
	}
	if r.Queries > 0 {
		fmt.Printf("queries: %.1f/sec across %d readers\n", r.QueriesPerSec, r.Readers)
		fmt.Printf("query latency:   p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.Query.P50, r.Query.P95, r.Query.P99, r.Query.Max)
	}
	fmt.Printf("versions: stamps %v, %d retired, %d live\n", r.FinalStamps, r.RetiredVersions, r.LiveVersions)
	if r.StitchBuilds+r.StitchPatches+r.StitchHits > 0 {
		fmt.Printf("stitched flat: %d builds, %d delta stitches, %d hits; per-shard flat: %d builds, %d patches, %d hits\n",
			r.StitchBuilds, r.StitchPatches, r.StitchHits, r.FlatBuilds, r.FlatPatches, r.FlatHits)
	}
}

// writeShardJSON writes the sharded sweep as a BENCH_*.json document
// (benchdiff reads the benchmarks array; the shard_experiment payload is
// the PR-5 record).
func writeShardJSON(path, tag, mergePath string, cfg config, runs []shardRunResult) {
	doc := shardBenchDoc{
		Tag: tag,
		Description: "Sharded serving layer sweep: multi-writer vertex-range shards with " +
			"consistent cross-shard snapshots (PR 5); shard count 1 is the plain single " +
			"engine. Benchmarks array gates allocs in CI via cmd/benchdiff.",
		Machine:    runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: json.RawMessage("[]"),
		Shard:      shardDoc{Config: cfg, Runs: runs},
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

type shardBenchDoc struct {
	Tag         string          `json:"tag"`
	Description string          `json:"description"`
	Machine     string          `json:"machine,omitempty"`
	Benchmarks  json.RawMessage `json:"benchmarks"`
	Shard       shardDoc        `json:"shard_experiment"`
}

type shardDoc struct {
	Config config           `json:"config"`
	Runs   []shardRunResult `json:"runs"`
}

func printRun(rr runResult) {
	name, r := rr.Name, rr.Report
	fmt.Printf("\n== %s ==\n", name)
	if r.Updates > 0 {
		fmt.Printf("updates: %.3g edges/sec (%d edges, %d batches, %d commits, coalesce %.2f)\n",
			r.UpdatesPerSec, r.Updates, r.Batches, r.Commits, r.Coalesce)
		fmt.Printf("commit latency:  p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.Commit.P50, r.Commit.P95, r.Commit.P99, r.Commit.Max)
	}
	if r.Queries > 0 {
		fmt.Printf("queries: %.1f/sec across %d readers\n", r.QueriesPerSec, r.Readers)
		fmt.Printf("query latency:   p50 %-10v p95 %-10v p99 %-10v max %v\n",
			r.Query.P50, r.Query.P95, r.Query.P99, r.Query.Max)
		for _, k := range r.PerKernel {
			fmt.Printf("  %-5s          p50 %-10v p95 %-10v p99 %-10v (%d runs)\n",
				k.Name, k.Latency.P50, k.Latency.P95, k.Latency.P99, k.Latency.Count)
		}
	}
	fmt.Printf("versions: %d published, %d retired+released, %d live\n",
		r.FinalStamp, r.RetiredVersions, r.LiveVersions)
	if r.FlatBuilds+r.FlatPatches+r.FlatHits > 0 {
		fmt.Printf("flat cache: %d builds, %d patches, %d hits (%.1f queries per materialization)\n",
			r.FlatBuilds, r.FlatPatches, r.FlatHits,
			float64(r.FlatBuilds+r.FlatPatches+r.FlatHits)/float64(max(r.FlatBuilds+r.FlatPatches, 1)))
	}
	if rr.IncCC != nil {
		fmt.Printf("inc-cc: %d unions, %d delete recomputes, %d vertices reverified\n",
			rr.IncCC.Unions, rr.IncCC.Recomputes, rr.IncCC.Reverified)
	}
}

// benchDoc is the on-disk BENCH_*.json shape: the benchdiff snapshot
// fields plus the §7.8 experiment payload (benchdiff ignores the extras).
type benchDoc struct {
	Tag         string          `json:"tag"`
	Description string          `json:"description"`
	Machine     string          `json:"machine,omitempty"`
	Benchmarks  json.RawMessage `json:"benchmarks"`
	Stream      streamDoc       `json:"stream_experiment"`
}

type streamDoc struct {
	Config config      `json:"config"`
	Runs   []runResult `json:"runs"`
}

func writeJSON(path, tag, mergePath string, cfg config, runs []runResult) {
	doc := benchDoc{
		Tag: tag,
		Description: "Live-stream engine §7.8 reproduction: concurrent readers + single writer " +
			"over epoch-refcounted snapshots, kernels on per-version cached flat views; " +
			"benchmarks array gates allocs in CI via cmd/benchdiff.",
		Machine:    runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: json.RawMessage("[]"),
		Stream:     streamDoc{Config: cfg, Runs: runs},
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("negative count %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stream: "+format+"\n", args...)
	os.Exit(1)
}
