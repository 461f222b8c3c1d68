package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
	"repro/internal/obs"
	"repro/internal/stream"
)

type graphEngine = stream.Engine[aspen.Graph, aspen.Edge]

// graphOps are the functions a durable unweighted engine is built from:
// the same insert, remove, flatten, patch and checkpoint codec that
// stream.RecoverGraphEngine and its flat wiring register.
type graphOps struct {
	insert, remove func(aspen.Graph, []aspen.Edge) aspen.Graph
	flatten        func(aspen.Graph) ligra.Graph
	patch          func(ligra.Graph, aspen.Graph) ligra.Graph
	snap           stream.SnapshotCodec[aspen.Graph]
}

func plainOps(p ctree.Params) graphOps {
	return graphOps{
		insert:  func(g aspen.Graph, b []aspen.Edge) aspen.Graph { return g.InsertEdges(b) },
		remove:  func(g aspen.Graph, b []aspen.Edge) aspen.Graph { return g.DeleteEdges(b) },
		flatten: func(g aspen.Graph) ligra.Graph { return aspen.BuildFlatSnapshot(g) },
		patch: func(prev ligra.Graph, g aspen.Graph) ligra.Graph {
			if fs, ok := prev.(*aspen.FlatSnapshot); ok {
				return aspen.PatchFlatSnapshot(fs, g)
			}
			return aspen.BuildFlatSnapshot(g)
		},
		snap: stream.GraphSnapshotCodec(p),
	}
}

// openEngine recovers a fresh durable engine on dir with g0 as its base,
// per-commit fsync and the default checkpoint cadence. A non-nil probe
// wraps every function with span recording.
func openEngine(p ctree.Params, g0 aspen.Graph, dir string, opts stream.Options, pr *probe) (*graphEngine, error) {
	ops := plainOps(p)
	if pr != nil {
		ops = pr.wrap(ops)
		opts.TraceSlow = time.Nanosecond // every commit's stage record reaches the ring
	}
	eng, err := stream.Recover(g0, ops.insert, ops.remove, opts,
		stream.Durability{Dir: dir, Policy: stream.SyncEveryCommit}, stream.EdgeCodec, ops.snap)
	if err != nil {
		return nil, err
	}
	eng.SetFlatten(ops.flatten)
	if opts.PatchFlat {
		eng.SetFlatPatcher(ops.patch)
	}
	if pr != nil {
		pr.attach(eng, opts.PrebuildFlat)
	}
	return eng, nil
}

type interval struct{ start, end time.Time }

// probe times one engine's layers from outside: the wrapped insert
// (aspen.insert_edges), flatten and patch (aspen.flat_build,
// aspen.flat_patch) and checkpoint writer (graphio.checkpoint_write),
// plus the engine's own stage record of every commit (queue, WAL append,
// fsync), polled from Engine.Tracer(). finish assembles them into one
// stream.commit span per stamp with the stages as its children.
type probe struct {
	tr    *tracer
	shard int

	eng      *graphEngine
	prebuild bool
	base     uint64 // engine stamp before the first commit

	mu      sync.Mutex
	applied uint64 // insert calls so far; commit k publishes stamp base+k
	inserts map[uint64]interval
	flats   map[uint64]interval
	full    map[uint64]bool // flat at that stamp was a full build
	stages  map[uint64][obs.NumStages]time.Duration

	stop, done chan struct{}
}

func newProbe(tr *tracer, shard int) *probe {
	return &probe{
		tr: tr, shard: shard,
		inserts: make(map[uint64]interval),
		flats:   make(map[uint64]interval),
		full:    make(map[uint64]bool),
		stages:  make(map[uint64][obs.NumStages]time.Duration),
	}
}

func (pr *probe) wrap(o graphOps) graphOps {
	w := o
	w.insert = func(g aspen.Graph, b []aspen.Edge) aspen.Graph {
		t := time.Now()
		out := o.insert(g, b)
		end := time.Now()
		pr.mu.Lock()
		pr.applied++
		pr.inserts[pr.base+pr.applied] = interval{t, end}
		pr.mu.Unlock()
		return out
	}
	w.flatten = func(g aspen.Graph) ligra.Graph {
		t := time.Now()
		out := o.flatten(g)
		pr.flat(interval{t, time.Now()}, true)
		return out
	}
	w.patch = func(prev ligra.Graph, g aspen.Graph) ligra.Graph {
		t := time.Now()
		out := o.patch(prev, g)
		pr.flat(interval{t, time.Now()}, false)
		return out
	}
	w.snap.Write = func(wr io.Writer, g aspen.Graph) error {
		t := time.Now()
		err := o.snap.Write(wr, g)
		var stamp uint64
		pr.mu.Lock()
		if pr.eng != nil {
			stamp = pr.eng.Stamp()
		}
		pr.mu.Unlock()
		pr.tr.add("graphio.checkpoint_write", t, time.Now(), 0, stamp, pr.shard)
		return err
	}
	return w
}

// flat records one flat-view materialization. Under PrebuildFlat the
// ingest goroutine builds each commit's view right after its insert, so
// the view belongs to the latest commit's stamp; lazily built views (and
// the set-up build of the base) are roots of their own.
func (pr *probe) flat(iv interval, full bool) {
	pr.mu.Lock()
	if pr.prebuild && pr.applied > 0 {
		stamp := pr.base + pr.applied
		pr.flats[stamp] = iv
		pr.full[stamp] = full
		pr.mu.Unlock()
		return
	}
	pr.mu.Unlock()
	name := "aspen.flat_patch"
	if full {
		name = "aspen.flat_build"
	}
	pr.tr.add(name, iv.start, iv.end, 0, 0, pr.shard)
}

// attach binds the probe to its engine and starts polling the stage ring.
func (pr *probe) attach(eng *graphEngine, prebuild bool) {
	pr.mu.Lock()
	pr.eng, pr.prebuild, pr.base = eng, prebuild, eng.Stamp()
	pr.mu.Unlock()
	pr.stop, pr.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pr.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pr.stop:
				pr.collect()
				return
			case <-tick.C:
				pr.collect()
			}
		}
	}()
}

// collect copies new commit stage records out of the engine's ring.
func (pr *probe) collect() {
	traces, _ := pr.eng.Tracer().Slow()
	pr.mu.Lock()
	for _, t := range traces {
		if _, ok := pr.stages[t.Stamp]; !ok {
			pr.stages[t.Stamp] = t.Durs
		}
	}
	pr.mu.Unlock()
}

// finish stops the poller and emits the commit spans. The engine times
// its stages back to back, so the queue, WAL append and fsync stages are
// laid out before the insert span (the apply stage) and the ack after
// the flat stage. It returns how many commits had no stage record.
func (pr *probe) finish() int {
	if pr.stop == nil {
		return 0
	}
	close(pr.stop)
	<-pr.done
	pr.stop = nil
	pr.mu.Lock()
	defer pr.mu.Unlock()
	stamps := make([]uint64, 0, len(pr.inserts))
	for s := range pr.inserts {
		stamps = append(stamps, s)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	lost := 0
	for _, s := range stamps {
		ins := pr.inserts[s]
		fl, hasFlat := pr.flats[s]
		d, ok := pr.stages[s]
		if !ok {
			lost++
		}
		queue := d[obs.StageEnqueue] + d[obs.StageCoalesce]
		start := ins.start.Add(-(queue + d[obs.StageWALAppend] + d[obs.StageFsync]))
		end := ins.end
		if hasFlat && fl.end.After(end) {
			end = fl.end
		}
		end = end.Add(d[obs.StageAck])
		id := pr.tr.add("stream.commit", start, end, 0, s, pr.shard)
		t := start
		for _, st := range []struct {
			name string
			dur  time.Duration
		}{{"stream.queue", queue}, {"wal.append", d[obs.StageWALAppend]}, {"wal.fsync", d[obs.StageFsync]}} {
			if st.dur > 0 {
				pr.tr.add(st.name, t, t.Add(st.dur), id, s, pr.shard)
			}
			t = t.Add(st.dur)
		}
		pr.tr.add("aspen.insert_edges", ins.start, ins.end, id, s, pr.shard)
		if hasFlat {
			name := "aspen.flat_patch"
			if pr.full[s] {
				name = "aspen.flat_build"
			}
			pr.tr.add(name, fl.start, fl.end, id, s, pr.shard)
		}
	}
	return lost
}
