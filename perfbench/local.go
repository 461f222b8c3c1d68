package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/stream"
)

// Shape of the local workloads: a scale-20 rMAT base of 1M samples
// (about 2.0M directed edges over 716k vertices) and one durable engine
// that prebuilds and patches every version's flat view.
const (
	localScale   = 20
	localInit    = 1_000_000
	setupReps    = 5 // set-ups per run; setup_s is their median
	smallBatch   = 10
	smallRate    = 50 // batches/s; at 200/s the ingest loop ran near saturation and the median moved 3–18 ms between runs
	bulkBatch    = 50_000
	bulkInterval = 750 * time.Millisecond // floor between bulk batch starts, above the batches' p99
	readsPerAck  = 5                      // reader queries after each ack
	readEdges    = 20                     // acked edges each reader query looks up
)

var localOpts = stream.Options{PrebuildFlat: true, PatchFlat: true}

func runSmallFresh(c runConfig) (*outcome, error) {
	return runLocal(c, smallBatch, smallRate)
}

func runBulkFresh(c runConfig) (*outcome, error) {
	return runLocal(c, bulkBatch, 0)
}

// setupLocal generates and loads the base, opens the engine and builds
// the base version's flat view: everything before the first batch.
func setupLocal(p ctree.Params, in edgeStream, dir string, pr *probe) (*graphEngine, error) {
	g0 := aspen.NewGraph(p).InsertEdges(in.base())
	eng, err := openEngine(p, g0, dir, localOpts, pr)
	if err != nil {
		return nil, err
	}
	tx := eng.Begin()
	tx.Flat()
	tx.Close()
	return eng, nil
}

// runLocal drives one durable engine: an open loop at rate batches/s, or
// with rate 0 a closed loop of one outstanding batch, at most one per
// bulkInterval.
func runLocal(c runConfig, batch uint64, rate int) (*outcome, error) {
	p := ctree.DefaultParams()
	in := newEdgeStream(localScale, c.seed, localInit, batch)

	var (
		eng    *graphEngine
		pr     *probe
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if eng != nil {
			eng.Close()
		}
		dir := filepath.Join(c.dataDir, "setup"+strconv.Itoa(r))
		if c.tr != nil && r == setupReps-1 {
			pr = newProbe(c.tr, 0)
		}
		t := time.Now()
		var err error
		if eng, err = setupLocal(p, in, dir, pr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer eng.Close()

	// Inputs are generated, and hashed, before they are due.
	h := sha256.New()
	var batches [][]aspen.Edge
	if rate > 0 {
		batches = in.batches(int(c.window.Seconds() * float64(rate)))
		for _, b := range batches {
			hashEdges(h, b)
		}
	}
	next := func(i int) []aspen.Edge {
		b := in.batch(i)
		hashEdges(h, b)
		return b
	}
	// acked hands the reader each batch as it is acknowledged; a batch
	// acked while the reader is still busy with the previous one is skipped.
	acked := make(chan []aspen.Edge, 1)
	send := func(b []aspen.Edge) (func() (uint64, error), error) {
		pend, err := eng.Insert(b)
		if err != nil {
			return nil, err
		}
		return func() (uint64, error) {
			if s := pend.Wait(); s != 0 {
				select {
				case acked <- b:
				default:
				}
				return s, nil
			}
			return 0, fmt.Errorf("batch nacked: %v", eng.Err())
		}, nil
	}

	runtime.GC()
	goStart := readGo()
	start := time.Now()
	var (
		queries []float64
		qFailed int
		readers sync.WaitGroup
	)
	readers.Add(1)
	go func() {
		defer readers.Done()
		queries, qFailed = ackReader(eng, acked, c.tr)
	}()
	var recs []batchRec
	queueDepth := 0
	if rate > 0 {
		recs = openLoop(batches, time.Second/time.Duration(rate), send,
			func() { queueDepth = eng.Stats().QueueDepth })
	} else {
		recs = closedLoop(c.window, bulkInterval, next, send)
	}
	close(acked) // every wait has returned: the loops drain their acks
	readers.Wait()
	phaseEnd := time.Now()
	goD := goStart.until(readGo())
	ls := digest(recs)
	fmt.Fprintf(c.log, "inputs: %d batches of %d samples, sha256 %x\n", len(recs), batch, h.Sum(nil))
	batches = nil

	out := &outcome{attempted: len(recs) + len(queries) + qFailed, failed: ls.failed + qFailed}
	lost := 0
	if pr != nil {
		lost = pr.finish()
	}
	stats := eng.Stats()
	mem := liveHeap()
	tx := eng.Begin()
	newest := tx.Graph()
	fb := flatBytes(tx.Flat())
	tx.Close()

	out.e2e = endToEndMetrics(e2eInputs{
		setups: setups, loop: ls, closed: rate == 0, queries: queries,
		memB: mem, edges: newest.NumEdges(),
	}, c.log)
	out.layer = make(map[string]metric)
	fillLayerMetrics(layerInputs{
		engines: []stream.Stats{stats}, queueDepth: queueDepth, late: ls.late, goD: goD,
		edgesAcked: ls.ackedEdges, graphs: []aspen.Graph{newest}, flatBytes: fb,
	}, out.layer)
	if c.tr != nil {
		traceBatches(c.tr, recs, "stream.submit", "")
		out.phase = [2]int64{c.tr.rel(start), c.tr.rel(phaseEnd)}
		layerMetrics(summarize(c.tr.spans, out.phase[0], out.phase[1]), phaseEnd.Sub(start), out.layer)
		out.lostStages = lost
	}

	// Reference: the base plus every acked batch, inserted directly.
	ref := aspen.NewGraph(p).InsertEdges(in.base()).InsertEdges(in.ackedEdges(ackedMask(recs)))
	out.correct = newest.Equal(ref)
	if !out.correct {
		fmt.Fprintf(c.log, "MISMATCH: engine has %d vertices / %d edges, reference %d / %d\n",
			newest.NumVertices(), newest.NumEdges(), ref.NumVertices(), ref.NumEdges())
	}
	if err := eng.Err(); err != nil {
		return nil, fmt.Errorf("engine failed: %w", err)
	}
	return out, nil
}

// edgeTrees is the lookup a reader query needs; the flat view and the
// tree snapshot both provide it.
type edgeTrees interface {
	EdgeTree(u uint32) (ctree.Set, bool)
}

// ackReader is the local workloads' reader: right after a batch is
// acknowledged it runs readsPerAck queries, each pinning the newest
// version, taking its flat view, looking up the batch's first readEdges
// edges and releasing the pin. An acknowledged edge must be visible to
// every later reader; a query that misses one failed. Reading right
// after the ack, while the next commit is typically not yet under way,
// keeps the queries off the window in which a just-published version's
// flat view is still being patched. It returns the latencies of the
// queries that succeeded and the number that failed.
func ackReader(eng *graphEngine, acked <-chan []aspen.Edge, tr *tracer) ([]float64, int) {
	var lat []float64
	failed := 0
	for b := range acked {
		for range readsPerAck {
			t0 := time.Now()
			tx := eng.Begin()
			f, ok := tx.Flat().(edgeTrees)
			for _, e := range b[:min(len(b), readEdges)] {
				if !ok {
					break
				}
				var et ctree.Set
				et, ok = f.EdgeTree(e.Src)
				ok = ok && et.Contains(e.Dst)
			}
			stamp := tx.Stamp()
			tx.Close()
			t1 := time.Now()
			if !ok {
				failed++
				continue
			}
			lat = append(lat, ms(t1.Sub(t0)))
			tr.add("query", t0, t1, 0, stamp, -1)
		}
	}
	return lat, failed
}
