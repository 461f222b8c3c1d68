package main

import (
	"crypto/sha256"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/shard"
	"repro/internal/shard/remote"
	"repro/internal/stream"
)

// Shape of remote-mix: a scale-17 base of 500k samples, range-partitioned
// over two in-process shard servers on loopback TCP, each a durable
// engine with the shard daemon's default options.
const (
	remoteScale  = 17
	remoteInit   = 500_000
	remoteShards = 2
	remoteBatch  = 100
	remoteRate   = 50 // batches/s
)

// cluster is one loopback deployment: a durable engine and rpc server
// per shard, and the client dialed to all of them (one connection each).
type cluster struct {
	engines []*graphEngine
	probes  []*probe
	servers []*remote.Server[aspen.Graph, aspen.Edge]
	serving sync.WaitGroup
	client  *remote.Cluster[aspen.Edge]
}

// startCluster loads each shard's routed part of the base into its own
// engine, serves it on 127.0.0.1, dials the client and builds the first
// stitched flat view.
func startCluster(p ctree.Params, in edgeStream, part shard.Partitioner, dir string, tr *tracer) (*cluster, error) {
	cl := &cluster{}
	routed := shard.Route(part, in.base(), shard.EdgeSource)
	addrs := make([]string, remoteShards)
	for s := range remoteShards {
		var pr *probe
		if tr != nil {
			pr = newProbe(tr, s)
		}
		g0 := aspen.NewGraph(p).InsertEdges(routed[s])
		sdir := filepath.Join(dir, "shard"+strconv.Itoa(s))
		eng, err := openEngine(p, g0, sdir, stream.Options{}, pr)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.engines = append(cl.engines, eng)
		cl.probes = append(cl.probes, pr)
		srv := remote.NewGraphServer(eng, p, sdir, s, remoteShards)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.servers = append(cl.servers, srv)
		addrs[s] = ln.Addr().String()
		cl.serving.Add(1)
		go func() {
			defer cl.serving.Done()
			srv.Serve(ln)
		}()
	}
	client, err := remote.DialGraph(part, addrs, nil, remote.Options{})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.client = client
	tx, err := client.Begin()
	if err != nil {
		cl.close()
		return nil, err
	}
	_, err = tx.Flat()
	tx.Close()
	if err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

// close tears the deployment down: client, servers (waiting for their
// accept loops), then the engines, which write a final checkpoint.
func (cl *cluster) close() {
	if cl.client != nil {
		cl.client.Close()
	}
	for _, s := range cl.servers {
		s.Close()
	}
	cl.serving.Wait()
	for i, e := range cl.engines {
		if pr := cl.probes[i]; pr != nil {
			pr.finish()
		}
		e.Close()
	}
}

func runRemoteMix(c runConfig) (*outcome, error) {
	p := ctree.DefaultParams()
	in := newEdgeStream(remoteScale, c.seed, remoteInit, remoteBatch)
	part := shard.NewRangePartitioner(remoteShards, 1<<remoteScale)

	var (
		cl     *cluster
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if cl != nil {
			cl.close()
		}
		var tr *tracer
		if r == setupReps-1 {
			tr = c.tr
		}
		t := time.Now()
		var err error
		if cl, err = startCluster(p, in, part, filepath.Join(c.dataDir, "setup"+strconv.Itoa(r)), tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer cl.close()

	h := sha256.New()
	batches := in.batches(int(c.window.Seconds() * remoteRate))
	for _, b := range batches {
		hashEdges(h, b)
	}
	send := func(b []aspen.Edge) (func() (uint64, error), error) {
		pend, err := cl.client.Insert(b)
		if err != nil {
			return nil, err
		}
		return func() (uint64, error) { return 0, pend.Wait() }, nil
	}

	runtime.GC()
	goStart := readGo()
	start := time.Now()
	stopReader := make(chan struct{})
	var (
		queries []float64
		qFailed int
		readers sync.WaitGroup
	)
	readers.Add(1)
	go func() {
		defer readers.Done()
		queries, qFailed = readLoop(cl.client, c.tr, stopReader)
	}()
	queueDepth := 0
	recs := openLoop(batches, time.Second/remoteRate, send, func() {
		close(stopReader)
		for _, e := range cl.engines {
			queueDepth += e.Stats().QueueDepth
		}
	})
	readers.Wait()
	phaseEnd := time.Now()
	goD := goStart.until(readGo())
	ls := digest(recs)
	fmt.Fprintf(c.log, "inputs: %d batches of %d samples, sha256 %x\n", len(recs), remoteBatch, h.Sum(nil))
	batches = nil

	out := &outcome{attempted: len(recs) + len(queries) + qFailed, failed: ls.failed + qFailed}
	lost := 0
	for _, pr := range cl.probes {
		if pr != nil {
			lost += pr.finish()
		}
	}
	stats := make([]stream.Stats, remoteShards)
	newest := make([]aspen.Graph, remoteShards)
	var edges, fb uint64
	cs := cl.client.Stats()
	mem := liveHeap()
	for s, e := range cl.engines {
		stats[s] = e.Stats()
		tx := e.Begin()
		newest[s] = tx.Graph()
		fb += flatBytes(tx.Flat())
		tx.Close()
		edges += newest[s].NumEdges()
	}

	out.e2e = endToEndMetrics(e2eInputs{
		setups: setups, loop: ls, queries: queries, memB: mem, edges: edges,
	}, c.log)
	out.layer = make(map[string]metric)
	fillLayerMetrics(layerInputs{
		engines: stats, queueDepth: queueDepth, late: ls.late, goD: goD,
		edgesAcked: ls.ackedEdges, graphs: newest, flatBytes: fb, client: &cs,
	}, out.layer)
	if c.tr != nil {
		traceBatches(c.tr, recs, "remote.insert", "remote.submit_ack")
		out.phase = [2]int64{c.tr.rel(start), c.tr.rel(phaseEnd)}
		layerMetrics(summarize(c.tr.spans, out.phase[0], out.phase[1]), phaseEnd.Sub(start), out.layer)
		out.lostStages = lost
	}

	var err error
	out.correct, err = checkCluster(p, in, part, ackedMask(recs), newest, cl.client)
	return out, err
}

// readLoop is the closed-loop reader: Begin, stitched Flat, BFS, Close,
// again until stop. It returns the latencies of the queries that
// succeeded and the number that failed.
func readLoop(c *remote.Cluster[aspen.Edge], tr *tracer, stop <-chan struct{}) ([]float64, int) {
	var lat []float64
	failed := 0
	for {
		select {
		case <-stop:
			return lat, failed
		default:
		}
		t0 := time.Now()
		tx, err := c.Begin()
		if err != nil {
			failed++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		t1 := time.Now()
		f, err := tx.Flat()
		if err != nil {
			tx.Close()
			failed++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		t2 := time.Now()
		algos.BFS(f, 0, true)
		t3 := time.Now()
		tx.Close()
		t4 := time.Now()
		lat = append(lat, ms(t4.Sub(t0)))
		if tr != nil {
			id := tr.add("query", t0, t4, 0, 0, -1)
			tr.add("remote.begin", t0, t1, id, 0, -1)
			tr.add("remote.tx_flat", t1, t2, id, 0, -1)
			tr.add("algos.bfs", t2, t3, id, 0, -1)
		}
	}
}

// checkCluster compares every shard's newest version with its routed
// reference (its part of the base plus its part of every acked batch,
// inserted directly), and the client's stitched view's degrees with the
// references'.
func checkCluster(p ctree.Params, in edgeStream, part shard.Partitioner, acked []bool,
	newest []aspen.Graph, c *remote.Cluster[aspen.Edge]) (bool, error) {
	base := shard.Route(part, in.base(), shard.EdgeSource)
	upd := shard.Route(part, in.ackedEdges(acked), shard.EdgeSource)
	refs := make([]aspen.Graph, remoteShards)
	ok := true
	var m uint64
	for s := range refs {
		refs[s] = aspen.NewGraph(p).InsertEdges(base[s]).InsertEdges(upd[s])
		m += refs[s].NumEdges()
		if !newest[s].Equal(refs[s]) {
			ok = false
		}
	}
	tx, err := c.Begin()
	if err != nil {
		return false, fmt.Errorf("final read: %w", err)
	}
	defer tx.Close()
	f, err := tx.Flat()
	if err != nil {
		return false, fmt.Errorf("final read: %w", err)
	}
	if f.NumEdges() != m {
		return false, nil
	}
	for u := 0; u < f.Order(); u++ {
		if f.Degree(uint32(u)) != refs[part.Owner(uint32(u))].Degree(uint32(u)) {
			return false, nil
		}
	}
	return ok, nil
}
