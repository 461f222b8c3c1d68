package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/aspen"
)

// batchRec is one submitted batch: due is when the schedule wanted it
// sent, sent/queued bracket the submit call, acked is when its commit
// acknowledgement arrived (or the failure was seen).
type batchRec struct {
	edges                    int
	due, sent, queued, acked time.Time
	stamp                    uint64
	err                      error
}

// sendFn submits one batch and returns the function that waits for its
// acknowledgement, yielding the commit stamp (0 where the layer has none).
type sendFn func(edges []aspen.Edge) (wait func() (uint64, error), err error)

// openLoop sends batches on a fixed schedule, batch i due at
// start + i·interval, whatever the state of earlier ones: a stall delays
// the sends behind it, and since each batch is timed from its due time
// that wait counts. One goroutine sends; a second only collects acks, in
// submit order (the engine and each shard connection ack in FIFO order).
// atEnd runs once the last batch is sent, before the acks are drained.
func openLoop(batches [][]aspen.Edge, interval time.Duration, send sendFn, atEnd func()) []batchRec {
	recs := make([]batchRec, len(batches))
	type inflight struct {
		i    int
		wait func() (uint64, error)
	}
	ch := make(chan inflight, len(batches)) // one slot per send: the writer never waits on the collector
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range ch {
			stamp, err := f.wait()
			r := &recs[f.i]
			r.acked, r.stamp, r.err = time.Now(), stamp, err
		}
	}()
	start := time.Now()
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		r := &recs[i]
		r.edges, r.due, r.sent = len(b), due, time.Now()
		wait, err := send(b)
		r.queued = time.Now()
		if err != nil {
			r.err, r.acked = err, r.queued
			continue
		}
		ch <- inflight{i, wait}
	}
	atEnd()
	close(ch)
	wg.Wait()
	return recs
}

// closedLoop keeps one batch outstanding and starts batch i no earlier
// than start + i·interval, until the window ends. While the system keeps
// up, a run sends the same number of batches whatever its speed, so the
// graph grows by the same amount in every run; a slower system sends its
// next batch as soon as the previous one is acknowledged. Batch i is
// generated right after batch i-1 is acknowledged and timed from its due
// time, max(generated, start + i·interval), so generating is excluded
// from every timed span.
func closedLoop(window, interval time.Duration, next func(i int) []aspen.Edge, send sendFn) []batchRec {
	var recs []batchRec
	start := time.Now()
	for i := 0; time.Duration(i)*interval < window && time.Since(start) < window; i++ {
		b := next(i)
		r := batchRec{edges: len(b), due: start.Add(time.Duration(i) * interval)}
		if time.Now().After(r.due) {
			r.due = time.Now()
		}
		waitUntil(r.due)
		r.sent = time.Now()
		wait, err := send(b)
		r.queued = time.Now()
		if err == nil {
			r.stamp, err = wait()
		}
		r.acked, r.err = time.Now(), err
		recs = append(recs, r)
	}
	return recs
}

// spinWindow covers the granularity of Go's timers, which fire up to about
// 1 ms late when every P is idle: waitUntil sleeps to just short of the
// deadline and yields for the rest, so a batch leaves when it is due and
// its latency is not inflated by the generator's own oversleep.
const spinWindow = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// loopStats digests the batch records: commit latencies from due time,
// generator lateness, and the acked count and edge volume.
type loopStats struct {
	lat, late      []float64 // ms
	failed         int
	ackedEdges     int
	first, lastAck time.Time
	active         time.Duration // sum of due-to-ack times
}

func digest(recs []batchRec) loopStats {
	var s loopStats
	for i, r := range recs {
		if i == 0 {
			s.first = r.due
		}
		s.late = append(s.late, ms(r.sent.Sub(r.due)))
		s.active += r.acked.Sub(r.due)
		if r.err != nil {
			s.failed++
			continue
		}
		s.ackedEdges += r.edges
		s.lat = append(s.lat, ms(r.acked.Sub(r.due)))
		if r.acked.After(s.lastAck) {
			s.lastAck = r.acked
		}
	}
	return s
}

// ackedMask marks which batches were acknowledged.
func ackedMask(recs []batchRec) []bool {
	m := make([]bool, len(recs))
	for i, r := range recs {
		m[i] = r.err == nil
	}
	return m
}

// traceBatches records one root span per batch (due to ack, carrying the
// commit stamp) with the submit call and, when ackName is set, the wait
// for the ack as its children.
func traceBatches(tr *tracer, recs []batchRec, submitName, ackName string) {
	if tr == nil {
		return
	}
	for _, r := range recs {
		id := tr.add("batch", r.due, r.acked, 0, r.stamp, -1)
		tr.add(submitName, r.sent, r.queued, id, r.stamp, -1)
		if ackName != "" && r.err == nil {
			tr.add(ackName, r.queued, r.acked, id, r.stamp, -1)
		}
	}
}
