package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is the causing span's ID (0 for a
// root). Spans of one commit share its Stamp, the stamp Pending.Wait
// returns to the batches it acknowledged; Shard is the server shard a
// span ran on (-1 on the client side of remote-mix).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stamp  uint64 `json:"stamp"`
	Shard  int    `json:"shard"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent int, stamp uint64, shard int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Parent: parent, Stamp: stamp, Shard: shard,
	})
	return id
}

func (t *tracer) rel(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// layerStat aggregates the spans of one name over the measured phase.
type layerStat struct {
	Name    string
	Parent  string // name of the usual parent span ("" for roots)
	Count   int
	durs    []float64 // ms
	selfs   []float64 // ms
	busyNS  int64
	selfNS  int64
	P50     float64
	P99     float64
	SelfP50 float64
}

// summarize computes per-name count, p50/p99 duration, self time and busy
// time over the spans that start in [from, to]. A span's self time is
// its duration minus the part of it its children's intervals cover.
func summarize(spans []span, from, to int64) map[string]*layerStat {
	byID := make(map[int]*span, len(spans))
	kids := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for i := range spans {
		s := &spans[i]
		if s.Start < from || s.Start > to {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			if p := byID[s.Parent]; p != nil {
				st.Parent = p.Name
			}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		self := dur - covered(s, kids[s.ID])
		st.Count++
		st.durs = append(st.durs, float64(dur)/1e6)
		st.selfs = append(st.selfs, float64(self)/1e6)
		st.busyNS += dur
		st.selfNS += self
	}
	for _, st := range out {
		st.P50 = percentile(st.durs, 50)
		st.P99 = percentile(st.durs, 99)
		st.SelfP50 = percentile(st.selfs, 50)
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// traceSpans lists the spans whose per-layer metrics the traced run
// reports, in table order. commitChildren are the stages a commit span
// is broken into.
var (
	traceSpans = []string{
		"stream.commit", "stream.queue", "wal.append", "wal.fsync",
		"aspen.insert_edges", "aspen.flat_patch", "aspen.flat_build",
		"graphio.checkpoint_write", "stream.submit",
		"remote.insert", "remote.submit_ack", "remote.begin", "remote.tx_flat",
		"algos.bfs",
	}
	commitChildren = []string{"stream.queue", "wal.append", "wal.fsync", "aspen.insert_edges", "aspen.flat_patch", "aspen.flat_build"}
)

// layerMetrics turns the summary into the per-layer span metrics: every
// span name reports count, p50, p99 and busy share of the phase, even
// when the workload never reaches that layer (count 0); each commit
// stage also reports its self time as a share of total commit time.
func layerMetrics(sum map[string]*layerStat, phase time.Duration, into map[string]metric) {
	for _, name := range traceSpans {
		st := sum[name]
		if st == nil {
			st = &layerStat{}
		}
		into[name+".count"] = metric{float64(st.Count), "count"}
		into[name+".p50_ms"] = metric{st.P50, "ms"}
		into[name+".p99_ms"] = metric{st.P99, "ms"}
		into[name+".busy_frac"] = metric{float64(st.busyNS) / float64(phase), "ratio"}
	}
	var commitNS int64
	if c := sum["stream.commit"]; c != nil {
		commitNS = c.busyNS
	}
	share := func(ns int64) float64 {
		if commitNS == 0 {
			return 0
		}
		return float64(ns) / float64(commitNS)
	}
	for _, name := range commitChildren {
		var ns int64
		if st := sum[name]; st != nil && st.Parent == "stream.commit" {
			ns = st.selfNS
		}
		into[name+".commit_share"] = metric{share(ns), "ratio"}
	}
	var selfNS int64
	if c := sum["stream.commit"]; c != nil {
		selfNS = c.selfNS
	}
	into["stream.commit.self_share"] = metric{share(selfNS), "ratio"}
}

// printTable writes the per-layer self-time table, then the commit
// breakdown: each stage's self time beside the commit span it sits under.
func printTable(w io.Writer, sum map[string]*layerStat, phase time.Duration) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %-20s %7s %9s %9s %10s %11s %6s\n",
		"span", "parent", "count", "p50_ms", "p99_ms", "self_p50", "self_tot_ms", "busy%")
	for _, n := range names {
		st := sum[n]
		fmt.Fprintf(w, "%-26s %-20s %7d %9.3f %9.3f %10.3f %11.1f %6.1f\n",
			n, st.Parent, st.Count, st.P50, st.P99, st.SelfP50, float64(st.selfNS)/1e6,
			100*float64(st.busyNS)/float64(phase))
	}
	c := sum["stream.commit"]
	if c == nil || c.busyNS == 0 {
		return
	}
	fmt.Fprintf(w, "commit breakdown (%d commits, %.1f ms total, p50 %.3f ms):\n", c.Count, float64(c.busyNS)/1e6, c.P50)
	for _, n := range commitChildren {
		if st := sum[n]; st != nil && st.Parent == "stream.commit" {
			fmt.Fprintf(w, "  %-22s self %10.1f ms  %5.1f%% of commit time\n",
				n, float64(st.selfNS)/1e6, 100*float64(st.selfNS)/float64(c.busyNS))
		}
	}
	fmt.Fprintf(w, "  %-22s self %10.1f ms  %5.1f%% of commit time\n",
		"(unattributed)", float64(c.selfNS)/1e6, 100*float64(c.selfNS)/float64(c.busyNS))
}

// traceFile is the JSON document a traced run leaves behind.
type traceFile struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	PhaseNS   [2]int64          `json:"phase_ns"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	LostStage int               `json:"commits_without_stage_record"`
	Spans     []span            `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
