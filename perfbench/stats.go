package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value with its unit, the shape of the result
// line's "metrics" entries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// xs, which it sorts in place; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q / 100 * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1]
}

// tailQuantile is the highest percentile, capped at limit, that leaves at
// least 10 of n samples beyond it, floored at the median: the tail a run
// with n samples can actually resolve.
func tailQuantile(n int, limit float64) float64 {
	if n <= 0 {
		return 50
	}
	q := float64(1000*(n-10)/n) / 10 // in tenths of a percent, rounded down
	return min(max(q, 50), limit)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// goSample is a snapshot of the Go runtime counters the per-layer go.*
// metrics difference over the measured window.
type goSample struct {
	gcCPU, totalCPU       float64
	allocBytes, allocObjs uint64
	pauses                *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		allocObjs:  s[3].Value.Uint64(),
		pauses:     s[4].Value.Float64Histogram(),
	}
}

// goDelta is the runtime cost of a window: GC share of CPU, allocation
// volume and the p99 stop-the-world GC pause.
type goDelta struct {
	gcCPUFrac             float64
	allocBytes, allocObjs uint64
	pauseP99              time.Duration
}

func (b goSample) until(a goSample) goDelta {
	d := goDelta{allocBytes: a.allocBytes - b.allocBytes, allocObjs: a.allocObjs - b.allocObjs}
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		d.gcCPUFrac = (a.gcCPU - b.gcCPU) / cpu
	}
	counts := make([]uint64, len(a.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = a.pauses.Counts[i] - b.pauses.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		rank := uint64(math.Ceil(0.99 * float64(total)))
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= rank {
				// Bucket i spans [Buckets[i], Buckets[i+1]); report its upper edge.
				hi := a.pauses.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = a.pauses.Buckets[i]
				}
				d.pauseP99 = time.Duration(hi * float64(time.Second))
				break
			}
		}
	}
	return d
}

// liveHeap forces a collection and returns the bytes it found live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
