package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/ligra"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Server roles confirmed in the Hello exchange.
const (
	rolePrimary  uint8 = 0
	roleReplica  uint8 = 1
	rolePromoted uint8 = 2 // replica that assumed primary duty after sustained primary loss
)

// remoteView is one shard's flat snapshot assembled from fetched
// degree/adjacency ranges: a CSR (degrees + prefix offsets +
// concatenated neighbor lists) over the shard's whole vertex-id range.
// It satisfies ligra.FlatGraph, so shard.StitchViews stitches it
// exactly like an engine-local flat view.
type remoteView struct {
	order int
	m     uint64
	degs  []int32
	offs  []uint64
	nbrs  []uint32
	wts   []float32 // nil for unweighted shards
}

func newRemoteView(order uint32, m uint64, weighted bool) *remoteView {
	v := &remoteView{
		order: int(order),
		m:     m,
		degs:  make([]int32, order),
		offs:  make([]uint64, uint64(order)+1),
		nbrs:  make([]uint32, 0, m),
	}
	if weighted {
		v.wts = make([]float32, 0, m)
	}
	return v
}

// Order returns the shard's vertex-id space size.
func (v *remoteView) Order() int { return v.order }

// NumEdges returns the shard's directed edge count.
func (v *remoteView) NumEdges() uint64 { return v.m }

// Degree returns u's degree in O(1); ids beyond order have degree 0.
func (v *remoteView) Degree(u uint32) int {
	if int(u) >= v.order {
		return 0
	}
	return int(v.degs[u])
}

// Degrees exposes the id-indexed degree array (ligra.FlatGraph).
func (v *remoteView) Degrees() []int32 { return v.degs }

// ForEachNeighbor applies f to u's neighbors in increasing order until
// f returns false.
func (v *remoteView) ForEachNeighbor(u uint32, f func(w uint32) bool) {
	if int(u) >= v.order {
		return
	}
	for _, w := range v.nbrs[v.offs[u]:v.offs[u+1]] {
		if !f(w) {
			return
		}
	}
}

// remoteWeightedView adds the weighted traversal capability.
type remoteWeightedView struct{ *remoteView }

// ForEachNeighborKV applies f to u's (neighbor, weight) pairs in
// increasing neighbor order until f returns false.
func (v remoteWeightedView) ForEachNeighborKV(u uint32, f func(w uint32, wt float32) bool) {
	if int(u) >= v.order {
		return
	}
	lo, hi := v.offs[u], v.offs[u+1]
	for i := lo; i < hi; i++ {
		if !f(v.nbrs[i], v.wts[i]) {
			return
		}
	}
}

// appendRange folds one Read response chunk starting at vertex lo.
func (v *remoteView) appendRange(lo uint32, n uint32, degs, nbrs, wts []byte) error {
	if uint64(lo)+uint64(n) > uint64(v.order) {
		return fmt.Errorf("remote: read chunk [%d,%d) exceeds order %d", lo, uint64(lo)+uint64(n), v.order)
	}
	for i := uint32(0); i < n; i++ {
		d := binary.LittleEndian.Uint32(degs[i*4:])
		v.degs[lo+i] = int32(d)
		v.offs[lo+i+1] = v.offs[lo+i] + uint64(d)
	}
	for i := 0; i+4 <= len(nbrs); i += 4 {
		v.nbrs = append(v.nbrs, binary.LittleEndian.Uint32(nbrs[i:]))
	}
	if v.wts != nil {
		for i := 0; i+4 <= len(wts); i += 4 {
			v.wts = append(v.wts, math.Float32frombits(binary.LittleEndian.Uint32(wts[i:])))
		}
	}
	return nil
}

// finish validates that the fetched ranges cover the whole shard.
func (v *remoteView) finish() error {
	if v.offs[v.order] != v.m || uint64(len(v.nbrs)) != v.m {
		return fmt.Errorf("remote: fetched %d edges (offsets %d), shard reports %d",
			len(v.nbrs), v.offs[v.order], v.m)
	}
	if v.wts != nil && uint64(len(v.wts)) != v.m {
		return fmt.Errorf("remote: fetched %d weights for %d edges", len(v.wts), v.m)
	}
	return nil
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// flatFor returns the stitched flat view of a pinned version vector:
// a single-slot stitched cache (keyed by the exact stamp vector), a
// per-shard view cache (unmoved shards reuse their fetched views, the
// remote analogue of the in-process delta stitch), and a fetch for
// whatever moved — replica first when one is configured, primary
// fallback when the replica lags or is down.
func (c *Cluster[E]) flatFor(stamps, seqs []uint64) (ligra.Graph, error) {
	// Cache keys are the composite (stamp, seq): a degraded replica pin
	// has stamp 0 and is identified purely by its WAL watermark, and a
	// promoted replica's stamps live in a different domain than the old
	// primary's, so neither vector alone is unique.
	c.vmu.Lock()
	if c.stitch.flat != nil && equalVec(c.stitch.stamps, stamps) && equalVec(c.stitch.seqs, seqs) {
		flat := c.stitch.flat
		c.vmu.Unlock()
		c.stitchHits.Add(1)
		return flat, nil
	}
	c.vmu.Unlock()

	views := make([]ligra.Graph, len(stamps))
	errs := make([]error, len(stamps))
	var wg sync.WaitGroup
	for s := range stamps {
		c.vmu.Lock()
		cv := c.views[s]
		c.vmu.Unlock()
		if cv.view != nil && cv.stamp == stamps[s] && cv.seq == seqs[s] {
			views[s] = cv.view
			c.viewHits.Add(1)
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			v, err := c.fetchShardView(s, stamps[s], seqs[s])
			if err != nil {
				errs[s] = err
				return
			}
			views[s] = v
			c.vmu.Lock()
			c.views[s] = cachedView{stamp: stamps[s], seq: seqs[s], at: time.Now(), view: v}
			c.vmu.Unlock()
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	flat := shard.StitchViews(c.part, views)
	c.stitchBuilds.Add(1)
	c.vmu.Lock()
	c.stitch = stitchSlot{
		stamps: append([]uint64(nil), stamps...),
		seqs:   append([]uint64(nil), seqs...),
		flat:   flat,
	}
	c.vmu.Unlock()
	return flat, nil
}

// fetchShardView fetches shard s's complete flat snapshot: from its
// replica at the pinned WAL watermark when one is configured (a state
// at least as fresh as the pinned stamp), falling back to the primary
// (exactly the pinned stamp) when the replica lags or errors.
func (c *Cluster[E]) fetchShardView(s int, stamp, seq uint64) (ligra.Graph, error) {
	c.viewFetches.Add(1)
	if rc := c.repl[s]; rc != nil && seq > 0 {
		v, err := c.fetchFrom(rc, rpc.FlagBySeq, seq)
		if err == nil {
			c.replicaReads.Add(1)
			return v, nil
		}
		if stamp == 0 {
			// Degraded pin: the shard is addressed purely by replica
			// seq; there is no primary stamp to fall back to.
			return nil, err
		}
		c.primaryFallbacks.Add(1)
	}
	return c.fetchFrom(c.prim[s], 0, stamp)
}

// fetchFrom pulls one shard view in range chunks over cn, addressed by
// pinned stamp (primary) or WAL seq (replica, FlagBySeq).
func (c *Cluster[E]) fetchFrom(cn *Conn, flags uint8, ref uint64) (ligra.Graph, error) {
	var v *remoteView
	lo := uint32(0)
	for {
		var n uint32
		err := cn.roundTrip(rpc.VerbRead, flags, func(e *rpc.Encoder) {
			e.U64(ref)
			e.U32(lo)
		}, func(_ uint8, d *rpc.Body) error {
			order := d.U32()
			m := d.U64()
			n = d.U32()
			edges := d.U64()
			degs := d.Bytes(int(n) * 4)
			nbrs := d.Bytes(int(edges) * 4)
			var wts []byte
			if c.weighted {
				wts = d.Bytes(int(edges) * 4)
			}
			if err := d.Err(); err != nil {
				return err
			}
			if v == nil {
				v = newRemoteView(order, m, c.weighted)
			} else if v.order != int(order) || v.m != m {
				return fmt.Errorf("remote: shard view changed mid-fetch (order %d→%d, m %d→%d)", v.order, order, v.m, m)
			}
			return v.appendRange(lo, n, degs, nbrs, wts)
		})
		if err != nil {
			return nil, err
		}
		c.rangeRPCs.Add(1)
		lo += n
		if v == nil || int(lo) >= v.order {
			break
		}
		if n == 0 {
			return nil, fmt.Errorf("remote: read made no progress at vertex %d of %d", lo, v.order)
		}
	}
	if v == nil {
		return nil, fmt.Errorf("remote: empty read response")
	}
	if err := v.finish(); err != nil {
		return nil, err
	}
	if c.weighted {
		return remoteWeightedView{v}, nil
	}
	return v, nil
}

// fetchStatsJSON pulls the server's JSON stats snapshot.
func fetchStatsJSON(cn *Conn) ([]byte, error) {
	var raw []byte
	err := cn.roundTrip(rpc.VerbStats, 0, nil, func(_ uint8, d *rpc.Body) error {
		raw = append([]byte(nil), d.Rest()...) // body aliases reader scratch
		return nil
	})
	return raw, err
}

func unmarshalStats(raw []byte, out *stream.Stats) error {
	return json.Unmarshal(raw, out)
}
