package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/stream"
)

// Per-shard durability: each shard's engine owns a private WAL + checkpoint
// directory under the cluster root (shard-0000, shard-0001, ...), so shards
// log and checkpoint with zero cross-shard coordination — the single-writer
// invariant extends to the disk layout. Recovery opens every shard
// directory independently; because batches are routed deterministically by
// source vertex, each shard recovers to a prefix of *its own* stream, and a
// DurableBarrier (flush + fsync on every shard) establishes a cross-shard
// durability point: everything submitted before the barrier survives a
// crash on any subset of shards.

// ShardDir returns the durability directory for shard s under root.
func ShardDir(root string, s int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", s))
}

// openDirs prepares one durability config per shard, creating directories.
func openDirs(part Partitioner, d stream.Durability) ([]stream.Durability, error) {
	if d.Dir == "" {
		return nil, fmt.Errorf("shard: durability root directory not set")
	}
	durs := make([]stream.Durability, part.Shards())
	for s := range durs {
		ds := d
		ds.Dir = ShardDir(d.Dir, s)
		if err := os.MkdirAll(ds.Dir, 0o755); err != nil {
			return nil, err
		}
		durs[s] = ds
	}
	return durs, nil
}

// OpenGraphClusterOf opens (or creates) a durable cluster of aspen graphs
// with payload type V rooted at d.Dir: shard s recovers from
// d.Dir/shard-%04d — latest valid checkpoint plus WAL tail — and logs its
// commits there from then on. The partitioner must match the one the
// directory was written with (routing is deterministic, so a mismatch would
// replay batches onto the wrong shards; callers persist/derive the shard
// count from the directory layout, see CountShardDirs).
func OpenGraphClusterOf[V ctree.Value](part Partitioner, p ctree.Params, opts stream.Options, d stream.Durability) (*Cluster[aspen.GraphOf[V], aspen.EdgeOf[V]], error) {
	durs, err := openDirs(part, d)
	if err != nil {
		return nil, err
	}
	engines := make([]*stream.Engine[aspen.GraphOf[V], aspen.EdgeOf[V]], part.Shards())
	for s := range engines {
		e, err := stream.RecoverGraphEngineOf[V](p, opts, durs[s])
		if err != nil {
			for _, prev := range engines[:s] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		engines[s] = e
	}
	return New(part, engines, EdgeSource), nil
}

// OpenGraphCluster opens (or creates) a durable id-only cluster.
func OpenGraphCluster(part Partitioner, p ctree.Params, opts stream.Options, d stream.Durability) (*Cluster[aspen.Graph, aspen.Edge], error) {
	return OpenGraphClusterOf[struct{}](part, p, opts, d)
}

// CountShardDirs reports how many consecutive shard-%04d directories exist
// under root (0 if none) — the shard count a durable cluster directory was
// written with.
func CountShardDirs(root string) int {
	n := 0
	for {
		if _, err := os.Stat(ShardDir(root, n)); err != nil {
			return n
		}
		n++
	}
}

// DurableBarrier is Barrier plus durability: it flushes every shard (all
// batches submitted before the call are committed) and then forces an fsync
// of every shard's WAL, so the barrier state survives power loss on any
// subset of shards regardless of fsync policy. Returns the first error —
// a failed shard's engine is fail-stopped, not rolled back.
func (c *Cluster[G, E]) DurableBarrier() error {
	if err := c.Barrier(); err != nil {
		return err
	}
	errs := make([]error, len(c.engines))
	var wg sync.WaitGroup
	for s, e := range c.engines {
		wg.Add(1)
		go func(s int, e *stream.Engine[G, E]) {
			defer wg.Done()
			errs[s] = e.SyncWAL()
		}(s, e)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Err returns the first shard's durability fail-stop error, or nil.
func (c *Cluster[G, E]) Err() error {
	for s, e := range c.engines {
		if err := e.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}
