package stream

import (
	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/ligra"
)

// AttachIncrementalCC bootstraps an algos.IncrementalCC from the engine's
// current version and keeps it maintained on the commit path: every
// published version's runs are folded in, in application order, via the
// OnCommit hook — union-find for insert runs, confined recompute against
// the committed snapshot for delete runs. Component queries against the
// returned structure are O(1) array reads with zero kernel work, and after
// a Flush the structure reflects everything submitted before it.
//
// ends extracts an update's endpoints. Must be called before the first
// Submit (it claims the engine's OnCommit hook); AttachGraphIncrementalCC
// wraps it for the aspen edge types. Note the structure tracks undirected connectivity:
// engines fed asymmetric (one-direction) batches maintain the components of
// the symmetrized graph.
func AttachIncrementalCC[G ligra.Graph, E any](e *Engine[G, E], ends func(E) (uint32, uint32)) *algos.IncrementalCC {
	tx := e.Begin()
	cc := algos.NewIncrementalCC(tx.Graph())
	tx.Close()
	e.OnCommit(func(_, cur G, _ uint64, runs []CommitRun[E]) {
		for _, r := range runs {
			edges := r.Edges
			visit := func(f func(u, v uint32)) {
				for _, ed := range edges {
					u, v := ends(ed)
					f(u, v)
				}
			}
			if r.Del {
				// cur is the final committed snapshot, not the intermediate
				// graph after this run — still correct: re-union consumes
				// only edges present in cur, and any same-commit insert runs
				// are folded in order around this one, so connectivity
				// converges to cur's by the last run.
				cc.ApplyDeleteBatch(cur, visit)
			} else {
				cc.ApplyInsertBatch(cur.Order(), visit)
			}
		}
	})
	return cc
}

// AttachGraphIncrementalCC attaches incremental connectivity maintenance to
// an aspen graph engine (payload changes on existing edges do not affect
// connectivity; re-unions of present edges are no-ops).
func AttachGraphIncrementalCC[V ctree.Value](e *Engine[aspen.GraphOf[V], aspen.EdgeOf[V]]) *algos.IncrementalCC {
	return AttachIncrementalCC(e, func(ed aspen.EdgeOf[V]) (uint32, uint32) { return ed.Src, ed.Dst })
}
