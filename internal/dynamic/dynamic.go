// Package dynamic maintains COD state over a mutating graph — the paper's
// stated future-work direction (§IV Discussion, §VI). Edge insertions are
// buffered; a flush rebuilds the affected state using one of two
// strategies:
//
//   - RebuildLocal re-clusters only the smallest hierarchy community
//     containing all touched endpoints and splices the fresh subtree back
//     (cheap when updates are localized, the common case for social
//     graphs);
//   - RebuildFull re-clusters from scratch (the fallback when updates touch
//     a large fraction of the graph).
//
// The HIMOR index is rebuilt on every flush in both strategies: influence
// counts are global (an RR graph may cross the whole graph), so a sound
// incremental rank maintenance needs per-sample provenance — exactly the
// non-trivial extension the paper defers. The rebuild is still the
// compressed construction, so flushes are O(Θ·ω + sort) rather than
// per-community.
package dynamic

import (
	"fmt"

	"context"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// Strategy selects how Flush rebuilds the hierarchy.
type Strategy int

const (
	// Auto picks RebuildLocal when the affected community covers less than
	// half the graph, RebuildFull otherwise.
	Auto Strategy = iota
	// RebuildLocal re-clusters only the affected subtree.
	RebuildLocal
	// RebuildFull re-clusters the whole graph.
	RebuildFull
)

// Updater owns a graph plus the COD offline state and applies edge
// insertions incrementally. It is not safe for concurrent use.
type Updater struct {
	g      *graph.Graph
	params engine.Params
	tree   *hier.Tree
	index  *core.Himor
	eng    *engine.Engine

	pending [][2]graph.NodeID
	flushes int
	locals  int
}

// New builds the initial state (clustering + HIMOR) for g.
func New(g *graph.Graph, params engine.Params) (*Updater, error) {
	return NewWithConfig(g, params, engine.Config{})
}

// NewWithConfig is New with an explicit engine configuration — enabling the
// per-attribute sample cache or attribute-tree caching for serving setups.
// Flush invalidates both through the engine epoch.
func NewWithConfig(g *graph.Graph, params engine.Params, cfg engine.Config) (*Updater, error) {
	eng, err := engine.Build(context.Background(), g, params, cfg)
	if err != nil {
		return nil, err
	}
	return &Updater{g: g, params: eng.Params(), tree: eng.Tree(), index: eng.Index(), eng: eng}, nil
}

// Graph returns the current graph (pending edges excluded until Flush).
func (u *Updater) Graph() *graph.Graph { return u.g }

// Tree returns the current hierarchy.
func (u *Updater) Tree() *hier.Tree { return u.tree }

// Pending returns the number of buffered edge insertions.
func (u *Updater) Pending() int { return len(u.pending) }

// Stats reports (total flushes, local flushes) for instrumentation.
func (u *Updater) Stats() (flushes, localFlushes int) { return u.flushes, u.locals }

// AddEdge buffers the undirected edge (a, b) for the next Flush. Both
// endpoints must already exist; duplicate edges are merged at flush time.
func (u *Updater) AddEdge(a, b graph.NodeID) error {
	if a == b {
		return fmt.Errorf("dynamic: self loop on %d", a)
	}
	if a < 0 || int(a) >= u.g.N() || b < 0 || int(b) >= u.g.N() {
		return fmt.Errorf("dynamic: edge (%d,%d) out of range [0,%d)", a, b, u.g.N())
	}
	u.pending = append(u.pending, [2]graph.NodeID{a, b})
	return nil
}

// Flush applies the buffered edges and rebuilds the hierarchy per the
// strategy, then rebuilds the HIMOR index. A flush with no pending edges is
// a no-op.
func (u *Updater) Flush(s Strategy) error {
	if len(u.pending) == 0 {
		return nil
	}
	ng := u.applyPending()

	// Affected community: lca over every touched endpoint.
	affected := u.tree.LeafOf(u.pending[0][0])
	for _, e := range u.pending {
		affected = u.tree.LCA(affected, u.tree.LeafOf(e[0]))
		affected = u.tree.LCA(affected, u.tree.LeafOf(e[1]))
	}
	if s == Auto {
		if !u.tree.IsLeaf(affected) && u.tree.Size(affected)*2 < ng.N() {
			s = RebuildLocal
		} else {
			s = RebuildFull
		}
	}

	var nt *hier.Tree
	var err error
	if s == RebuildLocal && !u.tree.IsLeaf(affected) && affected != u.tree.Root() {
		members := u.tree.Members(affected)
		sub := graph.Induce(ng, members)
		local, cerr := hac.Cluster(sub.G, u.params.Linkage)
		if cerr != nil {
			return fmt.Errorf("dynamic: local recluster: %w", cerr)
		}
		nt, err = hier.Splice(u.tree, affected, local, sub.ToParent)
		if err != nil {
			return fmt.Errorf("dynamic: splice: %w", err)
		}
		u.locals++
	} else {
		nt, err = hac.Cluster(ng, u.params.Linkage)
		if err != nil {
			return fmt.Errorf("dynamic: full recluster: %w", err)
		}
	}

	theta := u.params.Theta
	if theta <= 0 {
		theta = 10
	}
	sampler := engine.NewGraphSampler(ng, u.params.Model, graph.NewRand(graph.ItemSeed(u.params.Seed, u.flushes)))
	// A Background context never cancels, so the batch cannot fail.
	pool, _ := influence.BatchIntoCtx(context.Background(), sampler, theta*ng.N(), influence.NewArena())
	u.index = core.BuildHimor(context.Background(), ng, nt, pool, theta)
	u.g = ng
	u.tree = nt
	u.pending = u.pending[:0]
	u.flushes++
	// Rebind bumps the engine epoch: cached sample pools and attribute
	// trees from the pre-flush graph can never answer post-flush queries.
	u.eng.Rebind(ng, nt, u.index)
	return nil
}

// applyPending materializes the graph with buffered edges merged in.
func (u *Updater) applyPending() *graph.Graph {
	b := graph.NewBuilder(u.g.N(), u.g.NumAttrs())
	u.g.ForEachEdge(func(x, y graph.NodeID, w float64) { _ = b.AddWeightedEdge(x, y, w) })
	for v := graph.NodeID(0); int(v) < u.g.N(); v++ {
		if as := u.g.Attrs(v); len(as) > 0 {
			_ = b.SetAttrs(v, as...)
		}
	}
	for _, e := range u.pending {
		_ = b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Query answers a COD query over the current state (Algorithm 3). Pending
// edges are not visible until Flush.
func (u *Updater) Query(q graph.NodeID, attr graph.AttrID, seed uint64) (engine.Community, error) {
	return u.QueryCtx(context.Background(), q, attr, seed)
}

// QueryCtx is Query with cancellation and instrumentation: a Recorder on
// ctx receives the query's step spans, and its trace (if any) gets a
// deterministic ID derived from seed unless one was already installed.
func (u *Updater) QueryCtx(ctx context.Context, q graph.NodeID, attr graph.AttrID, seed uint64) (engine.Community, error) {
	obs.FromContext(ctx).EnsureTraceID(seed)
	pl := u.eng.Compile(engine.VariantCODL, q, attr)
	return u.eng.Execute(ctx, pl, graph.NewRand(seed))
}

// QueryGlobal answers a CODR-variant query (global attribute recluster)
// over the current state, sharing the engine's caches with Query.
func (u *Updater) QueryGlobal(q graph.NodeID, attr graph.AttrID, seed uint64) (engine.Community, error) {
	return u.QueryGlobalCtx(context.Background(), q, attr, seed)
}

// QueryGlobalCtx is QueryGlobal with cancellation and instrumentation (see
// QueryCtx).
func (u *Updater) QueryGlobalCtx(ctx context.Context, q graph.NodeID, attr graph.AttrID, seed uint64) (engine.Community, error) {
	obs.FromContext(ctx).EnsureTraceID(seed)
	pl := u.eng.Compile(engine.VariantCODR, q, attr)
	return u.eng.Execute(ctx, pl, graph.NewRand(seed))
}

// Engine exposes the updater's query engine (shared state, epoch, caches).
func (u *Updater) Engine() *engine.Engine { return u.eng }
