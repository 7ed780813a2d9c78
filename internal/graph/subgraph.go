package graph

import (
	"math"
	"slices"
)

// Subgraph is a node-induced subgraph of a parent Graph, materialized as its
// own Graph with compact local node ids plus the mapping back to the parent.
type Subgraph struct {
	// G is the induced subgraph with local ids 0..len(ToParent)-1.
	G *Graph
	// ToParent maps local node ids to parent node ids (ascending).
	ToParent []NodeID
	// toLocal maps parent ids to local ids; -1 when absent.
	toLocal []int32
}

// Induce materializes the subgraph of g induced by nodes. The node list may
// be unsorted and may contain duplicates; attributes and weights are carried
// over. Edges are those of g with both endpoints in nodes.
func Induce(g *Graph, nodes []NodeID) *Subgraph {
	members := slices.Clone(nodes)
	slices.Sort(members)
	members = slices.Compact(members)
	toLocal := make([]int32, g.N())
	for i := range toLocal {
		toLocal[i] = -1
	}
	for i, v := range members {
		toLocal[v] = int32(i)
	}
	b := NewBuilder(len(members), g.NumAttrs())
	for i, v := range members {
		ns := g.Neighbors(v)
		ws := g.Weights(v)
		for j, u := range ns {
			lu := toLocal[u]
			if lu < 0 || u <= v { // add each undirected edge once
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[j]
			}
			// Endpoints validated by construction; Builder cannot fail here.
			_ = b.AddWeightedEdge(int32(i), lu, w)
		}
		if as := g.Attrs(v); len(as) > 0 {
			_ = b.SetAttrs(int32(i), as...)
		}
	}
	return &Subgraph{G: b.Build(), ToParent: members, toLocal: toLocal}
}

// Local maps a parent node id to its local id, or -1 when the node is not in
// the subgraph.
func (s *Subgraph) Local(parent NodeID) int32 {
	if int(parent) >= len(s.toLocal) {
		return -1
	}
	return s.toLocal[parent]
}

// Contains reports whether the parent node belongs to the subgraph.
func (s *Subgraph) Contains(parent NodeID) bool { return s.Local(parent) >= 0 }

// ParentNodes returns the parent ids of local nodes, i.e. a copy of ToParent.
func (s *Subgraph) ParentNodes() []NodeID { return slices.Clone(s.ToParent) }

// Reweight returns a copy of g in which every edge weight is replaced by
// fn(u, v, w), called once per undirected edge with u < v. It is used to
// derive the attribute-weighted graph g_ℓ. Only the weight array is
// rewritten: the copy shares g's immutable CSR structure and attributes,
// and carries no weight array when every new weight is 1. A weight a
// Builder would reject (non-positive or non-finite) drops its edge, as
// rebuilding through a Builder does; only then is the graph rebuilt.
func Reweight(g *Graph, fn func(u, v NodeID, w float64) float64) *Graph {
	wts := make([]float64, len(g.adj))
	// rev[v] is the next unfilled reverse slot of row v: row v lists its
	// smaller neighbours first, in the ascending order rows are visited.
	rev := make([]int32, g.N())
	copy(rev, g.off)
	weighted := false
	for u := NodeID(0); u < NodeID(g.N()); u++ {
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.adj[i]
			if v < u {
				continue
			}
			w := 1.0
			if g.wts != nil {
				w = g.wts[i]
			}
			nw := fn(u, v, w)
			if !(nw > 0) || math.IsInf(nw, 1) {
				return rebuildReweighted(g, fn)
			}
			wts[i], wts[rev[v]] = nw, nw
			rev[v]++
			weighted = weighted || nw != 1
		}
	}
	out := *g
	out.wts = nil
	if weighted {
		out.wts = wts
	}
	return &out
}

// rebuildReweighted is Reweight through a Builder, which drops every edge
// whose new weight it rejects.
func rebuildReweighted(g *Graph, fn func(u, v NodeID, w float64) float64) *Graph {
	b := NewBuilder(g.N(), g.NumAttrs())
	g.ForEachEdge(func(u, v NodeID, w float64) {
		_ = b.AddWeightedEdge(u, v, fn(u, v, w))
	})
	for v := NodeID(0); v < NodeID(g.N()); v++ {
		if as := g.Attrs(v); len(as) > 0 {
			_ = b.SetAttrs(v, as...)
		}
	}
	return b.Build()
}
