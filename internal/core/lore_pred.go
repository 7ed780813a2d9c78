package core

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/obs"
)

// This file is the predicate form of LORE: compound boolean predicates from
// the query DSL reduce at this layer to a node membership mask in[u] (does u
// satisfy the predicate), and every attribute-driven step — edge weighting,
// reclustering scores, the local recluster — runs against that mask instead
// of a single attribute. The single-attribute functions in lore.go are kept
// verbatim as the legacy fast path: a mask built from HasAttr(·, a) makes the
// predicate variants produce identical results (locked by tests), but the
// legacy path avoids materializing the mask at all.

// PredWeighted returns g_P: a copy of g whose edges between two nodes both
// satisfying the predicate mask get weight boosted by beta (w' = w·(1+beta)).
// It is AttributeWeighted generalized from one attribute to a mask.
func PredWeighted(g *graph.Graph, in []bool, beta float64) *graph.Graph {
	return graph.Reweight(g, func(u, v graph.NodeID, w float64) float64 {
		if in[u] && in[v] {
			return w * (1 + beta)
		}
		return w
	})
}

// ReclusterScoresPred computes r(C_h) for every community in H(q) counting
// edges whose endpoints both satisfy the predicate mask (ReclusterScores with
// HasAttr replaced by the mask). Score and tie-break semantics are identical:
// best is the argmax over h >= 1, ties toward the deepest community, and
// min(1, L-1) when no predicate-satisfying edge touches the chain.
func ReclusterScoresPred(g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool) (scores []float64, best int) {
	ch := ChainFromTree(t, q)
	L := ch.Len()
	delta := make([]int64, L)
	leafQ := t.LeafOf(q)
	topDepth := ch.Depth(0)
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if !in[u] || !in[v] {
			return
		}
		c := t.LCANodes(u, v)
		if !t.IsAncestor(c, leafQ) {
			return
		}
		idx := topDepth - t.Depth(c)
		if idx >= 0 && idx < L {
			delta[idx]++
		}
	})
	scores = make([]float64, L)
	var num int64
	for h := 0; h < L; h++ {
		num += delta[h] * int64(ch.Depth(h))
		scores[h] = float64(num) / float64(ch.Size(h))
	}
	best = -1
	var bestScore float64
	for h := 1; h < L; h++ {
		if scores[h] > bestScore {
			bestScore = scores[h]
			best = h
		}
	}
	if best == -1 {
		best = 1
		if best >= L {
			best = L - 1
		}
	}
	return scores, best
}

// LorePredCtx runs Algorithm 2 against a predicate mask: pick C_ℓ by
// predicate reclustering score, induce its subgraph, boost the edges whose
// endpoints both satisfy the predicate, and recluster. Cancellation points
// match LoreCtx exactly.
func LorePredCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool, beta float64, linkage hac.Linkage) (*Reclustering, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lore canceled before scoring: %w", err)
	}
	score := obs.FromContext(ctx).StartSpan(obs.StageLoreScore)
	scores, best := ReclusterScoresPred(g, t, q, in)
	score.EndItems(len(scores))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lore canceled before reclustering: %w", err)
	}
	ch := ChainFromTree(t, q)
	cl := ch.Vertex(best)
	induce := obs.FromContext(ctx).StartSpan(obs.StageLoreInduce)
	sub := graph.Induce(g, t.Members(cl))
	localIn := make([]bool, len(sub.ToParent))
	for lu, pu := range sub.ToParent {
		localIn[lu] = in[pu]
	}
	weighted := PredWeighted(sub.G, localIn, beta)
	induce.EndItems(sub.G.N())
	local, err := hac.ClusterCtx(ctx, weighted, linkage)
	if err != nil {
		return nil, fmt.Errorf("core: reclustering C_ℓ: %w", err)
	}
	return &Reclustering{CL: cl, ChainIndex: best, Scores: scores, Sub: sub, Local: local}, nil
}
