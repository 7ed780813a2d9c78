package influence

import (
	"math/rand/v2"

	"github.com/codsearch/cod/internal/graph"
)

// Linear threshold (LT) support. The paper's framework works with any
// influence model whose possible worlds admit RR-set evaluation; for LT the
// live-edge possible world has every node select at most one in-neighbor
// (node v picks u with probability b(u,v), no one with 1 - Σ_u b(u,v)), so
// a reverse-reachable graph from a source is a path that either stops, or
// closes a cycle back into itself. The resulting RRGraph values plug into
// the same compressed COD evaluation as the IC ones.

// LTWeights assigns the LT edge weight b(u, v); for each v the weights over
// its in-neighbors must sum to at most 1.
type LTWeights interface {
	// Weight returns b(u, v) for an edge (u, v).
	Weight(u, v graph.NodeID) float64
}

// UniformLT is the standard degree-normalized LT instance: b(u,v) =
// 1/deg(v), mirroring the weighted cascade probabilities.
type UniformLT struct{ G *graph.Graph }

// Weight implements LTWeights.
func (w UniformLT) Weight(_, v graph.NodeID) float64 { return 1 / float64(w.G.Degree(v)) }

// LTSampler generates RR sets and RR graphs under the LT model. Like
// Sampler it is single-goroutine; use one per worker.
type LTSampler struct {
	g   *graph.Graph
	w   LTWeights
	rng *rand.Rand

	pos   []int32
	epoch []int32
	ver   int32
}

// NewLTSampler returns an LT sampler over g.
func NewLTSampler(g *graph.Graph, w LTWeights, rng *rand.Rand) *LTSampler {
	return &LTSampler{g: g, w: w, rng: rng,
		pos: make([]int32, g.N()), epoch: make([]int32, g.N())}
}

// SetRand implements GraphSampler.
func (s *LTSampler) SetRand(rng *rand.Rand) { s.rng = rng }

// pickInNeighbor samples v's live in-edge tail, or -1 when v selects no one.
func (s *LTSampler) pickInNeighbor(v graph.NodeID) graph.NodeID {
	x := s.rng.Float64()
	acc := 0.0
	for _, u := range s.g.Neighbors(v) {
		acc += s.w.Weight(u, v)
		if x < acc {
			return u
		}
	}
	return -1
}

// RRGraphInto samples one LT RR graph from a uniform source into a.
func (s *LTSampler) RRGraphInto(a *Arena) {
	s.rrWalkInto(a, graph.NodeID(s.rng.IntN(s.g.N())), nil)
}

// RRGraphWithinInto samples one LT RR graph rooted at src into a, confined
// to member nodes (nil = unrestricted).
func (s *LTSampler) RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.rrWalkInto(a, src, member)
}

// rrWalkInto samples the LT RR graph rooted at src: the reverse walk along
// each node's single live in-edge, stopped at the first revisit (whose
// closing edge is recorded). With member != nil the live in-edge of each
// node is still chosen globally (the possible world does not depend on the
// community), but the walk stops as soon as the chosen tail leaves the
// restriction, matching the induced RR graph semantics of Definition 3 for
// the LT live-edge worlds.
func (s *LTSampler) rrWalkInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.ver++
	base := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	cur := src
	for {
		u := s.pickInNeighbor(cur)
		if u < 0 || (member != nil && !member(u)) {
			break
		}
		if s.epoch[u] == s.ver {
			a.pushEdge(s.pos[cur], s.pos[u])
			break
		}
		s.epoch[u] = s.ver
		s.pos[u] = a.pushNode(base, u)
		a.pushEdge(s.pos[cur], s.pos[u])
		cur = u
	}
	a.endRR(base)
}

// SpreadLT runs one forward LT simulation from seed: thresholds are drawn
// uniformly per node and a node activates when the summed weight of its
// active in-neighbors reaches its threshold. Used as ground truth in tests.
func SpreadLT(g *graph.Graph, w LTWeights, seed graph.NodeID, rng *rand.Rand) int {
	n := g.N()
	threshold := make([]float64, n)
	for i := range threshold {
		threshold[i] = rng.Float64()
	}
	active := make([]bool, n)
	weightIn := make([]float64, n)
	active[seed] = true
	frontier := []graph.NodeID{seed}
	count := 1
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if active[v] {
					continue
				}
				weightIn[v] += w.Weight(u, v)
				if weightIn[v] >= threshold[v] {
					active[v] = true
					count++
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return count
}
