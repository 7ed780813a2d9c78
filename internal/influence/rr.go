package influence

import (
	"math/rand/v2"

	"github.com/codsearch/cod/internal/graph"
)

// RRGraph is the paper's Definition 2: the nodes of an RR set together with
// the edges activated while generating it, rooted at the uniformly sampled
// source. Crucially for Theorem 2 (induced RR graphs), generation flips a
// coin for *every* in-edge of every visited node — not only edges that
// discover new nodes — so that reachability restricted to any community C
// is faithful to the underlying possible world.
//
// Adjacency is positional: node i's RR-neighbors (the tails u of live edges
// u->node[i]) are Adj[Off[i]:Off[i+1]], stored as indices into Nodes.
type RRGraph struct {
	// Nodes lists the member graph nodes; Nodes[0] is the source.
	Nodes []graph.NodeID
	// Off and Adj encode, per position i, the positions of nodes reachable
	// one reverse-step from Nodes[i] via live edges.
	Off []int32
	Adj []int32
}

// Source returns the sampled source node of the RR graph.
func (r *RRGraph) Source() graph.NodeID { return r.Nodes[0] }

// Len returns the number of nodes in the RR graph.
func (r *RRGraph) Len() int { return len(r.Nodes) }

// NumEdges returns the number of live edges recorded in the RR graph.
func (r *RRGraph) NumEdges() int { return len(r.Adj) }

// GraphSampler is the one RR-graph sampling interface of the COD pipelines.
// Both the IC Sampler and the LTSampler implement it, which is how the
// framework supports multiple influence models (§II, "Influence Models").
// Samples are written into an Arena (see its ownership contract); a caller
// that wants standalone RR graphs samples into a fresh arena and finalizes
// it. A sampler is single-goroutine; use one per worker.
type GraphSampler interface {
	// RRGraphInto samples one RR graph from a uniform random source into a.
	RRGraphInto(a *Arena)
	// RRGraphWithinInto samples one RR graph rooted at src into a, with
	// propagation confined to member nodes under the original
	// probabilities. A nil member means unrestricted.
	RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool)
	// SetRand rebinds the sampler to rng. A pooled sampler keeps its
	// per-graph visited marks and serves successive queries that each carry
	// their own deterministic stream.
	SetRand(rng *rand.Rand)
}

var (
	_ GraphSampler = (*Sampler)(nil)
	_ GraphSampler = (*LTSampler)(nil)
)

// Sampler generates RR sets and RR graphs for one (graph, model) pair under
// the IC model. It is not safe for concurrent use; create one Sampler per
// goroutine, each with its own rng.
type Sampler struct {
	g     *graph.Graph
	model Model
	rng   *rand.Rand

	// scratch, reused across samples
	pos   []int32 // node -> position in current sample, -1 when absent
	epoch []int32 // versioned visited marks to avoid clearing pos
	ver   int32
}

// NewSampler returns a Sampler over g under model, driven by rng.
func NewSampler(g *graph.Graph, model Model, rng *rand.Rand) *Sampler {
	s := &Sampler{g: g, model: model, rng: rng}
	s.pos = make([]int32, g.N())
	s.epoch = make([]int32, g.N())
	return s
}

// SetRand implements GraphSampler.
func (s *Sampler) SetRand(rng *rand.Rand) { s.rng = rng }

// RRSet samples one RR set: the source plus every node that reverse-reaches
// it through live edges. The result is a fresh slice with the source first.
func (s *Sampler) RRSet() []graph.NodeID {
	src := graph.NodeID(s.rng.IntN(s.g.N()))
	return s.RRSetFrom(src)
}

// RRSetFrom samples an RR set rooted at the given source.
func (s *Sampler) RRSetFrom(src graph.NodeID) []graph.NodeID {
	s.ver++
	nodes := []graph.NodeID{src}
	s.epoch[src] = s.ver
	for qi := 0; qi < len(nodes); qi++ {
		v := nodes[qi]
		for _, u := range s.g.Neighbors(v) {
			if s.epoch[u] == s.ver {
				continue
			}
			if s.rng.Float64() < s.model.Prob(u, v) {
				s.epoch[u] = s.ver
				nodes = append(nodes, u)
			}
		}
	}
	return nodes
}

// RRSetWithin samples an RR set rooted at src where propagation may only
// traverse nodes for which member reports true, keeping the *original* edge
// probabilities of the full graph (the paper's σ_C(v) restricts propagation
// to C but does not re-normalize p(u,v)). src must be a member.
func (s *Sampler) RRSetWithin(src graph.NodeID, member func(graph.NodeID) bool) []graph.NodeID {
	s.ver++
	nodes := []graph.NodeID{src}
	s.epoch[src] = s.ver
	for qi := 0; qi < len(nodes); qi++ {
		v := nodes[qi]
		for _, u := range s.g.Neighbors(v) {
			if s.epoch[u] == s.ver || !member(u) {
				continue
			}
			if s.rng.Float64() < s.model.Prob(u, v) {
				s.epoch[u] = s.ver
				nodes = append(nodes, u)
			}
		}
	}
	return nodes
}

// RRGraphInto samples one RR graph from a uniform source into a.
func (s *Sampler) RRGraphInto(a *Arena) {
	s.rrInto(a, graph.NodeID(s.rng.IntN(s.g.N())), nil)
}

// RRGraphWithinInto samples one RR graph rooted at src into a, confined to
// member nodes (nil = unrestricted).
func (s *Sampler) RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.rrInto(a, src, member)
}

// rrInto samples the RR graph rooted at src; member == nil means
// unrestricted. Every in-edge (u, v) of every visited v whose tail is a
// member gets an independent liveness coin with probability p(u, v); live
// edges are recorded even when u was already visited, so induced RR graphs
// over sub-communities of the restriction stay faithful (Theorem 2).
// Non-members are skipped before their coin is drawn.
func (s *Sampler) rrInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.ver++
	base := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	for qi := 0; base+qi < len(a.nodes); qi++ {
		v := a.nodes[base+qi]
		for _, u := range s.g.Neighbors(v) {
			if member != nil && !member(u) {
				continue
			}
			if s.rng.Float64() >= s.model.Prob(u, v) {
				continue
			}
			if s.epoch[u] != s.ver {
				s.epoch[u] = s.ver
				s.pos[u] = a.pushNode(base, u)
			}
			a.pushEdge(int32(qi), s.pos[u])
		}
	}
	a.endRR(base)
}

// EstimateAll counts, for every node, the number of RR graphs containing a
// node reachable... more precisely: the number of RR graphs in which the
// node reverse-reaches the source through live edges (equivalently, appears
// in the RR graph at all, since membership implies reachability on the full
// graph). Influence estimates follow Theorem 1: σ(v) ≈ count[v]/Θ · |V|.
func EstimateAll(g *graph.Graph, rrs []*RRGraph) []int {
	counts := make([]int, g.N())
	for _, r := range rrs {
		for _, v := range r.Nodes {
			counts[v]++
		}
	}
	return counts
}

// InfluenceFromCount converts an RR occurrence count into an influence
// estimate on a graph (or community) with n nodes and theta samples.
func InfluenceFromCount(count, theta, n int) float64 {
	if theta == 0 {
		return 0
	}
	return float64(count) / float64(theta) * float64(n)
}

// ReachableWithin computes which positions of r are reachable from the
// source using only nodes for which keep reports true (the induced RR graph
// R(C) of Definition 3). The source itself must satisfy keep, otherwise the
// result is empty. The returned slice is indexed by position.
func (r *RRGraph) ReachableWithin(keep func(node graph.NodeID) bool) []bool {
	reach := make([]bool, len(r.Nodes))
	if len(r.Nodes) == 0 || !keep(r.Nodes[0]) {
		return reach
	}
	reach[0] = true
	queue := []int32{0}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, t := range r.Adj[r.Off[p]:r.Off[p+1]] {
			if !reach[t] && keep(r.Nodes[t]) {
				reach[t] = true
				queue = append(queue, t)
			}
		}
	}
	return reach
}
