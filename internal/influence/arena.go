package influence

import "github.com/codsearch/cod/internal/graph"

// Arena owns reusable backing storage for a batch of RR graphs. Instead of
// allocating fresh Nodes/Off/Adj slices per sample — the dominant allocation
// cost of a query, at Θ = θ·n samples each a handful of small slices — every
// sample of a batch appends into three shared arrays and Finalize carves
// slice headers out of them. A Reset keeps the capacity, so an arena cycled
// through a sync.Pool amortizes sampling allocations across queries.
//
// Ownership contract: the []*RRGraph returned by Finalize aliases the
// arena's backing arrays. It is valid until the next Reset (or the next
// sample recorded into the arena) and must not be retained past the point
// the arena is recycled; callers that need RR graphs to outlive the arena
// own the arena itself (as the per-attribute sample cache does) instead of
// copying.
//
// An Arena is single-goroutine, like the samplers that fill it.
type Arena struct {
	nodes []graph.NodeID
	off   []int32
	adj   []int32

	live   []arenaEdge // live edges of the sample under construction
	cursor []int32     // CSR fill scratch
	spans  []rrSpan
	hdr    []RRGraph
	ptrs   []*RRGraph
}

// arenaEdge is one live edge recorded during sampling: positions are local
// to the open sample.
type arenaEdge struct{ head, tail int32 }

// rrSpan locates one completed sample inside the backing arrays.
type rrSpan struct {
	nodeOff, nodeLen int
	offOff           int // Off span start; its length is nodeLen+1
	adjOff, adjLen   int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset drops every recorded sample but keeps the backing capacity. Slices
// previously returned by Finalize become invalid.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.off = a.off[:0]
	a.adj = a.adj[:0]
	a.live = a.live[:0]
	a.spans = a.spans[:0]
	a.hdr = a.hdr[:0]
	a.ptrs = a.ptrs[:0]
}

// Len returns the number of completed samples.
func (a *Arena) Len() int { return len(a.spans) }

// beginRR opens a sample rooted at src and returns the node-array base
// offset; the sampler appends nodes via pushNode and edges via pushEdge.
func (a *Arena) beginRR(src graph.NodeID) int {
	base := len(a.nodes)
	a.nodes = append(a.nodes, src)
	a.live = a.live[:0]
	return base
}

// pushNode appends a node to the open sample, returning its local position.
func (a *Arena) pushNode(base int, u graph.NodeID) int32 {
	p := int32(len(a.nodes) - base)
	a.nodes = append(a.nodes, u)
	return p
}

// pushEdge records a live edge between local positions of the open sample.
func (a *Arena) pushEdge(head, tail int32) {
	a.live = append(a.live, arenaEdge{head, tail})
}

// endRR closes the open sample, bucketing its live edges by head position
// into CSR form in the shared Off/Adj arrays (see RRGraph).
func (a *Arena) endRR(base int) {
	n := len(a.nodes) - base
	offStart := len(a.off)
	a.off = growInt32(a.off, n+1)
	off := a.off[offStart:]
	for _, e := range a.live {
		off[e.head+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adjStart := len(a.adj)
	a.adj = growInt32(a.adj, len(a.live))
	adj := a.adj[adjStart:]
	if cap(a.cursor) < n {
		a.cursor = make([]int32, n)
	}
	cur := a.cursor[:n]
	copy(cur, off[:n])
	for _, e := range a.live {
		adj[cur[e.head]] = e.tail
		cur[e.head]++
	}
	a.spans = append(a.spans, rrSpan{nodeOff: base, nodeLen: n, offOff: offStart, adjOff: adjStart, adjLen: len(a.live)})
}

// growInt32 extends s by n zeroed elements.
func growInt32(s []int32, n int) []int32 {
	for cap(s) < len(s)+n {
		s = append(s[:cap(s)], 0)[:len(s)]
	}
	tail := s[len(s) : len(s)+n]
	clear(tail)
	return s[: len(s)+n : cap(s)]
}

// Finalize materializes headers for every completed sample. The returned
// slice and the RRGraphs it points to alias the arena; see the ownership
// contract in the type comment.
func (a *Arena) Finalize() []*RRGraph {
	if cap(a.hdr) < len(a.spans) {
		a.hdr = make([]RRGraph, 0, len(a.spans))
	}
	a.hdr = a.hdr[:0]
	for _, sp := range a.spans {
		a.hdr = append(a.hdr, RRGraph{
			Nodes: a.nodes[sp.nodeOff : sp.nodeOff+sp.nodeLen : sp.nodeOff+sp.nodeLen],
			Off:   a.off[sp.offOff : sp.offOff+sp.nodeLen+1 : sp.offOff+sp.nodeLen+1],
			Adj:   a.adj[sp.adjOff : sp.adjOff+sp.adjLen : sp.adjOff+sp.adjLen],
		})
	}
	a.ptrs = a.ptrs[:0]
	for i := range a.hdr {
		a.ptrs = append(a.ptrs, &a.hdr[i])
	}
	return a.ptrs
}
