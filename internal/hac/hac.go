// Package hac implements agglomerative hierarchical graph clustering with
// the nearest-neighbor chain algorithm, producing the community hierarchy
// (dendrogram) consumed by the COD algorithms.
//
// Following the paper's setup (§V-A), the default linkage is the unweighted
// average (UPGMA) similarity between clusters A and B on a weighted graph:
//
//	sim(A, B) = (Σ weight of edges between A and B) / (|A|·|B|)
//
// which is reducible, so the nearest-neighbor chain algorithm produces the
// same dendrogram as greedy agglomeration. Single linkage and WPGMA are
// available for ablations.
package hac

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/obs"
)

// Linkage selects the cluster-similarity update rule.
type Linkage int

const (
	// UnweightedAverage is UPGMA: average pairwise similarity, with absent
	// edges counting as similarity 0. The paper's default.
	UnweightedAverage Linkage = iota
	// WeightedAverage is WPGMA: the merged similarity is the plain mean of
	// the two constituents' similarities.
	WeightedAverage
	// Single linkage: the merged similarity is the max of the constituents'.
	Single
)

func (l Linkage) String() string {
	switch l {
	case UnweightedAverage:
		return "unweighted-average"
	case WeightedAverage:
		return "weighted-average"
	case Single:
		return "single"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Cluster builds the dendrogram of g using the nearest-neighbor chain
// algorithm under the given linkage. Disconnected graphs are supported: each
// component is clustered separately and the component roots are then merged
// left-to-right (with similarity 0) into a single root, so the result is
// always one tree spanning all nodes.
func Cluster(g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	return ClusterCtx(context.Background(), g, linkage)
}

// ClusterCtx is Cluster with cancellation: the merge loop polls ctx.Err()
// at a bounded interval and aborts with an error wrapping the context error.
// An uncancelled run is identical to Cluster (polling draws nothing).
func ClusterCtx(ctx context.Context, g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("hac: empty graph")
	}
	total := 2*n - 1
	parent := make([]hier.Vertex, total)
	for i := range parent {
		parent[i] = -1
	}
	if n == 1 {
		return hier.New(1, parent[:1])
	}

	// The merge span covers the adjacency build too and flushes even on
	// cancellation, counting the internal vertices created so far (merges
	// completed).
	span := obs.FromContext(ctx).StartSpan(obs.StageHACMerge)
	c := &clusterer{
		g:       g,
		linkage: linkage,
		parent:  parent,
		size:    make([]int32, total),
		nbr:     make([][]link, total),
		stale:   make([]int32, total),
		active:  make([]bool, total),
		next:    int32(n),
	}
	// The leaves' runs are capacity-capped windows of one flat array, so an
	// append to one run reallocates instead of overwriting the next.
	links := make([]link, 0, 2*g.M())
	for v := 0; v < n; v++ {
		c.size[v] = 1
		c.active[v] = true
		ws := g.Weights(graph.NodeID(v))
		start := len(links)
		for i, u := range g.Neighbors(graph.NodeID(v)) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			links = append(links, link{to: int32(u), st: w})
		}
		c.nbr[v] = links[start:len(links):len(links)]
	}

	roots, err := c.run(ctx)
	if err != nil {
		span.EndItems(int(c.next) - n)
		return nil, err
	}
	// Merge component roots (if several) under zero similarity.
	for len(roots) > 1 {
		a, b := roots[0], roots[1]
		nv := c.newVertex(a, b)
		roots = append([]int32{nv}, roots[2:]...)
	}
	span.EndItems(int(c.next) - n)
	return hier.New(n, c.parent)
}

// ClusterBalanced clusters g and then rebalances the dendrogram along its
// heavy paths (hier.Rebalance), bounding every node's ancestor chain by
// O(log²n) regardless of hub skew. Use it when HIMOR cost on caterpillar
// dendrograms matters more than exact agglomerative faithfulness.
func ClusterBalanced(g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	return ClusterBalancedCtx(context.Background(), g, linkage)
}

// ClusterBalancedCtx is ClusterBalanced with cancellation (see ClusterCtx).
func ClusterBalancedCtx(ctx context.Context, g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	t, err := ClusterCtx(ctx, g, linkage)
	if err != nil {
		return nil, err
	}
	return hier.Rebalance(t)
}

type clusterer struct {
	g       *graph.Graph
	linkage Linkage
	parent  []hier.Vertex
	size    []int32
	// nbr[a] is a's adjacency run, sorted by neighbour id. Entries whose
	// neighbour has since been merged (is inactive) are stale: lookups skip
	// them, and stale[a] counts them so the run is compacted once they make
	// up more than half of it.
	nbr    [][]link
	stale  []int32
	buf    []link // newVertex's merge buffer
	active []bool
	next   int32 // next internal vertex id
}

// link is one adjacency entry: the neighbour cluster and the linkage state
// between the two clusters.
type link struct {
	to int32
	st float64
}

// sim converts the stored linkage state between clusters a and b into a
// comparable similarity.
func (c *clusterer) sim(a, b int32, state float64) float64 {
	if c.linkage == UnweightedAverage {
		return state / (float64(c.size[a]) * float64(c.size[b]))
	}
	return state
}

// nn returns the most similar active neighbor of a (ties broken toward
// prefer, then by smallest id) and its similarity; ok is false when a has no
// active neighbors.
func (c *clusterer) nn(a int32, prefer int32) (best int32, bestSim float64, ok bool) {
	best = -1
	for _, l := range c.nbr[a] {
		b := l.to
		if !c.active[b] {
			continue
		}
		s := c.sim(a, b, l.st)
		switch {
		case best == -1, s > bestSim:
			best, bestSim = b, s
		//codvet:ignore floatcmp exact tie detection: equal linkage states must take the tie-break path
		case s == bestSim && (b == prefer || (best != prefer && b < best)):
			best = b
		}
	}
	return best, bestSim, best != -1
}

// clusterPollEvery bounds the cancellation-check interval of the merge
// loop: ctx.Err() is consulted once per this many chain steps.
const clusterPollEvery = 256

// run performs nearest-neighbor chain clustering over all components and
// returns the remaining roots (one per component). It polls ctx at a
// bounded interval and aborts with the number of merges completed.
func (c *clusterer) run(ctx context.Context) ([]int32, error) {
	n := c.g.N()
	remaining := n
	chain := make([]int32, 0, 64)
	seed := int32(0) // smallest untouched active cluster to restart chains

	steps := 0
	for remaining > 1 {
		if steps%clusterPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("hac: clustering canceled after %d/%d merges: %w",
					n-remaining, n-1, err)
			}
		}
		steps++
		if len(chain) == 0 {
			for seed < c.next && !c.active[seed] {
				seed++
			}
			if seed >= c.next {
				break
			}
			chain = append(chain, seed)
		}
		top := chain[len(chain)-1]
		prefer := int32(-1)
		if len(chain) >= 2 {
			prefer = chain[len(chain)-2]
		}
		b, _, ok := c.nn(top, prefer)
		if !ok {
			// top is an isolated component root: set it aside.
			c.active[top] = false
			chain = chain[:len(chain)-1]
			// Not merged, so it stays a component root; it will be collected
			// in the final sweep below. remaining is unchanged for merging
			// purposes but the chain must not loop on it again.
			remaining--
			continue
		}
		if b == prefer {
			// Mutual nearest neighbors: merge top and prefer.
			chain = chain[:len(chain)-2]
			c.newVertex(top, b)
			remaining--
			continue
		}
		chain = append(chain, b)
	}

	var roots []int32
	for v := int32(0); v < c.next; v++ {
		if c.parent[v] == -1 {
			roots = append(roots, v)
		}
	}
	return roots, nil
}

// newVertex merges clusters a and b into a fresh internal vertex and
// returns its id. nv's run is the merge-join of a's and b's runs over their
// active neighbours; each such neighbour x gets (nv, st) appended, which
// keeps x's run sorted because nv is the largest id so far, and its entries
// for a and b turn stale.
func (c *clusterer) newVertex(a, b int32) int32 {
	nv := c.next
	c.next++
	c.parent[a] = nv
	c.parent[b] = nv
	c.size[nv] = c.size[a] + c.size[b]
	c.active[a], c.active[b] = false, false
	c.active[nv] = true

	ra, rb := c.nbr[a], c.nbr[b]
	c.nbr[a], c.nbr[b] = nil, nil
	merged := c.buf[:0]
	// emit records nv's state with x, which appears in `sides` of the two
	// runs, on both ends of the new edge.
	emit := func(x int32, st float64, sides int32) {
		merged = append(merged, link{x, st})
		rx := c.nbr[x]
		c.stale[x] += sides
		// Compact once stale entries are more than half the run, and
		// before an append would grow a run that holds any.
		if 2*int(c.stale[x]) > len(rx) || (len(rx) == cap(rx) && c.stale[x] > 0) {
			rx = c.compact(rx)
			c.stale[x] = 0
		}
		c.nbr[x] = append(rx, link{nv, st})
	}
	// one converts the state of a neighbour present on one side only.
	one := func(st float64) float64 {
		if c.linkage == WeightedAverage {
			return st / 2
		}
		return st
	}
	i, j := 0, 0
	for i < len(ra) || j < len(rb) {
		switch {
		case j == len(rb) || (i < len(ra) && ra[i].to < rb[j].to):
			if x := ra[i]; c.active[x.to] {
				emit(x.to, one(x.st), 1)
			}
			i++
		case i == len(ra) || rb[j].to < ra[i].to:
			if x := rb[j]; c.active[x.to] {
				emit(x.to, one(x.st), 1)
			}
			j++
		default: // the same neighbour on both sides
			x, sa, sb := ra[i].to, ra[i].st, rb[j].st
			i++
			j++
			if !c.active[x] {
				continue
			}
			var st float64
			switch c.linkage {
			case UnweightedAverage:
				// States are S-values (summed inter-cluster edge weights): they add.
				st = sa + sb
			case WeightedAverage:
				// sim(N,x) = (sim(a,x) + sim(b,x)) / 2.
				st = sa/2 + sb/2
			case Single:
				st = max(sa, sb)
			}
			emit(x, st, 2)
		}
	}
	c.buf = merged
	// Reuse the larger dead run's array when the merged run fits.
	if cap(ra) < cap(rb) {
		ra = rb
	}
	if cap(ra) < len(merged) {
		ra = make([]link, 0, len(merged)+len(merged)/2)
	}
	c.nbr[nv] = append(ra[:0], merged...)
	return nv
}

// compact drops r's stale entries in place, keeping the order.
func (c *clusterer) compact(r []link) []link {
	out := r[:0]
	for _, l := range r {
		if c.active[l.to] {
			out = append(out, l)
		}
	}
	return out
}
