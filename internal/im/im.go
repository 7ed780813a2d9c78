// Package im implements reverse-influence-sampling (RIS) influence
// maximization: greedy maximum coverage over a pool of RR sets (Borgs et
// al., SODA'14). COD (package core) finds where one node matters; IM finds
// the seed set that matters most globally — the contrast drawn in the
// paper's related-work discussion. The marketing example uses both.
package im

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

// Result is the outcome of an IM computation.
type Result struct {
	// Seeds are the selected seed nodes, in selection order.
	Seeds []graph.NodeID
	// Coverage[i] is the fraction of RR sets covered by Seeds[:i+1]; the
	// expected spread of Seeds[:i+1] is Coverage[i] · |V| (Theorem 1).
	Coverage []float64
}

// Spread returns the estimated expected spread of the full seed set on a
// graph with n nodes.
func (r Result) Spread(n int) float64 {
	if len(r.Coverage) == 0 {
		return 0
	}
	return r.Coverage[len(r.Coverage)-1] * float64(n)
}

// Select greedily picks k seeds maximizing RR-set coverage over the given
// pool. The pool must have been sampled on the target graph; it is not
// modified. Runs in O(Σ|rr| + k·n) with lazy bucket updates.
func Select(g *graph.Graph, pool []*influence.RRGraph, k int) (Result, error) {
	n := g.N()
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("im: k = %d out of range [1,%d]", k, n)
	}
	if len(pool) == 0 {
		return Result{}, fmt.Errorf("im: empty RR pool")
	}
	// node -> RR sets containing it
	covers := make([][]int32, n)
	for i, rr := range pool {
		for _, v := range rr.Nodes {
			covers[v] = append(covers[v], int32(i))
		}
	}
	gain := make([]int, n)
	for v := range gain {
		gain[v] = len(covers[v])
	}
	covered := make([]bool, len(pool))
	coveredCnt := 0

	// Bucketed lazy greedy: buckets[g] holds nodes whose cached gain is g.
	maxGain := 0
	for _, x := range gain {
		if x > maxGain {
			maxGain = x
		}
	}
	buckets := make([][]graph.NodeID, maxGain+1)
	for v := 0; v < n; v++ {
		buckets[gain[v]] = append(buckets[gain[v]], graph.NodeID(v))
	}
	picked := make([]bool, n)

	res := Result{Seeds: make([]graph.NodeID, 0, k), Coverage: make([]float64, 0, k)}
	cur := maxGain
	for len(res.Seeds) < k {
		// find the node with the highest up-to-date gain; stop at zero
		// marginal gain (every RR set already covered)
		var best graph.NodeID = -1
		for cur >= 1 {
			for len(buckets[cur]) > 0 {
				v := buckets[cur][len(buckets[cur])-1]
				buckets[cur] = buckets[cur][:len(buckets[cur])-1]
				if picked[v] {
					continue
				}
				// refresh the cached gain
				fresh := 0
				for _, ri := range covers[v] {
					if !covered[ri] {
						fresh++
					}
				}
				if fresh == cur {
					best = v
					break
				}
				gain[v] = fresh
				buckets[fresh] = append(buckets[fresh], v)
			}
			if best >= 0 {
				break
			}
			cur--
		}
		if best < 0 {
			break // pool exhausted: every RR set covered
		}
		picked[best] = true
		for _, ri := range covers[best] {
			if !covered[ri] {
				covered[ri] = true
				coveredCnt++
			}
		}
		res.Seeds = append(res.Seeds, best)
		res.Coverage = append(res.Coverage, float64(coveredCnt)/float64(len(pool)))
	}
	if len(res.Seeds) == 0 {
		return Result{}, fmt.Errorf("im: no seed selected")
	}
	return res, nil
}

// Maximize is the convenience wrapper: sample theta·n RR graphs under the
// model and greedily select k seeds.
func Maximize(g *graph.Graph, model influence.Model, k, theta int, seed uint64) (Result, error) {
	s := influence.NewSampler(g, model, graph.NewRand(seed))
	// A Background context never cancels, so the batch cannot fail.
	pool, _ := influence.BatchIntoCtx(context.Background(), s, theta*g.N(), influence.NewArena())
	return Select(g, pool, k)
}
