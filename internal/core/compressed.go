package core

import (
	"context"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// This file implements Algorithm 1, the compressed COD evaluation: a single
// pass of hierarchical-first search (HFS) over a shared pool of RR graphs
// fills one influence bucket per chain community, and an incremental top-k
// sweep over the buckets finds the largest community where the query node is
// top-k. The sampling cost is thereby decoupled from |H(q)| (Theorem 4).

// EvalResult reports the outcome of a compressed COD evaluation.
type EvalResult struct {
	// Level is the chain index of the characteristic community C*(q), or -1
	// when the query node is not top-k in any chain community.
	Level int
	// QCount is the query node's final RR occurrence count (over the whole
	// chain), usable as an influence estimate via Theorem 1.
	QCount int
	// Buckets is the total number of bucket entries produced by HFS; it is
	// bounded by the total number of RR-graph nodes (Lemma 2) and is exposed
	// for tests and instrumentation.
	Buckets int
	// TopK reports, per chain level, whether the query node ranked top-k
	// there. Backed by the evaluation's scratch: valid until the scratch's
	// next evaluation.
	TopK []bool
	// Ranks holds, per chain level, q's empirical influence rank (1 = most
	// influential). Exact when TopK of that level is true; a lower bound
	// otherwise (the sweep tracks only the k largest competitors). Backed by
	// the evaluation's scratch, like TopK.
	Ranks []int32
}

// Equal reports full equality of two results, comparing the scratch-backed
// per-level slices element-wise.
func (r EvalResult) Equal(o EvalResult) bool {
	if r.Level != o.Level || r.QCount != o.QCount || r.Buckets != o.Buckets {
		return false
	}
	if len(r.TopK) != len(o.TopK) || len(r.Ranks) != len(o.Ranks) {
		return false
	}
	for i := range r.TopK {
		if r.TopK[i] != o.TopK[i] {
			return false
		}
	}
	for i := range r.Ranks {
		if r.Ranks[i] != o.Ranks[i] {
			return false
		}
	}
	return true
}

// CompressedEvaluate runs Algorithm 1 over the chain using the given shared
// RR graphs. The RR graphs must have been sampled on the same graph (or the
// same restricted node set) the chain's levels are defined over. k is the
// required influence rank (q is top-k iff fewer than k nodes have strictly
// larger estimated influence).
func CompressedEvaluate(ch *Chain, rrs []*influence.RRGraph, k int) EvalResult {
	res, _ := CompressedEvaluateScratchCtx(context.Background(), ch, rrs, k, NewEvalScratch())
	return res
}

// EvalScratch holds the reusable working buffers of a compressed
// evaluation: the per-level influence buckets, the per-level HFS queues, the
// per-RR visited marks and the running tally map. Reuse is determinism-safe
// because the only map-order-sensitive consumer — the top-k sweep — is
// order-invariant under the canonical influence order (see topK.offer), so a
// scratch-backed run returns exactly the fresh-allocation result. A scratch
// is single-goroutine; the engine pools one per query.
type EvalScratch struct {
	buckets []map[graph.NodeID]int32
	queues  [][]int32
	visited []bool
	tau     map[graph.NodeID]int32
	topk    []bool
	ranks   []int32
}

// NewEvalScratch returns an empty scratch.
func NewEvalScratch() *EvalScratch { return &EvalScratch{} }

// prepare sizes the scratch for a chain of L levels, clearing carried state.
func (sc *EvalScratch) prepare(L int) {
	for len(sc.buckets) < L {
		sc.buckets = append(sc.buckets, make(map[graph.NodeID]int32))
	}
	for h := 0; h < L; h++ {
		clear(sc.buckets[h])
	}
	for len(sc.queues) < L {
		sc.queues = append(sc.queues, nil)
	}
	for h := 0; h < L; h++ {
		sc.queues[h] = sc.queues[h][:0]
	}
	if sc.tau == nil {
		sc.tau = make(map[graph.NodeID]int32, 64)
	} else {
		clear(sc.tau)
	}
	if cap(sc.topk) < L {
		sc.topk = make([]bool, L)
		sc.ranks = make([]int32, L)
	}
	sc.topk = sc.topk[:L]
	sc.ranks = sc.ranks[:L]
}

// visitedFor returns a cleared visited buffer of length n.
func (sc *EvalScratch) visitedFor(n int) []bool {
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
	}
	sc.visited = sc.visited[:n]
	clear(sc.visited)
	return sc.visited
}

// CompressedEvaluateScratchCtx is CompressedEvaluate with cancellation,
// drawing every working buffer from sc instead of allocating: the HFS pass
// polls ctx.Err() once per influence.PollEvery RR graphs and aborts with a
// *influence.CanceledError counting the RR graphs folded in so far. Results
// are identical to CompressedEvaluate for any (possibly dirty) scratch.
func CompressedEvaluateScratchCtx(ctx context.Context, ch *Chain, rrs []*influence.RRGraph, k int, sc *EvalScratch) (EvalResult, error) {
	rec := obs.FromContext(ctx)
	L := ch.Len()
	sc.prepare(L)
	buckets := sc.buckets[:L]

	// Stage 1: shared sample generation (HFS over every RR graph).
	induce := rec.StartSpan(obs.StageRRInduce)
	entries := 0
	for ri, r := range rrs {
		if ri%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				induce.EndItems(entries)
				return EvalResult{Level: -1}, &influence.CanceledError{
					Op: "core: compressed evaluation", Done: ri, Total: len(rrs), Cause: err}
			}
		}
		entries += sc.foldRR(ch, L, r)
	}

	induce.EndItems(entries)

	// Stage 2: incremental top-k evaluation.
	sweep := rec.StartSpan(obs.StageTopKSweep)
	tau := sc.tau
	top := newTopK(k)
	best := -1
	for h := 0; h < L; h++ {
		for v, cnt := range buckets[h] {
			nv := tau[v] + cnt
			tau[v] = nv
			top.offer(v, nv)
		}
		ahead := top.aheadOf(ch.q, tau[ch.q])
		sc.ranks[h] = int32(ahead) + 1
		sc.topk[h] = ahead < k
		if sc.topk[h] {
			best = h
		}
	}
	sweep.EndItems(len(tau))
	return EvalResult{Level: best, QCount: int(tau[ch.q]), Buckets: entries,
		TopK: sc.topk[:L], Ranks: sc.ranks[:L]}, nil
}

// foldRR runs the HFS pass of one RR graph, adding its node occurrences to
// the per-level buckets, and returns the bucket entries it produced. Every
// pushed node lands at the current or a later level, so sweeping h from the
// source level upward processes (and then resets) each queue once. The fold
// is purely additive per RR graph, which is what lets StagedEval grow the
// pool across stages at the same total HFS cost as a single full pass.
func (sc *EvalScratch) foldRR(ch *Chain, L int, r *influence.RRGraph) int {
	srcLevel := ch.Level(r.Source())
	if srcLevel >= L {
		return 0 // source outside the chain's universe
	}
	buckets := sc.buckets[:L]
	queues := sc.queues[:L]
	entries := 0
	visited := sc.visitedFor(r.Len())
	visited[0] = true
	queues[srcLevel] = append(queues[srcLevel], 0)
	for h := srcLevel; h < L; h++ {
		q := queues[h]
		for qi := 0; qi < len(q); qi++ {
			p := q[qi]
			node := r.Nodes[p]
			buckets[h][node]++
			entries++
			for _, t := range r.Adj[r.Off[p]:r.Off[p+1]] {
				if visited[t] {
					continue
				}
				visited[t] = true
				lvl := ch.Level(r.Nodes[t])
				if lvl >= L {
					continue
				}
				if lvl < h {
					lvl = h
				}
				queues[lvl] = append(queues[lvl], t)
				q = queues[h] // re-read: the append above may have grown level h
			}
		}
		queues[h] = q[:0]
	}
	return entries
}

// topK maintains the k nodes with the largest counts seen so far. k is small
// (the paper uses k <= 5), so linear operations are fastest.
type topK struct {
	k     int
	nodes []graph.NodeID
	cnts  []int32
}

func newTopK(k int) *topK {
	return &topK{k: k, nodes: make([]graph.NodeID, 0, k), cnts: make([]int32, 0, k)}
}

// offer updates node v's count or inserts it when it outranks the current
// minimum under the canonical influence order (count descending, ties by
// smaller node ID). The tie-break makes the retained set independent of map
// iteration order, so the evaluation is deterministic even on count ties.
func (t *topK) offer(v graph.NodeID, cnt int32) {
	for i, n := range t.nodes {
		if n == v {
			t.cnts[i] = cnt
			return
		}
	}
	if len(t.nodes) < t.k {
		t.nodes = append(t.nodes, v)
		t.cnts = append(t.cnts, cnt)
		return
	}
	mi := 0
	for i := 1; i < len(t.cnts); i++ {
		if t.cnts[i] < t.cnts[mi] || (t.cnts[i] == t.cnts[mi] && t.nodes[i] > t.nodes[mi]) {
			mi = i
		}
	}
	if cnt > t.cnts[mi] || (cnt == t.cnts[mi] && v < t.nodes[mi]) {
		t.nodes[mi] = v
		t.cnts[mi] = cnt
	}
}

// isTopK reports whether q (with count qCnt) ranks among the top k: fewer
// than k tracked nodes are ahead of q under the canonical influence order
// (count descending, ties by smaller node ID), matching rankOf.
func (t *topK) isTopK(q graph.NodeID, qCnt int32) bool {
	return t.aheadOf(q, qCnt) < t.k
}

// aheadOf counts tracked nodes other than q ranked strictly ahead of
// (q, qCnt) under the canonical influence order.
func (t *topK) aheadOf(q graph.NodeID, qCnt int32) int {
	ahead := 0
	for i, n := range t.nodes {
		if n != q && (t.cnts[i] > qCnt || (t.cnts[i] == qCnt && n < q)) {
			ahead++
		}
	}
	return ahead
}

// reset empties the tracked set, keeping capacity.
func (t *topK) reset() {
	t.nodes = t.nodes[:0]
	t.cnts = t.cnts[:0]
}

// boundary returns the smallest tracked count — the rank-k boundary when k
// nodes are tracked — or 0 while fewer than k nodes have been offered.
func (t *topK) boundary() int32 {
	if len(t.cnts) < t.k {
		return 0
	}
	min := t.cnts[0]
	for _, c := range t.cnts[1:] {
		if c < min {
			min = c
		}
	}
	return min
}
