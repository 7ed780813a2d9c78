package core

import (
	"context"
	"errors"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/influence"
)

// referenceCounts computes, per chain level and node, the number of RR
// graphs whose induced RR graph on C_h reaches the node — the quantity the
// compressed HFS buckets must reconstruct cumulatively (Theorem 2).
func referenceCounts(ch *Chain, rrs []*influence.RRGraph) []map[graph.NodeID]int {
	out := make([]map[graph.NodeID]int, ch.Len())
	for h := range out {
		out[h] = map[graph.NodeID]int{}
		for _, r := range rrs {
			reach := r.ReachableWithin(func(v graph.NodeID) bool { return ch.Contains(v, h) })
			for i, ok := range reach {
				if ok {
					out[h][r.Nodes[i]]++
				}
			}
		}
	}
	return out
}

// referenceBest finds the largest level where q is top-k under the reference
// counts and the canonical influence order (count descending, count ties by
// smaller node ID), mirroring CompressedEvaluate's semantics.
func referenceBest(ch *Chain, ref []map[graph.NodeID]int, k int) int {
	best := -1
	for h := range ref {
		ahead := 0
		cq := ref[h][ch.Q()]
		for v, c := range ref[h] {
			if v != ch.Q() && (c > cq || (c == cq && v < ch.Q())) {
				ahead++
			}
		}
		if ahead < k {
			best = h
		}
	}
	return best
}

func TestCompressedMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := graph.NewRand(seed)
		g := graph.ErdosRenyi(40, 110, rng)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		q := graph.NodeID(rng.IntN(40))
		ch := ChainFromTree(tr, q)
		s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(seed+100))
		rrs := batch(s, 400)

		ref := referenceCounts(ch, rrs)
		for _, k := range []int{1, 2, 5} {
			got := CompressedEvaluate(ch, rrs, k)
			want := referenceBest(ch, ref, k)
			if got.Level != want {
				t.Errorf("seed=%d k=%d: level = %d, want %d", seed, k, got.Level, want)
			}
		}
		// The query count must equal its reference count in the top level.
		got := CompressedEvaluate(ch, rrs, 1)
		if got.QCount != ref[ch.Len()-1][q] {
			t.Errorf("seed=%d: QCount = %d, want %d", seed, got.QCount, ref[ch.Len()-1][q])
		}
	}
}

// Cumulative bucket counts must reproduce induced reachability exactly; we
// expose this through QCount at every level by truncating the chain.
func TestCompressedCumulativeCounts(t *testing.T) {
	rng := graph.NewRand(42)
	g := graph.BarabasiAlbert(30, 2, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NodeID(7)
	ch := ChainFromTree(tr, q)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(43))
	rrs := batch(s, 300)
	ref := referenceCounts(ch, rrs)

	// Truncated chains end at level h; QCount then equals ref[h][q].
	for h := 0; h < ch.Len(); h++ {
		trunc := &Chain{q: q, level: ch.level, sizes: ch.sizes[:h+1], depks: ch.depks[:h+1]}
		got := CompressedEvaluate(trunc, rrs, 1)
		if got.QCount != ref[h][q] {
			t.Errorf("level %d: QCount = %d, want %d", h, got.QCount, ref[h][q])
		}
	}
}

func TestCompressedBucketBound(t *testing.T) {
	// Lemma 2: total bucket entries <= total RR-graph nodes.
	rng := graph.NewRand(5)
	g := graph.ErdosRenyi(50, 140, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 3)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(6))
	rrs := batch(s, 500)
	total := 0
	for _, r := range rrs {
		total += r.Len()
	}
	res := CompressedEvaluate(ch, rrs, 3)
	if res.Buckets > total {
		t.Errorf("bucket entries %d exceed RR nodes %d (Lemma 2)", res.Buckets, total)
	}
	if res.Buckets == 0 {
		t.Error("no bucket entries at all")
	}
}

func TestCompressedWholeGraphAlwaysChecked(t *testing.T) {
	// With k >= n, q is trivially top-k everywhere: the whole graph (last
	// level) must be returned.
	rng := graph.NewRand(9)
	g := graph.ErdosRenyi(25, 60, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 11)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(10))
	rrs := batch(s, 200)
	res := CompressedEvaluate(ch, rrs, 25)
	if res.Level != ch.Len()-1 {
		t.Errorf("k=n should select the root community, got level %d", res.Level)
	}
}

func TestCompressedNoSamples(t *testing.T) {
	rng := graph.NewRand(12)
	g := graph.ErdosRenyi(20, 50, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	res := CompressedEvaluate(ch, nil, 1)
	// Zero samples: every node has count 0, ties favor q, so the whole graph
	// qualifies. This documents the degenerate-behavior contract.
	if res.Level != ch.Len()-1 {
		t.Errorf("level = %d, want %d", res.Level, ch.Len()-1)
	}
	if res.QCount != 0 || res.Buckets != 0 {
		t.Error("unexpected counts with no samples")
	}
}

func TestTopKStructure(t *testing.T) {
	tk := newTopK(2)
	tk.offer(1, 5)
	tk.offer(2, 3)
	tk.offer(3, 4) // evicts node 2
	if !tk.isTopK(1, 5) {
		t.Error("node 1 should be top-2")
	}
	if tk.isTopK(2, 3) {
		t.Error("node 2 should not be top-2 (two strictly larger)")
	}
	// count ties resolve by node ID: tied node 3 has the smaller ID, so it
	// ranks ahead of query 9 and pushes it out of the top-2...
	if tk.isTopK(9, 4) {
		t.Error("count-4 query 9 loses the tie to node 3 -> nodes 1 and 3 ahead, not top-2")
	}
	// ...while a query with the smaller ID wins the same tie.
	if !tk.isTopK(0, 4) {
		t.Error("count-4 query 0 wins the tie against node 3 -> top-2")
	}
	// updating an existing member must not duplicate it
	tk.offer(3, 10)
	if len(tk.nodes) != 2 {
		t.Errorf("topK grew to %d entries", len(tk.nodes))
	}
	if tk.isTopK(9, 4) {
		t.Error("after update, counts 10 and 5 both beat 4")
	}
	// eviction on count ties is deterministic: the tracked node with the
	// largest ID is the minimum, and an equal-count candidate with a smaller
	// ID replaces it regardless of arrival order.
	tk2 := newTopK(2)
	tk2.offer(5, 4)
	tk2.offer(7, 4)
	tk2.offer(3, 4)
	if !tk2.isTopK(3, 4) || tk2.isTopK(7, 4) {
		t.Error("equal-count eviction should retain the smaller node IDs")
	}
}

func TestIndependentAgainstCompressed(t *testing.T) {
	// On a well-separated graph both evaluators should pick the same
	// characteristic community for a clear hub query.
	b := graph.NewBuilder(12, 0)
	star := func(center graph.NodeID, leaves []graph.NodeID) {
		for _, l := range leaves {
			if err := b.AddEdge(center, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	star(0, []graph.NodeID{1, 2, 3, 4, 5})
	star(6, []graph.NodeID{7, 8, 9, 10, 11})
	if err := b.AddEdge(5, 6); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	model := influence.NewWeightedCascade(g)
	s := influence.NewSampler(g, model, graph.NewRand(77))
	rrs := batch(s, 4000)
	comp := CompressedEvaluate(ch, rrs, 1)
	ind, done := IndependentEvaluate(g, model, ch, 1, 300, graph.NewRand(78), 0)
	if !done {
		t.Fatal("independent did not finish")
	}
	if comp.Level < 0 || ind.Level < 0 {
		t.Fatalf("hub not found as top-1: compressed=%d independent=%d", comp.Level, ind.Level)
	}
	// Node 0 is the strongest hub of its own star (5 leaves); the opposite
	// hub (node 6, degree 6 with the bridge) wins at the root, so both
	// evaluators should settle on at least the 5-node star core.
	if ch.Size(comp.Level) < 5 || ch.Size(ind.Level) < 5 {
		t.Errorf("characteristic community too small: %d / %d",
			ch.Size(comp.Level), ch.Size(ind.Level))
	}
}

func TestIndependentBudget(t *testing.T) {
	rng := graph.NewRand(20)
	g := graph.ErdosRenyi(30, 80, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	_, done := IndependentEvaluate(g, influence.NewWeightedCascade(g), ch, 1, 100, graph.NewRand(21), 10)
	if done {
		t.Error("tiny budget should truncate the evaluation")
	}
}

func TestExactRankWithin(t *testing.T) {
	// In a star, the center has the highest within-community influence.
	g, err := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	members := []graph.NodeID{0, 1, 2, 3, 4}
	rank := ExactRankWithin(g, influence.NewWeightedCascade(g), members, 0, 200, graph.NewRand(22))
	if rank != 0 {
		t.Errorf("star center rank = %d, want 0", rank)
	}
	rankLeaf := ExactRankWithin(g, influence.NewWeightedCascade(g), members, 3, 200, graph.NewRand(23))
	if rankLeaf == 0 {
		t.Error("leaf should not outrank the center")
	}
}

// The compressed evaluation must also be exact for LT RR graphs (the
// framework is model-agnostic; Theorem 2 only needs live-edge worlds).
func TestCompressedMatchesReferenceLT(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := graph.NewRand(seed + 600)
		g := graph.ErdosRenyi(35, 100, rng)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		q := graph.NodeID(rng.IntN(35))
		ch := ChainFromTree(tr, q)
		s := influence.NewLTSampler(g, influence.UniformLT{G: g}, graph.NewRand(seed+700))
		rrs := batch(s, 400)
		ref := referenceCounts(ch, rrs)
		for _, k := range []int{1, 3} {
			got := CompressedEvaluate(ch, rrs, k)
			want := referenceBest(ch, ref, k)
			if got.Level != want {
				t.Errorf("LT seed=%d k=%d: level %d, want %d", seed, k, got.Level, want)
			}
		}
	}
}

// Lemma 1: the influence rank of a node is non-monotone along its chain —
// we exhibit a graph where the query is top-1 in a small community, loses
// the top-1 spot in a mid-level community, and the evaluator still finds
// the largest qualifying community (which is NOT simply the last prefix).
func TestLemma1NonMonotoneRank(t *testing.T) {
	// Construct: q=0 is the hub of a small star {0..3}; nodes 4..9 form a
	// denser region with a stronger hub 4; the whole graph hangs together.
	g, err := graph.FromEdges(10, [][2]graph.NodeID{
		{0, 1}, {0, 2}, {0, 3}, // q's star
		{4, 5}, {4, 6}, {4, 7}, {4, 8}, {4, 9}, {5, 6}, {7, 8}, // strong hub 4
		{3, 4}, // bridge
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(11))
	rrs := batch(s, 5000)
	ref := referenceCounts(ch, rrs)

	// rank of q per level
	ranks := make([]int, ch.Len())
	for h := range ref {
		cq := ref[h][0]
		larger := 0
		for v, c := range ref[h] {
			if v != 0 && c > cq {
				larger++
			}
		}
		ranks[h] = larger
	}
	// q must be top-1 somewhere and not top-1 somewhere above it
	top1Levels := 0
	for _, r := range ranks {
		if r == 0 {
			top1Levels++
		}
	}
	if top1Levels == 0 || top1Levels == len(ranks) {
		t.Skipf("degenerate ranks %v; dendrogram shape changed", ranks)
	}
	res := CompressedEvaluate(ch, rrs, 1)
	want := referenceBest(ch, ref, 1)
	if res.Level != want {
		t.Errorf("level %d, want %d (ranks %v)", res.Level, want, ranks)
	}
}

func TestCompressedEvaluateCtxMatches(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, graph.NewRand(33))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 7)
	rrs := batch(influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(8)), 400)
	want := CompressedEvaluate(ch, rrs, 3)
	got, err := CompressedEvaluateScratchCtx(context.Background(), ch, rrs, 3, NewEvalScratch())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("CompressedEvaluateScratchCtx = %+v, want %+v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompressedEvaluateScratchCtx(ctx, ch, rrs, 3, NewEvalScratch()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled evaluation error = %v", err)
	}
}

// TestCompressedEvaluateScratchReuse locks the determinism contract of the
// scratch-backed evaluation: a scratch reused across chains of different
// shapes must produce exactly the allocating path's result every time.
func TestCompressedEvaluateScratchReuse(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, graph.NewRand(34))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	rrs := batch(influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(9)), 300)
	sc := NewEvalScratch()
	for _, q := range []graph.NodeID{0, 13, 27, 41, 59, 13} {
		ch := ChainFromTree(tr, q)
		want := CompressedEvaluate(ch, rrs, 3)
		got, err := CompressedEvaluateScratchCtx(context.Background(), ch, rrs, 3, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("q=%d: scratch eval = %+v, want %+v", q, got, want)
		}
	}
}
