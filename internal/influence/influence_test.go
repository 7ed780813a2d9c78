package influence

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/codsearch/cod/internal/graph"
)

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([][2]graph.NodeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeightedCascadeProb(t *testing.T) {
	g := lineGraph(t, 4) // degrees: 1,2,2,1
	m := NewWeightedCascade(g)
	if p := m.Prob(1, 0); p != 1 {
		t.Errorf("p(1,0) = %g, want 1 (deg(0)=1)", p)
	}
	if p := m.Prob(0, 1); p != 0.5 {
		t.Errorf("p(0,1) = %g, want 0.5", p)
	}
}

func TestSpreadDeterministicWhenP1(t *testing.T) {
	g := lineGraph(t, 6)
	rng := graph.NewRand(1)
	if got := Spread(g, Uniform{P: 1}, 0, rng); got != 6 {
		t.Errorf("spread with p=1 = %d, want 6", got)
	}
	if got := Spread(g, Uniform{P: 0}, 2, rng); got != 1 {
		t.Errorf("spread with p=0 = %d, want 1", got)
	}
}

func TestRRSetAlwaysContainsSource(t *testing.T) {
	g := graph.ErdosRenyi(50, 120, graph.NewRand(2))
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(3))
	for i := 0; i < 200; i++ {
		set := s.RRSet()
		if len(set) == 0 {
			t.Fatal("empty RR set")
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range set {
			if seen[v] {
				t.Fatal("duplicate node in RR set")
			}
			seen[v] = true
		}
	}
}

func TestRRGraphStructure(t *testing.T) {
	g := graph.ErdosRenyi(60, 180, graph.NewRand(4))
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(5))
	for i := 0; i < 200; i++ {
		r := sampleOne(s)
		if r.Len() == 0 {
			t.Fatal("empty RR graph")
		}
		if int(r.Off[len(r.Nodes)]) != len(r.Adj) {
			t.Fatal("CSR offsets inconsistent")
		}
		// Every adjacency entry is a valid position; every non-source node is
		// reachable from the source (positions only ever enter via liveness).
		for _, p := range r.Adj {
			if p < 0 || int(p) >= r.Len() {
				t.Fatalf("bad position %d", p)
			}
		}
		reach := r.ReachableWithin(func(graph.NodeID) bool { return true })
		for i, ok := range reach {
			if !ok {
				t.Fatalf("node at position %d not reachable from source", i)
			}
		}
	}
}

func TestRRGraphP1IsComponent(t *testing.T) {
	g := lineGraph(t, 5)
	s := NewSampler(g, Uniform{P: 1}, graph.NewRand(6))
	r := sampleWithin(s, 2, nil)
	if r.Len() != 5 {
		t.Errorf("p=1 RR graph has %d nodes, want 5", r.Len())
	}
	// all 8 directed edges (4 undirected x 2) must be live
	if r.NumEdges() != 8 {
		t.Errorf("live edges = %d, want 8", r.NumEdges())
	}
}

// Theorem 1 sanity: RR-based influence estimates agree with forward Monte
// Carlo within sampling error.
func TestRREstimateMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.ErdosRenyi(40, 100, graph.NewRand(7))
	model := NewWeightedCascade(g)
	s := NewSampler(g, model, graph.NewRand(8))
	const theta = 60000
	rrs := batch(t, s, theta)
	counts := EstimateAll(g, rrs)
	mcRng := graph.NewRand(9)
	for _, v := range []graph.NodeID{0, 7, 23} {
		est := InfluenceFromCount(counts[v], theta, g.N())
		mc := MonteCarloInfluence(g, model, v, 4000, mcRng)
		if math.Abs(est-mc) > 0.35*mc+0.5 {
			t.Errorf("node %d: RR estimate %.2f vs MC %.2f", v, est, mc)
		}
	}
}

// Theorem 2 sanity: induced RR graph reachability equals restricted RR sets
// in distribution. We check a stronger structural property on p=1: the
// induced reachable set is exactly the connected region of the restriction.
func TestInducedRRGraphP1(t *testing.T) {
	g := lineGraph(t, 7)
	s := NewSampler(g, Uniform{P: 1}, graph.NewRand(10))
	r := sampleWithin(s, 3, nil)
	// restrict to {2,3,4}: reachable must be exactly those
	keep := map[graph.NodeID]bool{2: true, 3: true, 4: true}
	reach := r.ReachableWithin(func(v graph.NodeID) bool { return keep[v] })
	got := 0
	for i, ok := range reach {
		if ok {
			if !keep[r.Nodes[i]] {
				t.Fatalf("non-member %d reachable", r.Nodes[i])
			}
			got++
		}
	}
	if got != 3 {
		t.Errorf("induced reachable = %d nodes, want 3", got)
	}
	// restriction not containing the source yields nothing
	reach = r.ReachableWithin(func(v graph.NodeID) bool { return v > 4 })
	for _, ok := range reach {
		if ok {
			t.Fatal("reachable despite source excluded")
		}
	}
}

func TestRestrictedSampling(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, graph.NewRand(11))
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(12))
	member := func(v graph.NodeID) bool { return v < 20 }
	for i := 0; i < 100; i++ {
		set := s.RRSetWithin(graph.NodeID(i%20), member)
		for _, v := range set {
			if v >= 20 {
				t.Fatalf("RRSetWithin escaped restriction: %d", v)
			}
		}
		r := sampleWithin(s, graph.NodeID(i%20), member)
		for _, v := range r.Nodes {
			if v >= 20 {
				t.Fatalf("RRGraphWithin escaped restriction: %d", v)
			}
		}
	}
}

// The restricted and unrestricted samplers must agree when the restriction
// is the whole graph (same rng stream, same coins).
func TestRestrictedEqualsUnrestricted(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, graph.NewRand(13))
	s1 := NewSampler(g, NewWeightedCascade(g), graph.NewRand(14))
	s2 := NewSampler(g, NewWeightedCascade(g), graph.NewRand(14))
	all := func(graph.NodeID) bool { return true }
	for i := 0; i < 50; i++ {
		src := graph.NodeID(i % 30)
		r1 := sampleWithin(s1, src, nil)
		r2 := sampleWithin(s2, src, all)
		if r1.Len() != r2.Len() || r1.NumEdges() != r2.NumEdges() {
			t.Fatalf("restricted(all) differs from unrestricted at %d", i)
		}
		for j := range r1.Nodes {
			if r1.Nodes[j] != r2.Nodes[j] {
				t.Fatalf("node order differs at %d", i)
			}
		}
	}
}

// Property: RR graph node lists never contain duplicates and the source is
// always first.
func TestRRGraphProperty(t *testing.T) {
	g := graph.BarabasiAlbert(50, 2, graph.NewRand(16))
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(17))
	check := func(srcRaw uint8) bool {
		src := graph.NodeID(int(srcRaw) % g.N())
		r := sampleWithin(s, src, nil)
		if r.Source() != src {
			return false
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range r.Nodes {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEdgeWeightModel(t *testing.T) {
	b := graph.NewBuilder(2, 0)
	if err := b.AddWeightedEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	m := EdgeWeight{G: g}
	if p := m.Prob(0, 1); p != 1 {
		t.Errorf("weight clamp failed: %g", p)
	}
}
