package engine

import (
	"context"
	"math/rand/v2"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

// attrGraph builds a planted two-community graph where attribute 0 marks
// community 0; returns the graph and a query node inside community 0.
func attrGraph(t *testing.T, seed uint64) (*graph.Graph, graph.NodeID) {
	t.Helper()
	rng := graph.NewRand(seed)
	g, comms := graph.PlantedPartition(graph.PlantedPartitionSpec{
		N: 150, TargetM: 500, NumComms: 5, IntraFraction: 0.85, HubBias: 0.4,
	}, rng)
	b := graph.NewBuilder(g.N(), 2)
	g.ForEachEdge(func(u, v graph.NodeID, w float64) { _ = b.AddWeightedEdge(u, v, w) })
	var q graph.NodeID = -1
	for v := 0; v < g.N(); v++ {
		if comms[v] == 0 {
			_ = b.SetAttrs(graph.NodeID(v), 0)
			q = graph.NodeID(v) // last member: not necessarily a hub
		} else {
			_ = b.SetAttrs(graph.NodeID(v), 1)
		}
	}
	return b.Build(), q
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.K != 5 || p.Theta != 10 || p.Beta != 1 {
		t.Errorf("defaults wrong: %+v", p)
	}
	p2 := Params{K: 2, Theta: 3, Beta: 0.5}.withDefaults()
	if p2.K != 2 || p2.Theta != 3 || p2.Beta != 0.5 {
		t.Errorf("explicit values overridden: %+v", p2)
	}
}

// treeEngine clusters g and returns an engine over the hierarchy alone (no
// HIMOR index), enough for CODU and CODR plans.
func treeEngine(t *testing.T, g *graph.Graph, p Params) *Engine {
	t.Helper()
	tr, err := clusterTree(context.Background(), g, p.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return New(g, tr, nil, p, Config{})
}

// buildEngine runs the full offline phase (hierarchy plus HIMOR index).
func buildEngine(t *testing.T, g *graph.Graph, p Params) *Engine {
	t.Helper()
	eng, err := Build(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// run compiles and executes one (variant, q, attr) plan.
func run(eng *Engine, v Variant, q graph.NodeID, attr graph.AttrID, rng *rand.Rand) (Community, error) {
	return eng.Execute(context.Background(), eng.Compile(v, q, attr), rng)
}

func TestCODUQuery(t *testing.T) {
	g, q := attrGraph(t, 1)
	eng := treeEngine(t, g, Params{K: 5, Theta: 5})
	com, err := run(eng, VariantCODU, q, 0, graph.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && com.Size() == 0 {
		t.Error("found community with no nodes")
	}
	if com.Found && !containsNode(com.Nodes, q) {
		t.Error("community must contain the query node")
	}
	if eng.Tree() == nil {
		t.Error("Tree accessor nil")
	}
}

func TestCODRQuery(t *testing.T) {
	g, q := attrGraph(t, 3)
	eng := New(g, nil, nil, Params{K: 5, Theta: 5}, Config{})
	com, err := run(eng, VariantCODR, q, 0, graph.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !containsNode(com.Nodes, q) {
		t.Error("community must contain the query node")
	}
}

func TestCODRHierarchyCache(t *testing.T) {
	g, _ := attrGraph(t, 5)
	eng := New(g, nil, nil, Params{}, Config{})
	ctx := context.Background()
	t1, err := eng.AttrTree(ctx, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := eng.AttrTree(ctx, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("cache did not return the same hierarchy")
	}
	t3, err := eng.AttrTree(ctx, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("cache bypass returned cached tree")
	}
}

func TestCODLQueryPaths(t *testing.T) {
	g, q := attrGraph(t, 6)
	eng := buildEngine(t, g, Params{K: 5, Theta: 5, Seed: 6})
	com, err := run(eng, VariantCODL, q, 0, graph.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !containsNode(com.Nodes, q) {
		t.Error("community must contain q")
	}
	// With k = n the index path must trigger at the root immediately.
	big := New(g, eng.Tree(), eng.Index(), Params{K: g.N(), Theta: 5}, Config{})
	comBig, err := run(big, VariantCODL, q, 0, graph.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if !comBig.Found || !comBig.FromIndex {
		t.Errorf("k=n should be answered by the index: %+v", comBig)
	}
	if comBig.Size() != g.N() {
		t.Errorf("k=n community size %d, want %d", comBig.Size(), g.N())
	}
}

func TestCODLNoIndexAgreesQualitatively(t *testing.T) {
	g, q := attrGraph(t, 9)
	eng := buildEngine(t, g, Params{K: 5, Theta: 5, Seed: 9})
	with, err := run(eng, VariantCODL, q, 0, graph.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	without, err := run(eng, VariantCODLNoIndex, q, 0, graph.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	// Both use the same chain family; sampling differs, so require only
	// agreement on "found" and containment of q.
	if with.Found != without.Found && with.Found == false {
		t.Logf("note: index path not found but CODL⁻ found (sampling noise)")
	}
	if without.Found && !containsNode(without.Nodes, q) {
		t.Error("CODL⁻ community must contain q")
	}
}

func TestCommunityHelpers(t *testing.T) {
	c := Community{}
	if c.Size() != 0 {
		t.Error("empty community size")
	}
	c2 := Community{Nodes: []graph.NodeID{1, 2, 3}, Found: true}
	if c2.Size() != 3 {
		t.Error("size wrong")
	}
}

func TestNewGraphSamplerKinds(t *testing.T) {
	g := graph.ErdosRenyi(15, 40, graph.NewRand(85))
	ic := NewGraphSampler(g, ICWeightedCascade, graph.NewRand(86))
	lt := NewGraphSampler(g, LTUniform, graph.NewRand(86))
	a := influence.NewArena()
	ic.RRGraphInto(a)
	lt.RRGraphInto(a)
	if a.Len() != 2 {
		t.Fatal("samplers broken")
	}
	if _, ok := ic.(*influence.Sampler); !ok {
		t.Error("IC sampler wrong type")
	}
	if _, ok := lt.(*influence.LTSampler); !ok {
		t.Error("LT sampler wrong type")
	}
}

func containsNode(nodes []graph.NodeID, q graph.NodeID) bool {
	for _, v := range nodes {
		if v == q {
			return true
		}
	}
	return false
}
