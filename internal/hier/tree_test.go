package hier

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"github.com/codsearch/cod/internal/graph"
)

// paperTree reproduces the hierarchy of Fig. 2: 10 leaves (v0..v9) and
// internal communities C0..C6. Vertex ids: leaves 0..9, then
// 10=C0{0,1,2,3}, 11=C1{4,5}, 12=C2{6,7,8,9}... The figure's exact shape:
// root C6 = everything; C6 -> {C4, C5}; C4 -> {C3, C1}; C3 -> {C0, C2'},
// simplified here to a 4-level tree that satisfies the depths used in the
// paper's examples: dep(C6)=1, dep(C4)=2, dep(C3)=3, dep(C0)=4.
func paperTree(t *testing.T) *Tree {
	t.Helper()
	// leaves 0..9
	// 10 = C0 {0,1,2,3}; 11 = C2 {6,7}; 12 = C3 {C0, C2} = {0,1,2,3,6,7}
	// 13 = C1 {4,5};     14 = C4 {C3, C1} = {0..7}
	// 15 = C5 {8,9};     16 = C6 root {C4, C5}
	parent := make([]Vertex, 17)
	assign := map[int]int{
		0: 10, 1: 10, 2: 10, 3: 10,
		6: 11, 7: 11,
		4: 13, 5: 13,
		8: 15, 9: 15,
		10: 12, 11: 12,
		12: 14, 13: 14,
		14: 16, 15: 16,
		16: -1,
	}
	for v, p := range assign {
		parent[v] = Vertex(p)
	}
	tree, err := New(10, parent)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

func TestTreeShape(t *testing.T) {
	tr := paperTree(t)
	if tr.N() != 10 || tr.NumVertices() != 17 {
		t.Fatalf("shape: N=%d vertices=%d", tr.N(), tr.NumVertices())
	}
	if tr.Root() != 16 {
		t.Errorf("root = %d, want 16", tr.Root())
	}
	if tr.Depth(16) != 1 {
		t.Errorf("dep(root) = %d, want 1", tr.Depth(16))
	}
	if tr.Depth(14) != 2 || tr.Depth(12) != 3 || tr.Depth(10) != 4 {
		t.Errorf("depths C4=%d C3=%d C0=%d, want 2 3 4", tr.Depth(14), tr.Depth(12), tr.Depth(10))
	}
	if tr.Size(16) != 10 || tr.Size(14) != 8 || tr.Size(12) != 6 || tr.Size(10) != 4 {
		t.Errorf("sizes: %d %d %d %d", tr.Size(16), tr.Size(14), tr.Size(12), tr.Size(10))
	}
	if !tr.IsLeaf(3) || tr.IsLeaf(10) {
		t.Error("IsLeaf wrong")
	}
}

func TestLCAPaperExample(t *testing.T) {
	tr := paperTree(t)
	// Example 2: lca(v0, v6) = C3 (vertex 12) with dep 3.
	if got := tr.LCANodes(0, 6); got != 12 {
		t.Errorf("lca(v0,v6) = %d, want 12 (C3)", got)
	}
	if d := tr.Depth(tr.LCANodes(0, 6)); d != 3 {
		t.Errorf("dep(lca(v0,v6)) = %d, want 3", d)
	}
	if got := tr.LCANodes(0, 1); got != 10 {
		t.Errorf("lca(v0,v1) = %d, want 10 (C0)", got)
	}
	if got := tr.LCANodes(0, 9); got != 16 {
		t.Errorf("lca(v0,v9) = %d, want 16 (root)", got)
	}
	if got := tr.LCA(10, 12); got != 12 {
		t.Errorf("lca(C0,C3) = %d, want 12", got)
	}
	if got := tr.LCA(5, 5); got != 5 {
		t.Errorf("lca(v,v) = %d, want 5", got)
	}
}

func TestAncestorsIsHq(t *testing.T) {
	tr := paperTree(t)
	// H(v0) = {C0, C3, C4, C6} = vertices 10, 12, 14, 16 deepest first.
	anc := tr.Ancestors(tr.LeafOf(0))
	want := []Vertex{10, 12, 14, 16}
	if len(anc) != len(want) {
		t.Fatalf("H(v0) = %v, want %v", anc, want)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("H(v0) = %v, want %v", anc, want)
		}
	}
}

func TestMembers(t *testing.T) {
	tr := paperTree(t)
	got := tr.Members(12)
	want := []graph.NodeID{0, 1, 2, 3, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Members(C3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members(C3) = %v, want %v", got, want)
		}
	}
	if ms := tr.Members(5); len(ms) != 1 || ms[0] != 5 {
		t.Errorf("Members(leaf 5) = %v", ms)
	}
}

func TestIsAncestor(t *testing.T) {
	tr := paperTree(t)
	if !tr.IsAncestor(16, 0) || !tr.IsAncestor(12, 10) || !tr.IsAncestor(12, 12) {
		t.Error("IsAncestor false negatives")
	}
	if tr.IsAncestor(10, 12) || tr.IsAncestor(11, 13) {
		t.Error("IsAncestor false positives")
	}
}

func TestVerticesByDepthDesc(t *testing.T) {
	tr := paperTree(t)
	order := tr.VerticesByDepthDesc()
	if len(order) != 17 {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if tr.Depth(order[i-1]) < tr.Depth(order[i]) {
			t.Fatalf("not depth-descending at %d", i)
		}
	}
	if order[len(order)-1] != tr.Root() {
		t.Error("root should come last")
	}
}

func TestSumLeafDepths(t *testing.T) {
	tr := paperTree(t)
	// leaves 0-3 and 6-7 at depth 5, 4-5 at depth 4, 8-9 at depth 3
	want := int64(4*5 + 2*5 + 2*4 + 2*3)
	if got := tr.SumLeafDepths(); got != want {
		t.Errorf("SumLeafDepths = %d, want %d", got, want)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := map[string][]Vertex{
		"two roots":      {-1, -1, 3, 3},
		"cycle":          {2, 2, 3, 2},
		"leaf as parent": {1, -1},
		"oob parent":     {9, -1, 0, 1},
		"childless internal vertex is unreachable": {2, 2, -1, -1},
	}
	for name, parent := range cases {
		n := 2
		if _, err := New(n, parent); err == nil {
			t.Errorf("%s: New accepted %v", name, parent)
		}
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr, err := New(1, []Vertex{-1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tr.Root() != 0 || tr.Size(0) != 1 || len(tr.Ancestors(0)) != 0 {
		t.Error("degenerate tree wrong")
	}
}

// Property: for random binary trees, LCA via sparse table agrees with naive
// parent-climbing.
// randomDendrogram builds a random hierarchy over n leaves by repeatedly
// merging between 2 and maxArity random roots under a fresh vertex.
func randomDendrogram(rng *rand.Rand, n, maxArity int) (*Tree, error) {
	parent := make([]Vertex, n, 2*n-1)
	for i := range parent {
		parent[i] = -1
	}
	roots := make([]Vertex, n)
	for i := range roots {
		roots[i] = Vertex(i)
	}
	for len(roots) > 1 {
		arity := 2 + rng.IntN(maxArity-1)
		if arity > len(roots) {
			arity = len(roots)
		}
		next := Vertex(len(parent))
		parent = append(parent, -1)
		for ; arity > 0; arity-- {
			i := rng.IntN(len(roots))
			parent[roots[i]] = next
			roots[i] = roots[len(roots)-1]
			roots = roots[:len(roots)-1]
		}
		roots = append(roots, next)
	}
	return New(n, parent)
}

func TestLCAAgainstNaive(t *testing.T) {
	build := func(seed uint16) (*Tree, bool) {
		rng := graph.NewRand(uint64(seed))
		tr, err := randomDendrogram(rng, 2+rng.IntN(40), 2)
		return tr, err == nil
	}
	naiveLCA := func(tr *Tree, a, b Vertex) Vertex {
		seen := map[Vertex]bool{}
		for v := a; v != -1; v = tr.Parent(v) {
			seen[v] = true
		}
		for v := b; v != -1; v = tr.Parent(v) {
			if seen[v] {
				return v
			}
		}
		return -1
	}
	check := func(seed uint16) bool {
		tr, ok := build(seed)
		if !ok {
			return false
		}
		rng := graph.NewRand(uint64(seed) + 999)
		for trial := 0; trial < 30; trial++ {
			a := Vertex(rng.IntN(tr.NumVertices()))
			b := Vertex(rng.IntN(tr.NumVertices()))
			if tr.LCA(a, b) != naiveLCA(tr, a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMembersAgainstBruteForce checks Members on every vertex of random
// dendrograms (binary and wider merges) against collecting the subtree's
// leaves by recursion and sorting them.
func TestMembersAgainstBruteForce(t *testing.T) {
	var leaves func(tr *Tree, v Vertex, out []graph.NodeID) []graph.NodeID
	leaves = func(tr *Tree, v Vertex, out []graph.NodeID) []graph.NodeID {
		if tr.IsLeaf(v) {
			return append(out, tr.NodeOf(v))
		}
		for _, c := range tr.Children(v) {
			out = leaves(tr, c, out)
		}
		return out
	}
	for seed := uint64(0); seed < 30; seed++ {
		rng := graph.NewRand(seed)
		tr, err := randomDendrogram(rng, 1+rng.IntN(300), 2+int(seed%3))
		if err != nil {
			t.Fatal(err)
		}
		for v := Vertex(0); int(v) < tr.NumVertices(); v++ {
			want := leaves(tr, v, nil)
			slices.Sort(want)
			if got := tr.Members(v); !slices.Equal(got, want) {
				t.Fatalf("seed=%d vertex=%d: Members = %v, want %v", seed, v, got, want)
			}
		}
	}
}
