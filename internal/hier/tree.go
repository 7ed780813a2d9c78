// Package hier implements the community hierarchy used by COD: a dendrogram
// whose leaves are graph nodes and whose internal vertices are communities,
// with O(1) lowest-common-ancestor queries (Euler tour + sparse table), the
// per-node ancestor chains H(u), depths following the paper's convention
// (dep(root) = 1, growing downward) and subtree sizes.
package hier

import (
	"fmt"
	"slices"

	"github.com/codsearch/cod/internal/graph"
)

// Vertex identifies a vertex of the hierarchy tree. Leaves come first:
// vertex v for v in 0..n-1 is the leaf holding graph node v; internal
// community vertices follow.
type Vertex = int32

// Tree is a community hierarchy over a graph with n nodes. Trees are built
// by New from a parent array (typically produced by package hac) and are
// immutable afterwards.
type Tree struct {
	n        int      // number of graph nodes (leaves)
	parent   []Vertex // parent[v] = parent vertex; -1 at the root
	children [][]Vertex
	size     []int32 // size[v] = number of leaves under v
	depth    []int32 // depth[root] = 1 (paper convention dep ∈ Z+)
	root     Vertex

	// Euler tour structures for O(1) LCA.
	firstOcc []int32  // first occurrence of each vertex in the tour
	tour     []Vertex // Euler tour of vertices
	sparse   [][]int32
	log2     []int32
}

// New builds a Tree over n graph nodes from a parent array covering all
// vertices (leaves 0..n-1 and internal vertices n..len(parent)-1). Exactly
// one vertex must have parent -1 (the root), every internal vertex must have
// at least one child, and all leaves must be reachable from the root.
func New(n int, parent []Vertex) (*Tree, error) {
	total := len(parent)
	if total < n || n < 1 {
		return nil, fmt.Errorf("hier: parent array of length %d cannot cover %d leaves", total, n)
	}
	t := &Tree{n: n, parent: parent, root: -1}
	t.children = make([][]Vertex, total)
	for v := 0; v < total; v++ {
		p := parent[v]
		switch {
		case p == -1:
			if t.root != -1 {
				return nil, fmt.Errorf("hier: multiple roots (%d and %d)", t.root, v)
			}
			t.root = Vertex(v)
		case p < 0 || int(p) >= total:
			return nil, fmt.Errorf("hier: vertex %d has out-of-range parent %d", v, p)
		case int(p) < n:
			return nil, fmt.Errorf("hier: leaf %d used as parent of %d", p, v)
		default:
			t.children[p] = append(t.children[p], Vertex(v))
		}
	}
	if t.root == -1 {
		return nil, fmt.Errorf("hier: no root vertex")
	}
	if err := t.computeOrder(); err != nil {
		return nil, err
	}
	t.buildLCA()
	return t, nil
}

// computeOrder fills size and depth with an iterative DFS and validates that
// the tree is acyclic and spans all vertices.
func (t *Tree) computeOrder() error {
	total := len(t.parent)
	t.size = make([]int32, total)
	t.depth = make([]int32, total)
	visited := make([]bool, total)
	// Iterative post-order: push with state.
	type frame struct {
		v     Vertex
		child int
	}
	stack := []frame{{t.root, 0}}
	t.depth[t.root] = 1
	visited[t.root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.children[f.v]
		if f.child < len(ch) {
			c := ch[f.child]
			f.child++
			if visited[c] {
				return fmt.Errorf("hier: cycle through vertex %d", c)
			}
			visited[c] = true
			t.depth[c] = t.depth[f.v] + 1
			stack = append(stack, frame{c, 0})
			continue
		}
		// post-visit
		if int(f.v) < t.n {
			t.size[f.v] = 1
		} else {
			if len(ch) == 0 {
				return fmt.Errorf("hier: internal vertex %d has no children", f.v)
			}
			var s int32
			for _, c := range ch {
				s += t.size[c]
			}
			t.size[f.v] = s
		}
		stack = stack[:len(stack)-1]
	}
	for v := 0; v < total; v++ {
		if !visited[v] {
			return fmt.Errorf("hier: vertex %d unreachable from root", v)
		}
	}
	if int(t.size[t.root]) != t.n {
		return fmt.Errorf("hier: root spans %d leaves, want %d", t.size[t.root], t.n)
	}
	return nil
}

// buildLCA prepares the Euler tour sparse table.
func (t *Tree) buildLCA() {
	total := len(t.parent)
	t.firstOcc = make([]int32, total)
	for i := range t.firstOcc {
		t.firstOcc[i] = -1
	}
	t.tour = make([]Vertex, 0, 2*total)
	type frame struct {
		v     Vertex
		child int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child == 0 || f.child <= len(t.children[f.v]) {
			if t.firstOcc[f.v] == -1 {
				t.firstOcc[f.v] = int32(len(t.tour))
			}
			t.tour = append(t.tour, f.v)
		}
		if f.child < len(t.children[f.v]) {
			c := t.children[f.v][f.child]
			f.child++
			stack = append(stack, frame{c, 0})
			continue
		}
		stack = stack[:len(stack)-1]
	}
	m := len(t.tour)
	t.log2 = make([]int32, m+1)
	for i := 2; i <= m; i++ {
		t.log2[i] = t.log2[i/2] + 1
	}
	levels := int(t.log2[m]) + 1
	t.sparse = make([][]int32, levels)
	t.sparse[0] = make([]int32, m)
	for i := 0; i < m; i++ {
		t.sparse[0][i] = int32(i)
	}
	shallower := func(a, b int32) int32 {
		if t.depth[t.tour[a]] <= t.depth[t.tour[b]] {
			return a
		}
		return b
	}
	for j := 1; j < levels; j++ {
		span := 1 << j
		t.sparse[j] = make([]int32, m-span+1)
		for i := 0; i+span <= m; i++ {
			t.sparse[j][i] = shallower(t.sparse[j-1][i], t.sparse[j-1][i+span/2])
		}
	}
}

// N returns the number of graph nodes (leaves).
func (t *Tree) N() int { return t.n }

// NumVertices returns the total number of tree vertices (leaves + internal).
func (t *Tree) NumVertices() int { return len(t.parent) }

// Root returns the root vertex (the community equal to the whole graph).
func (t *Tree) Root() Vertex { return t.root }

// Parent returns the parent of vertex v, or -1 for the root.
func (t *Tree) Parent(v Vertex) Vertex { return t.parent[v] }

// Children returns the children of v. The slice must not be modified.
func (t *Tree) Children(v Vertex) []Vertex { return t.children[v] }

// Size returns |C_v|, the number of graph nodes in the community of v.
func (t *Tree) Size(v Vertex) int { return int(t.size[v]) }

// Depth returns dep(C_v): the paper's depth convention with dep(root) = 1
// and children one deeper than their parent.
func (t *Tree) Depth(v Vertex) int { return int(t.depth[v]) }

// IsLeaf reports whether v is a leaf (a single graph node).
func (t *Tree) IsLeaf(v Vertex) bool { return int(v) < t.n }

// LeafOf returns the leaf vertex holding graph node u (they coincide).
func (t *Tree) LeafOf(u graph.NodeID) Vertex { return Vertex(u) }

// NodeOf returns the graph node held by leaf vertex v; it panics when v is
// internal.
func (t *Tree) NodeOf(v Vertex) graph.NodeID {
	if !t.IsLeaf(v) {
		panic(fmt.Sprintf("hier: vertex %d is not a leaf", v))
	}
	return graph.NodeID(v)
}

// LCA returns the lowest common ancestor of vertices a and b in O(1).
func (t *Tree) LCA(a, b Vertex) Vertex {
	ia, ib := t.firstOcc[a], t.firstOcc[b]
	if ia > ib {
		ia, ib = ib, ia
	}
	j := t.log2[ib-ia+1]
	span := int32(1) << j
	x, y := t.sparse[j][ia], t.sparse[j][ib-span+1]
	if t.depth[t.tour[x]] <= t.depth[t.tour[y]] {
		return t.tour[x]
	}
	return t.tour[y]
}

// LCANodes returns the lowest common ancestor of two graph nodes, i.e. the
// smallest community containing both.
func (t *Tree) LCANodes(u, v graph.NodeID) Vertex { return t.LCA(t.LeafOf(u), t.LeafOf(v)) }

// IsAncestor reports whether a is an ancestor of b (or equal to it).
func (t *Tree) IsAncestor(a, b Vertex) bool { return t.LCA(a, b) == a }

// Ancestors returns the proper ancestors of leaf/vertex v from the deepest
// (its parent) to the root. For a leaf of graph node q this is exactly H(q):
// the hierarchical communities containing q, sorted by descending depth.
func (t *Tree) Ancestors(v Vertex) []Vertex {
	var out []Vertex
	for p := t.parent[v]; p != -1; p = t.parent[p] {
		out = append(out, p)
	}
	return out
}

// Members returns the graph nodes in the community of vertex v, ascending.
func (t *Tree) Members(v Vertex) []graph.NodeID {
	out := make([]graph.NodeID, 0, t.size[v])
	stack := []Vertex{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.IsLeaf(x) {
			out = append(out, t.NodeOf(x))
			continue
		}
		stack = append(stack, t.children[x]...)
	}
	slices.Sort(out)
	return out
}

// VerticesByDepthDesc returns all vertices ordered from deepest to
// shallowest (ties in arbitrary but deterministic order). Useful for
// bottom-up passes such as HIMOR construction.
func (t *Tree) VerticesByDepthDesc() []Vertex {
	maxd := 0
	for _, d := range t.depth {
		if int(d) > maxd {
			maxd = int(d)
		}
	}
	buckets := make([][]Vertex, maxd+1)
	for v := range t.parent {
		buckets[t.depth[v]] = append(buckets[t.depth[v]], Vertex(v))
	}
	out := make([]Vertex, 0, len(t.parent))
	for d := maxd; d >= 0; d-- {
		out = append(out, buckets[d]...)
	}
	return out
}

// SumLeafDepths returns Σ_v dep(v) over all graph nodes, the balancedness
// measure in the paper's HIMOR complexity analysis.
func (t *Tree) SumLeafDepths() int64 {
	var s int64
	for v := 0; v < t.n; v++ {
		s += int64(t.depth[v])
	}
	return s
}
