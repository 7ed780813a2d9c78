package core

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// Himor is the HIMOR index (§IV-B): for every node v, the influence rank of
// v inside every community of the non-attributed hierarchy containing v.
// Construction is compressed: one shared pool of RR graphs, HFS over the
// tree to fill per-vertex buckets, and a bottom-up sorted merge that turns
// cumulative counts into ranks (each node is merged dep(v) times).
type Himor struct {
	t     *hier.Tree
	theta int

	// rank[u][i] is u's influence rank in its i-th ancestor community
	// (i = 0 is the parent of leaf u, the last is the root); -1 means "u
	// appeared in no RR graph within that community", in which case the rank
	// is nnz of the vertex (all nonzero-count nodes beat u).
	rank [][]int32
	// nnz[vertex] is the number of nodes with nonzero cumulative count.
	nnz []int32
}

// BuildHimor constructs the HIMOR index over hierarchy t of graph g from
// pool, Θ = theta·|V| RR graphs sampled over g under any influence model
// (influence.ParallelBatchCtx samples an IC pool across workers,
// influence.BatchIntoCtx any model's pool sequentially). The construction —
// HFS over the pool, then the bottom-up merge — is single-threaded and
// deterministic, and runs as one himor_build span.
func BuildHimor(ctx context.Context, g *graph.Graph, t *hier.Tree, pool []*influence.RRGraph, theta int) *Himor {
	span := obs.FromContext(ctx).StartSpan(obs.StageHimorBuild)
	defer span.EndItems(len(pool))
	n := g.N()
	h := &Himor{t: t, theta: theta}
	h.rank = make([][]int32, n)
	for u := 0; u < n; u++ {
		depth := t.Depth(t.LeafOf(graph.NodeID(u))) - 1 // number of proper ancestors
		r := make([]int32, depth)
		for i := range r {
			r[i] = -1
		}
		h.rank[u] = r
	}
	h.nnz = make([]int32, t.NumVertices())

	// Stage 1: HFS over Θ RR graphs. For an RR graph rooted at s the tags
	// form the ancestor chain of leaf(s), so the traversal is exactly the
	// chain HFS of Algorithm 1 with buckets living on tree vertices: each
	// vertex's bucket is the run of node ids that landed on it.
	occ := make([][]graph.NodeID, t.NumVertices())
	queues := make([][]int32, 0, 64)
	var chainVerts []hier.Vertex
	var visited []bool
	for _, r := range pool {
		src := r.Source()
		chainVerts = chainVerts[:0]
		for p := t.Parent(t.LeafOf(src)); p != -1; p = t.Parent(p) {
			chainVerts = append(chainVerts, p)
		}
		if len(chainVerts) == 0 {
			continue // single-node graph
		}
		L := len(chainVerts)
		topDepth := t.Depth(chainVerts[0])
		if cap(queues) < L {
			queues = make([][]int32, L)
		}
		queues = queues[:L]
		visited = slices.Grow(visited[:0], r.Len())[:r.Len()]
		clear(visited)
		visited[0] = true
		queues[0] = append(queues[0], 0)
		leafSrc := t.LeafOf(src)
		for lev := 0; lev < L; lev++ {
			q := queues[lev]
			for qi := 0; qi < len(q); qi++ {
				p := q[qi]
				vert := chainVerts[lev]
				occ[vert] = append(occ[vert], r.Nodes[p])
				for _, tp := range r.Adj[r.Off[p]:r.Off[p+1]] {
					if visited[tp] {
						continue
					}
					visited[tp] = true
					u := r.Nodes[tp]
					lu := 0
					if u != src {
						lu = topDepth - t.Depth(t.LCA(leafSrc, t.LeafOf(u)))
					}
					if lu < lev {
						lu = lev
					}
					queues[lu] = append(queues[lu], tp)
					q = queues[lev]
				}
			}
			queues[lev] = q[:0]
		}
	}

	// Stage 2: bottom-up merge. Processing vertices deepest-first guarantees
	// children are folded before parents. cum[v] holds the cumulative counts
	// of v's subtree as (node, count) runs sorted by node: v's own bucket is
	// sorted and run-length encoded, then merged linearly with its
	// children's runs. The rank sort below visits every entry of cum[v]
	// anyway, so the linear merge adds no asymptotic cost.
	cum := make([][]nodeCount, t.NumVertices())
	var byRank []nodeCount
	for _, v := range t.VerticesByDepthDesc() {
		if t.IsLeaf(v) {
			continue
		}
		merged := runLengths(occ[v])
		occ[v] = nil
		for _, c := range t.Children(v) {
			merged = mergeCounts(merged, cum[c])
			cum[c] = nil
		}
		cum[v] = merged
		h.nnz[v] = int32(len(merged))

		// Rank assignment under the canonical influence order (count
		// descending, ties by smaller node ID): rank = sorted position, i.e.
		// the number of nodes ranked ahead. Matching rankOf keeps online and
		// index-based ranks identical even on count ties.
		byRank = append(byRank[:0], merged...)
		slices.SortFunc(byRank, func(a, b nodeCount) int {
			if a.cnt != b.cnt {
				return cmp.Compare(b.cnt, a.cnt)
			}
			return cmp.Compare(a.node, b.node)
		})
		depthV := t.Depth(v)
		for i, e := range byRank {
			idx := (t.Depth(t.LeafOf(e.node)) - 1) - depthV
			h.rank[e.node][idx] = int32(i)
		}
	}
	return h
}

// nodeCount pairs a node with an occurrence count: an entry of a HIMOR
// count run or of the compressed evaluation's per-level buckets.
type nodeCount struct {
	node graph.NodeID
	cnt  int32
}

// runLengths sorts the node ids of one bucket in place and returns them
// run-length encoded as (node, count) pairs, ascending by node.
func runLengths(nodes []graph.NodeID) []nodeCount {
	slices.Sort(nodes)
	distinct := 0
	for i := range nodes {
		if i == 0 || nodes[i] != nodes[i-1] {
			distinct++
		}
	}
	out := make([]nodeCount, 0, distinct)
	for i := 0; i < len(nodes); {
		j := i + 1
		for j < len(nodes) && nodes[j] == nodes[i] {
			j++
		}
		out = append(out, nodeCount{nodes[i], int32(j - i)})
		i = j
	}
	return out
}

// mergeCounts merges two count runs sorted by node into a new one, adding
// the counts of nodes present in both.
func mergeCounts(a, b []nodeCount) []nodeCount {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]nodeCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].node < b[j].node:
			out = append(out, a[i])
			i++
		case b[j].node < a[i].node:
			out = append(out, b[j])
			j++
		default:
			out = append(out, nodeCount{a[i].node, a[i].cnt + b[j].cnt})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Rank returns rank_C(q) for a community vertex v that contains q: the
// number of nodes in C ranked ahead of q under the canonical influence order
// (estimated influence descending, ties by smaller node ID).
func (h *Himor) Rank(q graph.NodeID, v hier.Vertex) int {
	idx := (h.t.Depth(h.t.LeafOf(q)) - 1) - h.t.Depth(v)
	if idx < 0 || idx >= len(h.rank[q]) {
		return int(h.nnz[v])
	}
	if r := h.rank[q][idx]; r >= 0 {
		return int(r)
	}
	return int(h.nnz[v])
}

// Theta returns the per-node sampling multiplier the index was built with.
func (h *Himor) Theta() int { return h.theta }

// Tree returns the hierarchy the index is defined over.
func (h *Himor) Tree() *hier.Tree { return h.t }

// ApproxBytes estimates the in-memory footprint of the index (rank arrays
// plus per-vertex counters), for the Table II overhead experiment.
func (h *Himor) ApproxBytes() int64 {
	var b int64
	for _, r := range h.rank {
		b += int64(len(r)) * 4
	}
	b += int64(len(h.nnz)) * 4
	return b
}

var himorMagic = [8]byte{'c', 'o', 'd', 'h', 'i', 'm', 'r', '1'}

// WriteTo serializes the index (without its tree: persist the tree
// separately and pass it to ReadHimor, which validates the shapes match).
func (h *Himor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		total += int64(binary.Size(v))
		return nil
	}
	if err := write(himorMagic); err != nil {
		return total, err
	}
	if err := write(int64(h.theta)); err != nil {
		return total, err
	}
	if err := write(int64(len(h.nnz))); err != nil {
		return total, err
	}
	if err := write(h.nnz); err != nil {
		return total, err
	}
	if err := write(int64(len(h.rank))); err != nil {
		return total, err
	}
	for _, r := range h.rank {
		if err := write(int64(len(r))); err != nil {
			return total, err
		}
		if err := write(r); err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// ReadHimor deserializes an index written by WriteTo, binding it to t. The
// per-node rank array lengths must match t's leaf depths.
func ReadHimor(r io.Reader, t *hier.Tree) (*Himor, error) {
	br := r // exact-size reads only; the stream may carry trailing data
	var magic [8]byte
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("core: reading himor magic: %w", err)
	}
	if magic != himorMagic {
		return nil, fmt.Errorf("core: bad himor magic %q", magic)
	}
	var theta, nv, n int64
	if err := binary.Read(br, binary.LittleEndian, &theta); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nv); err != nil {
		return nil, err
	}
	if int(nv) != t.NumVertices() {
		return nil, fmt.Errorf("core: himor has %d vertices, tree has %d", nv, t.NumVertices())
	}
	h := &Himor{t: t, theta: int(theta), nnz: make([]int32, nv)}
	if err := binary.Read(br, binary.LittleEndian, h.nnz); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) != t.N() {
		return nil, fmt.Errorf("core: himor has %d nodes, tree has %d", n, t.N())
	}
	h.rank = make([][]int32, n)
	for u := int64(0); u < n; u++ {
		var l int64
		if err := binary.Read(br, binary.LittleEndian, &l); err != nil {
			return nil, err
		}
		want := int64(t.Depth(t.LeafOf(graph.NodeID(u))) - 1)
		if l != want {
			return nil, fmt.Errorf("core: node %d has %d ranks, tree expects %d", u, l, want)
		}
		row := make([]int32, l)
		if err := binary.Read(br, binary.LittleEndian, row); err != nil {
			return nil, err
		}
		h.rank[u] = row
	}
	return h, nil
}
