package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand/v2"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/hier"
)

// Query classes. A CODL query lands in hit or miss once its answer says
// whether HIMOR answered it; CODU and CODR queries are global.
const (
	classHit    = "hit"
	classMiss   = "miss"
	classGlobal = "global"
)

// request is one generated query. Expr is the DSL form (it always carries
// node=, so it can be replayed); Attr is the attribute of a codl-paper
// query, which goes through the (node, attribute) call instead.
type request struct {
	Expr   string
	Node   cod.NodeID
	Attr   cod.AttrID
	Global bool // CODU or CODR
}

// requestStream returns the workload's generator stream for seed.
func requestStream(seed uint64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

// Query nodes are drawn stratified by what a CODL query costs: whether
// HIMOR answers it, and the size of LORE's local community C_ℓ, which every
// query reclusters and a miss samples. On the dblp stand-in about one query
// in a hundred has C_ℓ near the whole graph and takes seconds, and the miss
// median sits between a fast and a slow mode. Drawn independently, a run of
// a few hundred queries holds a random handful of the slow ones, which moves
// throughput, the miss median and the tail by tens of percent from seed to
// seed. A stratified draw keeps every prefix of the draws at each stratum's
// population share (stride scheduling) and picks at random inside a
// stratum, so each draw still follows the unstratified distribution.

// stratum groups queries by index outcome and log2 |C_ℓ|.
type stratum struct {
	hit      bool
	sizeLog2 int
}

// stratified draws requests from strata in proportion to their weight.
type stratified struct {
	strata [][]request
	weight [][]float64 // per request, at most 1
	share  []float64
	credit []float64
}

// newStratified groups reqs by their stratum. A request of weight w is
// drawn w times as often as one of weight 1.
func newStratified(reqs []request, keys []stratum, weight []float64, r *rand.Rand) *stratified {
	st := &stratified{}
	index := map[stratum]int{}
	var total float64
	for i, q := range reqs {
		j, ok := index[keys[i]]
		if !ok {
			j = len(st.strata)
			index[keys[i]] = j
			st.strata = append(st.strata, nil)
			st.weight = append(st.weight, nil)
			st.share = append(st.share, 0)
		}
		st.strata[j] = append(st.strata[j], q)
		st.weight[j] = append(st.weight[j], weight[i])
		st.share[j] += weight[i]
		total += weight[i]
	}
	st.credit = make([]float64, len(st.strata))
	for j := range st.share {
		st.share[j] /= total
		st.credit[j] = r.Float64() - 0.5
	}
	return st
}

// next draws one request: from the stratum furthest behind its share, and
// inside it at random.
func (st *stratified) next(r *rand.Rand) request {
	best := 0
	for j := range st.credit {
		st.credit[j] += st.share[j]
		if st.credit[j] > st.credit[best] {
			best = j
		}
	}
	st.credit[best]--
	for {
		i := r.IntN(len(st.strata[best]))
		if r.Float64() < st.weight[best][i] {
			return st.strata[best][i]
		}
	}
}

// predicateSampler stratifies the nodes satisfying in, each request made by
// mk; nil when no node does.
func predicateSampler(s *cod.Searcher, in func(cod.NodeID) bool, mk func(cod.NodeID) request, r *rand.Rand) *stratified {
	var reqs []request
	var nodes []cod.NodeID
	for v := 0; v < s.Graph().N(); v++ {
		if q := cod.NodeID(v); in(q) {
			nodes = append(nodes, q)
			reqs = append(reqs, mk(q))
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	keys := codlCosts(s, in, nodes, paperK)
	weight := make([]float64, len(nodes))
	for i := range weight {
		weight[i] = 1
	}
	return newStratified(reqs, keys, weight, r)
}

// codlCosts predicts the stratum of a CODL query for each node of a
// predicate (in reports who satisfies it): LORE's choice of C_ℓ as
// core.ReclusterScores and core.ReclusterScoresPred make it (the chain
// community with the largest score, ties toward the deepest), and the
// engine's index probe (a hit when q ranks in the top k of C_ℓ or an
// ancestor). The core functions scan every edge once per query; this counts
// the predicate's edges under each hierarchy vertex once, then walks each
// node's chain.
func codlCosts(s *cod.Searcher, in func(cod.NodeID) bool, nodes []cod.NodeID, k int) []stratum {
	e := s.Engine()
	g, t, index := e.Graph(), e.Tree(), e.Index()
	under := map[hier.Vertex]int64{}
	g.ForEachEdge(func(u, v cod.NodeID, _ float64) {
		if in(u) && in(v) {
			under[t.LCANodes(u, v)]++
		}
	})
	out := make([]stratum, len(nodes))
	for i, q := range nodes {
		anc := t.Ancestors(t.LeafOf(q)) // H(q), deepest first
		if len(anc) == 0 {
			continue
		}
		var num int64
		best, bestScore := -1, 0.0
		for h, c := range anc {
			num += under[c] * int64(t.Depth(c))
			if score := float64(num) / float64(t.Size(c)); h >= 1 && score > bestScore {
				best, bestScore = h, score
			}
		}
		if best == -1 {
			best = min(1, len(anc)-1)
		}
		hit := false
		for _, c := range anc[best:] {
			hit = hit || index.Rank(q, c) < k
		}
		out[i] = stratum{hit, bits.Len(uint(t.Size(anc[best])))}
	}
	return out
}

// paperRequests draws n queries by the paper's protocol: a uniformly chosen
// attributed node and one of its own attributes, uniformly — stratified over
// all (node, attribute) pairs.
func paperRequests(s *cod.Searcher, seed uint64, n int) []request {
	r := requestStream(seed, 0xc0d1)
	g := s.Graph()
	var reqs []request
	var keys []stratum
	var weight []float64
	for a := 0; a < g.NumAttrs(); a++ {
		attr := cod.AttrID(a)
		in := func(q cod.NodeID) bool { return g.HasAttr(q, attr) }
		var nodes []cod.NodeID
		for v := 0; v < g.N(); v++ {
			if q := cod.NodeID(v); in(q) {
				nodes = append(nodes, q)
				reqs = append(reqs, request{Expr: fmt.Sprintf("%d and node=%d", attr, q), Node: q, Attr: attr})
				// The protocol draws the node first, so each of a node's
				// attributes gets 1/|attrs| of its draws.
				weight = append(weight, 1/float64(len(g.Attrs(q))))
			}
		}
		keys = append(keys, codlCosts(s, in, nodes, paperK)...)
	}
	st := newStratified(reqs, keys, weight, r)
	out := make([]request, n)
	for i := range out {
		out[i] = st.next(r)
	}
	return out
}

// pair is an ordered pair of distinct attributes (A, B): the predicate
// "A and not B".
type pair struct{ a, b cod.AttrID }

func (p pair) in(g *cod.Graph) func(cod.NodeID) bool {
	return func(q cod.NodeID) bool { return g.HasAttr(q, p.a) && !g.HasAttr(q, p.b) }
}

// orderedPairs lists every ordered pair of distinct attributes in
// lexicographic order, which is also their Zipf popularity rank: the seed
// draws the queries, not which predicates are hot, so every seed measures
// the same working set.
func orderedPairs(g *cod.Graph) []pair {
	var ps []pair
	for a := 0; a < g.NumAttrs(); a++ {
		for b := 0; b < g.NumAttrs(); b++ {
			if a != b {
				ps = append(ps, pair{cod.AttrID(a), cod.AttrID(b)})
			}
		}
	}
	return ps
}

func attrName(g *cod.Graph, a cod.AttrID) string {
	if name, ok := g.AttrName(a); ok {
		return name
	}
	return fmt.Sprint(a)
}

// exploreRequests draws n DSL queries over "A and not B" predicates whose
// pair is Zipf-skewed over all ordered attribute pairs: about half CODL,
// 30% CODR, and 20% CODU with a size filter. The query node of an
// attributed query satisfies its predicate and is drawn stratified.
func exploreRequests(s *cod.Searcher, seed uint64, n int) []request {
	g := s.Graph()
	r := requestStream(seed, 0xd51)
	pairs := orderedPairs(g)
	samplers := make([]*stratified, len(pairs))
	for i, p := range pairs {
		expr := fmt.Sprintf("%s and not %s", attrName(g, p.a), attrName(g, p.b))
		samplers[i] = predicateSampler(s, p.in(g), func(q cod.NodeID) request {
			return request{Expr: fmt.Sprintf("%s and node=%d", expr, q), Node: q}
		}, r)
	}
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(pairs)-1))
	out := make([]request, 0, n)
	for len(out) < n {
		u := r.Float64()
		if u >= 0.8 {
			q := cod.NodeID(r.IntN(g.N()))
			out = append(out, request{Expr: fmt.Sprintf("variant=codu and size>=5 and node=%d", q), Node: q, Global: true})
			continue
		}
		st := samplers[zipf.Uint64()]
		if st == nil {
			continue
		}
		q := st.next(r)
		if u >= 0.5 {
			q.Expr, q.Global = "variant=codr and "+q.Expr, true
		}
		out = append(out, q)
	}
	return out
}

// serveRequests draws n CODL expressions for the HTTP workload: half a
// single attribute, half "A and not B", the predicate uniform within its
// half and the node uniform among those satisfying it. All (predicate,
// node) pairs are stratified together, so every seed sends the same mix of
// cheap and costly queries, not only within one predicate. Attributes are
// numeric: a published snapshot carries no attribute names.
func serveRequests(s *cod.Searcher, seed uint64, n int) []request {
	g := s.Graph()
	r := requestStream(seed, 0x5e7e)
	type predicate struct {
		in    func(cod.NodeID) bool
		expr  string
		nodes []cod.NodeID
	}
	// keep appends the predicate to half when some node satisfies it.
	keep := func(half []predicate, in func(cod.NodeID) bool, expr string) []predicate {
		var nodes []cod.NodeID
		for v := 0; v < g.N(); v++ {
			if q := cod.NodeID(v); in(q) {
				nodes = append(nodes, q)
			}
		}
		if len(nodes) == 0 {
			return half
		}
		return append(half, predicate{in, expr, nodes})
	}
	var single, pairs []predicate
	for a := 0; a < g.NumAttrs(); a++ {
		attr := cod.AttrID(a)
		single = keep(single, func(q cod.NodeID) bool { return g.HasAttr(q, attr) }, fmt.Sprint(attr))
	}
	for _, p := range orderedPairs(g) {
		pairs = keep(pairs, p.in(g), fmt.Sprintf("%d and not %d", p.a, p.b))
	}
	var reqs []request
	var keys []stratum
	var weight []float64
	for _, half := range [][]predicate{single, pairs} {
		for _, p := range half {
			for _, q := range p.nodes {
				reqs = append(reqs, request{Expr: fmt.Sprintf("%s and node=%d", p.expr, q), Node: q})
				weight = append(weight, 1/float64(len(half)*len(p.nodes)))
			}
			keys = append(keys, codlCosts(s, p.in, p.nodes, paperK)...)
		}
	}
	// newStratified wants weights of at most 1.
	var top float64
	for _, w := range weight {
		top = max(top, w)
	}
	for i := range weight {
		weight[i] /= top
	}
	st := newStratified(reqs, keys, weight, r)
	out := make([]request, n)
	for i := range out {
		out[i] = st.next(r)
	}
	return out
}

// digest is the SHA-256 of the request list, one expression per line: equal
// seeds must print equal digests.
func digest(reqs []request) string {
	h := sha256.New()
	for _, q := range reqs {
		h.Write([]byte(q.Expr))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
