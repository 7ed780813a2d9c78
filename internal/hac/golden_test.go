package hac

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
)

// parentFingerprint is the FNV-64a hash of a dendrogram's parent array, each
// entry as a little-endian uint32, in vertex order.
func parentFingerprint(t *hier.Tree) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for v := hier.Vertex(0); int(v) < t.NumVertices(); v++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(t.Parent(v)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenAttrWeighted boosts edges whose endpoints both carry attribute 0 by
// a factor of 2 (LORE's attribute weighting at β = 1).
func goldenAttrWeighted(g *graph.Graph) *graph.Graph {
	return graph.Reweight(g, func(u, v graph.NodeID, w float64) float64 {
		if g.HasAttr(u, 0) && g.HasAttr(v, 0) {
			return 2 * w
		}
		return w
	})
}

// goldenDisconnected is two Barabási–Albert components of 40 and 30 nodes
// plus three isolated nodes, exercising the component-root merge.
func goldenDisconnected() *graph.Graph {
	a := graph.BarabasiAlbert(40, 2, graph.NewRand(31))
	c := graph.BarabasiAlbert(30, 3, graph.NewRand(32))
	b := graph.NewBuilder(a.N()+c.N()+3, 0)
	a.ForEachEdge(func(u, v graph.NodeID, _ float64) { _ = b.AddEdge(u, v) })
	off := graph.NodeID(a.N())
	c.ForEachEdge(func(u, v graph.NodeID, _ float64) { _ = b.AddEdge(u+off, v+off) })
	return b.Build()
}

// clusterGolden holds the parent-array fingerprints of every golden
// clustering, keyed "<graph>/<weighting>/<linkage>".
var clusterGolden = map[string]uint64{
	"cora/plain/unweighted-average":     0xa4475d92895cf709,
	"cora/plain/weighted-average":       0x616623f01e06413d,
	"cora/plain/single":                 0x6e7592c946305955,
	"cora/attr/unweighted-average":      0x9e4db510e119a80d,
	"cora/attr/weighted-average":        0x021a2f9428ddeef9,
	"cora/attr/single":                  0xdff2e8865a2cd3d1,
	"citeseer/plain/unweighted-average": 0x117380aa1c1a4eed,
	"citeseer/plain/weighted-average":   0x5c6e617ec5dab605,
	"citeseer/plain/single":             0xf6eab810724942f5,
	"citeseer/attr/unweighted-average":  0xefbb9c2727eff045,
	"citeseer/attr/weighted-average":    0x98a6cafb310f8fed,
	"citeseer/attr/single":              0xd7cf35432546fe95,
	"disconnected/unweighted-average":   0xfe7ee91747df46d1,
	"disconnected/weighted-average":     0x3a8209fe8a848291,
	"disconnected/single":               0xaec995939b757371,
}

// TestClusterGolden pins the dendrograms HAC produces on the cora and
// citeseer stand-ins, plain and attribute-weighted, under every linkage, and
// on a disconnected graph, so a change to the merge order, the tie rule or
// the linkage arithmetic fails loudly.
func TestClusterGolden(t *testing.T) {
	graphs := map[string]*graph.Graph{"disconnected": goldenDisconnected()}
	for _, name := range []string{"cora", "citeseer"} {
		ds, err := dataset.Load(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name+"/plain"] = ds.G
		graphs[name+"/attr"] = goldenAttrWeighted(ds.G)
	}
	for gname, g := range graphs {
		for _, l := range []Linkage{UnweightedAverage, WeightedAverage, Single} {
			key := fmt.Sprintf("%s/%s", gname, l)
			tr, err := Cluster(g, l)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := parentFingerprint(tr), clusterGolden[key]; got != want {
				t.Errorf("%s: parent fingerprint = %#x, want %#x", key, got, want)
			}
		}
	}
}
