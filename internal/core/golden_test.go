package core

import (
	"hash/fnv"
	"testing"

	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/influence"
)

// TestHimorGolden pins the serialized HIMOR index of the cora stand-in
// (UPGMA hierarchy, a θ = 5 weighted-cascade pool) to the FNV-64a hash of
// its WriteTo bytes, so any change to the HFS bucket fill, the bottom-up
// merge or the rank order fails loudly.
func TestHimorGolden(t *testing.T) {
	const want uint64 = 0xb00129e2c1ba6bf2
	ds, err := dataset.Load("cora", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.G
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	idx := icHimor(g, tr, influence.NewWeightedCascade(g), 5, graph.NewRand(77))
	h := fnv.New64a()
	if _, err := idx.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("index fingerprint = %#x, want %#x", got, want)
	}
}
