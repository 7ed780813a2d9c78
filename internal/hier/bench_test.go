package hier_test

import (
	"testing"

	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/hac"
)

// BenchmarkTreeMembers lists the members of the root of the cora stand-in's
// UPGMA hierarchy: the whole graph, the largest Members call LORE can make.
func BenchmarkTreeMembers(b *testing.B) {
	ds, err := dataset.Load("cora", 42)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := hac.Cluster(ds.G, hac.UnweightedAverage)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Members(tr.Root()); len(got) != ds.G.N() {
			b.Fatalf("root has %d members, want %d", len(got), ds.G.N())
		}
	}
}
