package influence

import (
	"context"
	"fmt"
	"testing"

	"github.com/codsearch/cod/internal/graph"
)

func rrStr(r *RRGraph) string {
	return fmt.Sprintf("nodes=%v off=%v adj=%v", r.Nodes, r.Off, r.Adj)
}

// TestArenaResetReuse locks the recycling contract: a Reset arena refilled
// with a re-seeded sampler reproduces its first run exactly, and the second
// run's headers never alias stale spans from the first.
func TestArenaResetReuse(t *testing.T) {
	g := graph.ErdosRenyi(40, 150, graph.NewRand(43))
	a := NewArena()
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(11))
	for i := 0; i < 40; i++ {
		s.RRGraphInto(a)
	}
	first := make([]string, 0, 40)
	for _, r := range a.Finalize() {
		first = append(first, rrStr(r))
	}
	a.Reset()
	s.SetRand(graph.NewRand(11))
	for i := 0; i < 40; i++ {
		s.RRGraphInto(a)
	}
	second := a.Finalize()
	if len(second) != len(first) {
		t.Fatalf("reused arena yielded %d rr graphs, want %d", len(second), len(first))
	}
	for i, r := range second {
		if rrStr(r) != first[i] {
			t.Errorf("rr %d differs after Reset:\n got %s\nwant %s", i, rrStr(r), first[i])
		}
	}
}

// sampleOne returns one RR graph from a uniform source, in its own arena.
func sampleOne(s GraphSampler) *RRGraph {
	a := NewArena()
	s.RRGraphInto(a)
	return a.Finalize()[0]
}

// sampleWithin returns one RR graph rooted at src confined to member (nil =
// unrestricted), in its own arena.
func sampleWithin(s GraphSampler, src graph.NodeID, member func(graph.NodeID) bool) *RRGraph {
	a := NewArena()
	s.RRGraphWithinInto(a, src, member)
	return a.Finalize()[0]
}

// batch samples count RR graphs from uniform sources into a fresh arena.
func batch(t *testing.T, s GraphSampler, count int) []*RRGraph {
	t.Helper()
	rrs, err := BatchIntoCtx(context.Background(), s, count, NewArena())
	if err != nil {
		t.Fatal(err)
	}
	return rrs
}
