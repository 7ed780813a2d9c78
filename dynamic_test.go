package cod

import (
	"errors"
	"fmt"
	"testing"
)

func TestDynamicSearcher(t *testing.T) {
	g := buildTestGraph(t)
	d, err := NewDynamicSearcher(g, Options{K: 5, Theta: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != g.N() || d.M() != g.M() {
		t.Fatal("initial state mismatch")
	}
	if err := d.AddEdge(0, NodeID(g.N()-1)); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 1 {
		t.Errorf("pending = %d", d.Pending())
	}
	// query before flush still works against the old state
	var q NodeID
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	if _, err := d.Discover(q, g.Attrs(q)[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(FlushAuto); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 {
		t.Error("pending survived flush")
	}
	if d.M() != g.M()+1 {
		t.Errorf("M = %d, want %d", d.M(), g.M()+1)
	}
	com, err := d.Discover(q, g.Attrs(q)[0])
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !com.Contains(q) {
		t.Error("community missing query node")
	}
	// forced strategies must both work
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(FlushLocal); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(3, NodeID(g.N()-2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(FlushFull); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicSearcherFrontDoor checks that DynamicSearcher queries pass the
// Searcher's front door: a found community reports the query's rank, the
// answer matches a Searcher built with the same options, and out-of-range
// input returns a *RangeError instead of panicking or succeeding.
func TestDynamicSearcherFrontDoor(t *testing.T) {
	g := buildTestGraph(t)
	opts := Options{K: 5, Theta: 4, Seed: 31}
	d, err := NewDynamicSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var q NodeID = -1
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	attr := g.Attrs(q)[0]
	for _, tc := range []struct {
		name      string
		dyn, stat func(NodeID, AttrID) (Community, error)
	}{
		{"Discover", d.Discover, s.Discover},
		{"DiscoverGlobal", d.DiscoverGlobal, s.DiscoverGlobal},
	} {
		got, err := tc.dyn(q, attr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.stat(q, attr)
		if err != nil {
			t.Fatalf("%s on Searcher: %v", tc.name, err)
		}
		if !got.Found || got.Rank < 1 {
			t.Errorf("%s: found=%t rank=%d, want a found community with rank >= 1", tc.name, got.Found, got.Rank)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("%s: DynamicSearcher answered %+v, Searcher %+v", tc.name, got, want)
		}
		for _, bad := range []struct {
			q    NodeID
			attr AttrID
		}{{NodeID(g.N() + 5), 0}, {-1, 0}, {q, AttrID(g.NumAttrs())}, {q, -1}} {
			var re *RangeError
			if _, err := tc.dyn(bad.q, bad.attr); !errors.As(err, &re) {
				t.Errorf("%s(%d, %d): err = %v, want a *RangeError", tc.name, bad.q, bad.attr, err)
			}
		}
	}
}
