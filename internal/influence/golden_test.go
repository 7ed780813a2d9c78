package influence

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"github.com/codsearch/cod/internal/graph"
)

// rrFingerprint is the FNV-64a hash of a pool's exact CSR content: per RR
// graph, len(Nodes) and Nodes, then Off, then len(Adj) and Adj, each value as
// a little-endian uint32.
func rrFingerprint(rrs []*RRGraph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for _, r := range rrs {
		put(int32(len(r.Nodes)))
		for _, v := range r.Nodes {
			put(v)
		}
		for _, o := range r.Off {
			put(o)
		}
		put(int32(len(r.Adj)))
		for _, t := range r.Adj {
			put(t)
		}
	}
	return h.Sum64()
}

// goldenSamples is the pool size of every golden fingerprint.
const goldenSamples = 200

// goldenGraph is the fixed graph the golden fingerprints were recorded on.
func goldenGraph() *graph.Graph { return graph.BarabasiAlbert(80, 3, graph.NewRand(21)) }

// goldenMembers is the restriction mask of the restricted fingerprints
// (every node not divisible by 4) and its member list.
func goldenMembers(g *graph.Graph) ([]graph.NodeID, func(graph.NodeID) bool) {
	var members []graph.NodeID
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if v%4 != 0 {
			members = append(members, v)
		}
	}
	return members, func(u graph.NodeID) bool { return u%4 != 0 }
}

// goldenSampler is the arena sampling surface the golden fingerprints
// exercise (spelled out rather than naming GraphSampler so the test
// compiles against every revision that has the arena samplers).
type goldenSampler interface {
	RRGraphInto(a *Arena)
	RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool)
}

// goldenFingerprints holds, per model, the fingerprints of goldenSamples RR
// graphs from uniform sources and restricted to goldenMembers.
var goldenFingerprints = map[string]struct{ uniform, restricted uint64 }{
	"ic": {uniform: 0xaf667f07924378d7, restricted: 0x4281f014b4969326},
	"lt": {uniform: 0xc91d612672e20044, restricted: 0x6eeeff1de51fe3f5},
}

// newGoldenSampler builds the named model's sampler ("ic" or "lt") on g.
func newGoldenSampler(g *graph.Graph, name string, rng *rand.Rand) goldenSampler {
	if name == "lt" {
		return NewLTSampler(g, UniformLT{G: g}, rng)
	}
	return NewSampler(g, NewWeightedCascade(g), rng)
}

// TestSamplerGolden pins the RR samplers to fingerprints recorded from the
// original allocating implementation (RRGraph/RRGraphWithin, which drew
// byte-identical samples), so a change to either model's coin policy, its
// randomness order or the CSR layout fails loudly. For each model it hashes
// goldenSamples RR graphs from uniform sources, and goldenSamples graphs
// restricted to a member mask with sources drawn from the members by the
// sampler's own rng (the engine's restricted draw order); the parallel pool
// must hash equal at workers 1 and 4.
func TestSamplerGolden(t *testing.T) {
	g := goldenGraph()
	members, member := goldenMembers(g)
	newSampler := func(name string, rng *rand.Rand) goldenSampler { return newGoldenSampler(g, name, rng) }
	for _, name := range []string{"ic", "lt"} {
		t.Run(name, func(t *testing.T) {
			want := goldenFingerprints[name]

			s := newSampler(name, graph.NewRand(101))
			a := NewArena()
			for i := 0; i < goldenSamples; i++ {
				s.RRGraphInto(a)
			}
			if got := rrFingerprint(a.Finalize()); got != want.uniform {
				t.Errorf("uniform fingerprint = %#x, want %#x", got, want.uniform)
			}

			rng := graph.NewRand(102)
			s = newSampler(name, rng)
			a = NewArena()
			for i := 0; i < goldenSamples; i++ {
				s.RRGraphWithinInto(a, members[rng.IntN(len(members))], member)
			}
			if got := rrFingerprint(a.Finalize()); got != want.restricted {
				t.Errorf("restricted fingerprint = %#x, want %#x", got, want.restricted)
			}
		})
	}

	t.Run("parallel", func(t *testing.T) {
		const want uint64 = 0x41ee74a4add27d0f
		for _, workers := range []int{1, 4} {
			pool, err := ParallelBatchCtx(context.Background(), g, NewWeightedCascade(g), goldenSamples, 103, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := rrFingerprint(pool); got != want {
				t.Errorf("workers=%d: pool fingerprint = %#x, want %#x", workers, got, want)
			}
		}
	})
}

// TestBatchIntoCtxMatchesGolden locks BatchIntoCtx to the golden uniform
// stream of both models: polling the context consumes no randomness, so an
// uncancelled batch draws exactly the samples of a plain RRGraphInto loop.
// A context canceled before the first draw yields no samples.
func TestBatchIntoCtxMatchesGolden(t *testing.T) {
	g := goldenGraph()
	for _, name := range []string{"ic", "lt"} {
		s := newGoldenSampler(g, name, graph.NewRand(101)).(GraphSampler)
		got, err := BatchIntoCtx(context.Background(), s, goldenSamples, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		if fp, want := rrFingerprint(got), goldenFingerprints[name].uniform; fp != want {
			t.Errorf("%s: BatchIntoCtx fingerprint = %#x, want %#x", name, fp, want)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s = newGoldenSampler(g, name, graph.NewRand(101)).(GraphSampler)
		partial, err := BatchIntoCtx(ctx, s, goldenSamples, NewArena())
		if err == nil {
			t.Fatalf("%s: canceled BatchIntoCtx returned no error", name)
		}
		if len(partial) != 0 {
			t.Errorf("%s: pre-start cancellation returned %d samples", name, len(partial))
		}
	}
}
