package influence

import (
	"context"
	"math/rand/v2"

	"github.com/codsearch/cod/internal/graph"
)

// ParallelBatchCtx samples count IC RR graphs across workers goroutines,
// each writing into its own arena. Sample i draws from its own PRNG stream
// seeded by graph.ItemSeed(seed, i), so out[i] depends only on (g, model,
// seed, i): the pool is byte-for-byte identical for any worker count or
// goroutine schedule. Each worker reuses one Sampler (its scratch arrays are
// O(|V|)) and reseeds its source per sample.
//
// Every worker polls ctx.Err() once per PollEvery samples (see SampleRange).
// A canceled call returns a *CanceledError counting the samples completed
// across all workers (the pool has holes, so it is withheld); the rr_sample
// span carries that count either way.
func ParallelBatchCtx(ctx context.Context, g *graph.Graph, model Model, count int, seed uint64, workers int) ([]*RRGraph, error) {
	type worker struct {
		src *rand.PCG
		s   *Sampler
		a   *Arena
	}
	ws := make([]worker, max(1, min(workers, count)))
	for w := range ws {
		src := graph.NewPCG(0)
		ws[w] = worker{src: src, s: NewSampler(g, model, rand.New(src)), a: NewArena()}
	}
	err := SampleRange(ctx, "influence: parallel rr batch", 0, count, count, len(ws), func(w, i int) {
		graph.SeedPCG(ws[w].src, graph.ItemSeed(seed, i))
		ws[w].s.RRGraphInto(ws[w].a)
	})
	if err != nil {
		return nil, err
	}
	out := make([]*RRGraph, 0, count)
	for _, w := range ws {
		out = append(out, w.a.Finalize()...)
	}
	return out, nil
}
