package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"math/rand/v2"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// The reference implementations below replicate the pipelines on the bare
// primitives: fresh allocations everywhere (a fresh sampler, arena and
// evaluation scratch per query), influence.BatchIntoCtx for shared pools, a
// plain loop for restricted ones. Execute with the sample cache disabled
// must match them byte-for-byte — this is the §9 determinism contract for
// the pooled engine (scratch reuse, pooling, the index probe).

// refPool samples the θ·N shared pool from rng into a fresh arena.
func refPool(g *graph.Graph, p Params, rng *rand.Rand) ([]*influence.RRGraph, error) {
	return influence.BatchIntoCtx(context.Background(), NewGraphSampler(g, p.Model, rng), p.Theta*g.N(), influence.NewArena())
}

// refEvaluate runs the compressed evaluation over rrs with a fresh scratch.
func refEvaluate(ch *core.Chain, rrs []*influence.RRGraph, p Params) (Community, error) {
	res, err := core.CompressedEvaluateScratchCtx(context.Background(), ch, rrs, p.K, core.NewEvalScratch())
	if err != nil {
		return Community{Level: -1}, err
	}
	return communityFromChain(ch, res), nil
}

func refCODU(g *graph.Graph, t *hier.Tree, p Params, q graph.NodeID, rng *rand.Rand) (Community, error) {
	rrs, err := refPool(g, p, rng)
	if err != nil {
		return Community{Level: -1}, err
	}
	return refEvaluate(core.ChainFromTree(t, q), rrs, p)
}

func refCODR(g *graph.Graph, p Params, q graph.NodeID, attr graph.AttrID, rng *rand.Rand) (Community, error) {
	gl := core.AttributeWeighted(g, attr, p.Beta)
	t, err := hac.ClusterCtx(context.Background(), gl, p.Linkage)
	if err != nil {
		return Community{}, err
	}
	rrs, err := refPool(g, p, rng)
	if err != nil {
		return Community{Level: -1}, err
	}
	return refEvaluate(core.ChainFromTree(t, q), rrs, p)
}

func refCODL(g *graph.Graph, t *hier.Tree, idx *core.Himor, p Params, q graph.NodeID, attr graph.AttrID, rng *rand.Rand) (Community, error) {
	rec, err := core.LoreCtx(context.Background(), g, t, q, attr, p.Beta, p.Linkage)
	if err != nil {
		return Community{}, err
	}
	anc := t.Ancestors(rec.CL)
	for i := len(anc) - 1; i >= -1; i-- {
		v := rec.CL
		if i >= 0 {
			v = anc[i]
		}
		if idx.Rank(q, v) < p.K {
			return Community{Nodes: t.Members(v), Found: true, Level: -1, FromIndex: true}, nil
		}
	}
	members := rec.Sub.ToParent
	in := make([]bool, g.N())
	for _, v := range members {
		in[v] = true
	}
	member := func(u graph.NodeID) bool { return in[u] }
	s := NewGraphSampler(g, p.Model, rng)
	a := influence.NewArena()
	for i := 0; i < p.Theta*len(members); i++ {
		s.RRGraphWithinInto(a, members[rng.IntN(len(members))], member)
	}
	return refEvaluate(core.InnerChain(g, t, rec, q), a.Finalize(), p)
}

func refCODLNoIndex(g *graph.Graph, t *hier.Tree, p Params, q graph.NodeID, attr graph.AttrID, rng *rand.Rand) (Community, error) {
	rec, err := core.LoreCtx(context.Background(), g, t, q, attr, p.Beta, p.Linkage)
	if err != nil {
		return Community{}, err
	}
	rrs, err := refPool(g, p, rng)
	if err != nil {
		return Community{Level: -1}, err
	}
	return refEvaluate(core.MergedChain(g, t, rec, q), rrs, p)
}

// queryNodes picks a spread of query nodes, always including ones carrying
// attribute 0.
func queryNodes(g *graph.Graph, n int) []graph.NodeID {
	var qs []graph.NodeID
	for v := graph.NodeID(0); int(v) < g.N() && len(qs) < n; v += 7 {
		qs = append(qs, v)
	}
	return qs
}

func TestExecuteMatchesReferencePipelines(t *testing.T) {
	for _, model := range []Model{ICWeightedCascade, LTUniform} {
		t.Run(fmt.Sprintf("model=%d", model), func(t *testing.T) {
			g, _ := attrGraph(t, 21)
			p := Params{K: 3, Theta: 3, Seed: 21, Model: model}
			eng, err := Build(context.Background(), g, p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			p = eng.Params()
			for _, q := range queryNodes(g, 6) {
				for i, variant := range []Variant{VariantCODU, VariantCODR, VariantCODL, VariantCODLNoIndex} {
					seed := graph.ItemSeed(77, int(q)*4+i)
					var want Community
					var err error
					switch variant {
					case VariantCODU:
						want, err = refCODU(g, eng.Tree(), p, q, graph.NewRand(seed))
					case VariantCODR:
						want, err = refCODR(g, p, q, 0, graph.NewRand(seed))
					case VariantCODL:
						want, err = refCODL(g, eng.Tree(), eng.Index(), p, q, 0, graph.NewRand(seed))
					case VariantCODLNoIndex:
						want, err = refCODLNoIndex(g, eng.Tree(), p, q, 0, graph.NewRand(seed))
					}
					if err != nil {
						t.Fatalf("%v reference q=%d: %v", variant, q, err)
					}
					// Execute twice: the second run reuses the pooled scratch, so
					// any stale-state leak between runs shows up as a mismatch.
					for run := 0; run < 2; run++ {
						got, err := eng.Execute(context.Background(), eng.Compile(variant, q, 0), graph.NewRand(seed))
						if err != nil {
							t.Fatalf("%v engine q=%d run=%d: %v", variant, q, run, err)
						}
						if comBytes(got) != comBytes(want) {
							t.Errorf("%v q=%d run=%d differs from reference:\n got %s\nwant %s",
								variant, q, run, comBytes(got), comBytes(want))
						}
					}
				}
			}
		})
	}
}

// TestEngineConcurrentStress hammers one engine from many goroutines with a
// mixed-variant workload and checks every answer against the serial run:
// arena recycling must never alias one in-flight query's samples into
// another. Run under -race (the CI race-and-vet job names this test).
func TestEngineConcurrentStress(t *testing.T) {
	g, _ := attrGraph(t, 31)
	p := Params{K: 3, Theta: 3, Seed: 31}
	eng, err := Build(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	variants := []Variant{VariantCODU, VariantCODR, VariantCODL, VariantCODLNoIndex}
	type job struct {
		variant Variant
		q       graph.NodeID
		seed    uint64
	}
	var jobs []job
	for i, q := range queryNodes(g, 8) {
		for j, v := range variants {
			jobs = append(jobs, job{v, q, graph.ItemSeed(555, i*len(variants)+j)})
		}
	}
	want := make([]string, len(jobs))
	for i, jb := range jobs {
		com, err := eng.Execute(context.Background(), eng.Compile(jb.variant, jb.q, 0), graph.NewRand(jb.seed))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = comBytes(com)
	}
	const rounds = 3
	got := make([]string, rounds*len(jobs))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, jb := range jobs {
			wg.Add(1)
			go func(slot int, jb job) {
				defer wg.Done()
				com, err := eng.Execute(context.Background(), eng.Compile(jb.variant, jb.q, 0), graph.NewRand(jb.seed))
				if err != nil {
					got[slot] = "err: " + err.Error()
					return
				}
				got[slot] = comBytes(com)
			}(r*len(jobs)+i, jb)
		}
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		for i := range jobs {
			if got[r*len(jobs)+i] != want[i] {
				t.Errorf("round %d job %d (%v q=%d) differs under concurrency:\n got %s\nwant %s",
					r, i, jobs[i].variant, jobs[i].q, got[r*len(jobs)+i], want[i])
			}
		}
	}
}

// TestSampleCacheHitEqualsMiss locks the cache-on determinism contract: the
// pool is a pure function of (seed, attr, epoch), so a warm query answers
// byte-identically to its cold twin and the hit/miss counters advance.
func TestSampleCacheHitEqualsMiss(t *testing.T) {
	g, q := attrGraph(t, 41)
	p := Params{K: 3, Theta: 3, Seed: 41}
	build := func() *Engine {
		eng, err := Build(context.Background(), g, p, Config{SampleCache: 4})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := build()
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))

	cold, err := eng.Execute(ctx, eng.Compile(VariantCODR, q, 0), graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses.Value() != 1 || m.CacheHits.Value() != 0 {
		t.Fatalf("cold query: hits=%d misses=%d", m.CacheHits.Value(), m.CacheMisses.Value())
	}
	warm, err := eng.Execute(ctx, eng.Compile(VariantCODR, q, 0), graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits.Value() != 1 {
		t.Fatalf("warm query did not hit: hits=%d misses=%d", m.CacheHits.Value(), m.CacheMisses.Value())
	}
	if comBytes(cold) != comBytes(warm) {
		t.Errorf("cache hit differs from miss:\n cold %s\n warm %s", comBytes(cold), comBytes(warm))
	}
	// A second engine answering the same query cold must agree: pool content
	// depends on (seed, attr, epoch), never on arrival order or history.
	again, err := build().Execute(ctx, eng.Compile(VariantCODR, q, 0), graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if comBytes(again) != comBytes(cold) {
		t.Errorf("fresh engine cold query differs: %s vs %s", comBytes(again), comBytes(cold))
	}
}

// TestRebindInvalidatesCaches locks the dynamic-update contract: Rebind bumps
// the epoch, so cached pools and attribute trees from the old graph can never
// answer over the new one, and post-rebind execution is deterministic.
func TestRebindInvalidatesCaches(t *testing.T) {
	g, q := attrGraph(t, 51)
	p := Params{K: 3, Theta: 3, Seed: 51}
	run := func() (string, string, uint64) {
		eng, err := Build(context.Background(), g, p, Config{SampleCache: 4, CacheAttrTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m := obs.NewQueryMetrics(reg)
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))
		before, err := eng.Execute(ctx, eng.Compile(VariantCODR, q, 0), graph.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild offline state over a perturbed graph and rebind.
		b := graph.NewBuilder(g.N(), g.NumAttrs())
		g.ForEachEdge(func(u, v graph.NodeID, w float64) { _ = b.AddWeightedEdge(u, v, w) })
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if as := g.Attrs(v); len(as) > 0 {
				_ = b.SetAttrs(v, as...)
			}
		}
		_ = b.AddEdge(q, graph.NodeID((int(q)+g.N()/2)%g.N()))
		ng := b.Build()
		nt, err := hac.Cluster(ng, p.Linkage)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := influence.BatchIntoCtx(ctx, NewGraphSampler(ng, ICWeightedCascade, graph.NewRand(7)), p.Theta*ng.N(), influence.NewArena())
		if err != nil {
			t.Fatal(err)
		}
		idx := core.BuildHimor(ctx, ng, nt, pool, p.Theta)
		eng.Rebind(ng, nt, idx)
		if eng.Epoch() != 1 {
			t.Fatalf("epoch after rebind = %d, want 1", eng.Epoch())
		}
		after, err := eng.Execute(ctx, eng.Compile(VariantCODR, q, 0), graph.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		if m.CacheMisses.Value() != 2 {
			t.Fatalf("post-rebind query should miss (stale pool invalidated): misses=%d", m.CacheMisses.Value())
		}
		return comBytes(before), comBytes(after), eng.Epoch()
	}
	b1, a1, _ := run()
	b2, a2, _ := run()
	if b1 != b2 || a1 != a2 {
		t.Errorf("rebind replay not deterministic:\n before %s / %s\n after %s / %s", b1, b2, a1, a2)
	}
}

// cancelAfterErrs reports Canceled starting with the (left+1)-th Err poll —
// a deterministic way to fire cancellation mid-populate: sampling loops poll
// Err once per influence.PollEvery samples, so left=1 cancels with exactly
// PollEvery partial samples already recorded.
type cancelAfterErrs struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *cancelAfterErrs) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// poolBytes serializes a sample pool for byte-identity comparison.
func poolBytes(rrs []*influence.RRGraph) string {
	var b strings.Builder
	for _, rr := range rrs {
		fmt.Fprintf(&b, "%v|%v|%v;", rr.Nodes, rr.Off, rr.Adj)
	}
	return b.String()
}

// TestSampleCacheCanceledPopulateRetriesClean is a regression test: a
// populate canceled mid-sampling used to leave its partial RR samples in the
// entry's arena, and a retry on the same entry appended a full pool on top —
// serving an oversized pool with a duplicated prefix. A failed populate must
// withdraw its entry so the retry samples a fresh one, byte-identical to an
// engine that never saw the cancellation.
func TestSampleCacheCanceledPopulateRetriesClean(t *testing.T) {
	g, _ := attrGraph(t, 71)
	p := Params{K: 3, Theta: 3, Seed: 71}
	build := func() *Engine {
		eng, err := Build(context.Background(), g, p, Config{SampleCache: 2})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := build()
	count := eng.p.Theta * g.N()
	if count <= influence.PollEvery {
		t.Fatalf("pool of %d samples cannot be canceled mid-populate", count)
	}
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))

	// First attempt: cancellation fires with PollEvery samples already in
	// the entry's arena.
	_, _, err := eng.cache.get(&cancelAfterErrs{Context: rctx, left: 1}, eng, predKey{}, count)
	var ce *influence.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled populate returned %v, want CanceledError", err)
	}
	if ce.Done == 0 {
		t.Fatal("cancellation fired before any sample; test needs a mid-populate cancel")
	}

	// The retry must serve a clean full pool...
	got, _, err := eng.cache.get(rctx, eng, predKey{}, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != count {
		t.Fatalf("retried pool has %d graphs, want %d (partial samples retained)", len(got), count)
	}
	// ...byte-identical to an engine that never failed.
	fresh := build()
	want, _, err := fresh.cache.get(rctx, fresh, predKey{}, count)
	if err != nil {
		t.Fatal(err)
	}
	if poolBytes(got) != poolBytes(want) {
		t.Error("pool after canceled populate differs from never-canceled pool")
	}
	// The retried pool was cached under the live key: next get is a hit.
	if _, _, err := eng.cache.get(rctx, eng, predKey{}, count); err != nil {
		t.Fatal(err)
	}
	if m.CacheHits.Value() != 1 || m.CacheMisses.Value() != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3 (failed, retry, fresh engine, then hit)",
			m.CacheHits.Value(), m.CacheMisses.Value())
	}
}

// gateCtx pins the canceled-populate interleaving: the first Err poll (at
// sample 0) passes and closes polled, the second (at sample PollEvery)
// blocks until release is closed and then reports Canceled. While blocked,
// the populator sits inside populate holding entry.mu — the window in which
// a waiter can fetch the entry from the map and block behind it.
type gateCtx struct {
	context.Context
	polled  chan struct{}
	release chan struct{}
	polls   int // Err is called by the single populating goroutine
}

func (c *gateCtx) Err() error {
	c.polls++
	if c.polls == 1 {
		close(c.polled)
		return nil
	}
	<-c.release
	return context.Canceled
}

// TestSampleCacheWaiterSurvivesCanceledPopulate deterministically drives the
// interleaving the withdrawal logic exists for: a waiter blocks on an entry
// whose populate then fails mid-sampling. The waiter must not repopulate the
// withdrawn entry (stacking a full pool on its partial samples and serving a
// corrupted, oversized pool) — it must converge on the live replacement and
// serve the reference pool. Run under -race (named in the CI job).
func TestSampleCacheWaiterSurvivesCanceledPopulate(t *testing.T) {
	g, _ := attrGraph(t, 91)
	p := Params{K: 3, Theta: 3, Seed: 91}
	build := func() *Engine {
		eng, err := Build(context.Background(), g, p, Config{SampleCache: 2})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := build()
	count := ref.p.Theta * g.N()
	refPool, _, err := ref.cache.get(context.Background(), ref, predKey{}, count)
	if err != nil {
		t.Fatal(err)
	}
	want := poolBytes(refPool)

	eng := build()
	gctx := &gateCtx{Context: context.Background(), polled: make(chan struct{}), release: make(chan struct{})}
	popErr := make(chan error, 1)
	go func() {
		_, _, err := eng.cache.get(gctx, eng, predKey{}, count)
		popErr <- err
	}()
	<-gctx.polled // populator is inside populate, holding entry.mu

	type res struct {
		pool string
		err  error
	}
	waiterRes := make(chan res, 1)
	go func() {
		rrs, _, err := eng.cache.get(context.Background(), eng, predKey{}, count)
		if err != nil {
			waiterRes <- res{err: err}
			return
		}
		waiterRes <- res{pool: poolBytes(rrs)}
	}()
	// Wait for the waiter to get past the map read (it bumps the cache
	// tick under c.mu); its next step is blocking on the populator's
	// entry.mu. Only then let the populate fail.
	for {
		eng.cache.mu.Lock()
		tick := eng.cache.tick
		eng.cache.mu.Unlock()
		if tick >= 2 {
			break
		}
		runtime.Gosched()
	}
	close(gctx.release)

	if err := <-popErr; err == nil {
		t.Fatal("gated populate did not fail")
	} else {
		var ce *influence.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("gated populate returned %v, want CanceledError", err)
		}
		if ce.Done == 0 {
			t.Fatal("populate canceled before any sample; test needs partial samples in the arena")
		}
	}
	r := <-waiterRes
	if r.err != nil {
		t.Fatalf("waiter failed after populator cancellation: %v", r.err)
	}
	if r.pool != want {
		t.Error("waiter served a pool differing from the reference (corrupted prefix or wrong size)")
	}
	// The waiter's pool must be cached under the live key for later queries.
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))
	if _, _, err := eng.cache.get(rctx, eng, predKey{}, count); err != nil {
		t.Fatal(err)
	}
	if m.CacheHits.Value() != 1 {
		t.Errorf("query after recovery missed (hits=%d): waiter repopulated an orphaned entry", m.CacheHits.Value())
	}
}

// TestSampleCacheConcurrentCancelConvergence interleaves a canceled caller
// with clean callers on one key: whichever goroutine ends up populating,
// every successful result must be the full reference pool, and waiters
// blocked on a withdrawn entry must converge on the live replacement rather
// than resurrecting the orphan. Run under -race (named in the CI job).
func TestSampleCacheConcurrentCancelConvergence(t *testing.T) {
	g, _ := attrGraph(t, 81)
	p := Params{K: 3, Theta: 3, Seed: 81}
	build := func() *Engine {
		eng, err := Build(context.Background(), g, p, Config{SampleCache: 2})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := build()
	count := ref.p.Theta * g.N()
	refPool, _, err := ref.cache.get(context.Background(), ref, predKey{}, count)
	if err != nil {
		t.Fatal(err)
	}
	want := poolBytes(refPool)

	const callers = 4
	for round := 0; round < 8; round++ {
		eng := build() // cold cache each round
		pools := make([]string, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			ctx := context.Background()
			if i == 0 {
				ctx = &cancelAfterErrs{Context: ctx, left: 1}
			}
			wg.Add(1)
			go func(slot int, ctx context.Context) {
				defer wg.Done()
				rrs, _, err := eng.cache.get(ctx, eng, predKey{}, count)
				if err != nil {
					errs[slot] = err
					return
				}
				pools[slot] = poolBytes(rrs)
			}(i, ctx)
		}
		wg.Wait()
		for i := 0; i < callers; i++ {
			if errs[i] != nil {
				var ce *influence.CanceledError
				if i != 0 || !errors.As(errs[i], &ce) {
					t.Fatalf("round %d: clean caller %d failed: %v", round, i, errs[i])
				}
				continue
			}
			if pools[i] != want {
				t.Errorf("round %d: caller %d served a pool differing from the reference (len mismatch or corrupted prefix)", round, i)
			}
		}
	}
}

// TestSampleCacheEviction locks the LRU bound and the eviction counter.
func TestSampleCacheEviction(t *testing.T) {
	g, q := attrGraph(t, 61)
	eng, err := Build(context.Background(), g, Params{K: 3, Theta: 2, Seed: 61}, Config{SampleCache: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))
	for _, attr := range []graph.AttrID{0, 1, 0} {
		if _, err := eng.Execute(ctx, eng.Compile(VariantCODR, q, attr), graph.NewRand(5)); err != nil {
			t.Fatal(err)
		}
	}
	if m.CacheMisses.Value() != 3 {
		t.Errorf("misses = %d, want 3 (capacity 1 forces re-sampling)", m.CacheMisses.Value())
	}
	if m.CacheEvictions.Value() != 2 {
		t.Errorf("evictions = %d, want 2", m.CacheEvictions.Value())
	}
}
