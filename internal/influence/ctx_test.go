package influence

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

func TestBatchCtxCancellation(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := BatchIntoCtx(ctx, NewSampler(g, NewWeightedCascade(g), graph.NewRand(9)), 500, NewArena())
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError", err)
	}
	if ce.Done != len(got) || ce.Total != 500 {
		t.Errorf("progress %d/%d, got %d samples", ce.Done, ce.Total, len(got))
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
}

func TestParallelBatchCtxCancellation(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ParallelBatchCtx(ctx, g, NewWeightedCascade(g), 10_000, 11, 4)
	if err == nil {
		t.Fatal("canceled parallel batch returned no error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError", err)
	}
	if ce.Done >= ce.Total {
		t.Errorf("progress %d/%d reports a complete run", ce.Done, ce.Total)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
}

// TestSampleRangeStagedMatchesFull locks the stage-resumable contract:
// staged calls over consecutive ranges draw a per-item seeded pool
// byte-identical to one full-range call.
func TestSampleRangeStagedMatchesFull(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, graph.NewRand(4))
	pool := func(bounds []int) string {
		src := graph.NewPCG(0)
		s := NewSampler(g, NewWeightedCascade(g), rand.New(src))
		a := NewArena()
		for j := 1; j < len(bounds); j++ {
			err := SampleRange(context.Background(), "test", bounds[j-1], bounds[j], 400, 1, func(_, i int) {
				graph.SeedPCG(src, graph.ItemSeed(11, i))
				s.RRGraphInto(a)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return rrBytes(t, a.Finalize())
	}
	if pool([]int{0, 50, 100, 200, 400}) != pool([]int{0, 400}) {
		t.Error("staged ranges differ from one full-range call")
	}
}

// TestSampleRangeEdgeCases locks the loop's contract: every index of
// [lo, hi) is drawn exactly once, each worker draws one contiguous ascending
// range in worker order, and empty or inverted ranges draw nothing and still
// flush one empty span.
func TestSampleRangeEdgeCases(t *testing.T) {
	for _, tc := range []struct{ lo, hi, workers int }{
		{0, 0, 4}, {9, 3, 4}, {7, 7, 1}, {0, 10, 1}, {5, 300, 1}, {5, 300, 3}, {0, 3, 16}, {0, 5, 0},
	} {
		reg := obs.NewRegistry()
		m := obs.NewQueryMetrics(reg)
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))
		byWorker := make([][]int, max(tc.workers, 1))
		var mu sync.Mutex
		err := SampleRange(ctx, "test", tc.lo, tc.hi, tc.hi, tc.workers, func(w, i int) {
			mu.Lock()
			byWorker[w] = append(byWorker[w], i)
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		next := tc.lo
		for w, idx := range byWorker {
			for _, i := range idx {
				if i != next {
					t.Fatalf("%+v: worker %d drew %d, want %d", tc, w, i, next)
				}
				next++
			}
		}
		if want := max(tc.hi, tc.lo); next != want {
			t.Errorf("%+v: drew up to %d, want %d", tc, next, want)
		}
		if got, want := m.StageItems(obs.StageRRSample).Value(), int64(max(tc.hi-tc.lo, 0)); got != want {
			t.Errorf("%+v: rr_sample items = %d, want %d", tc, got, want)
		}
		if got := m.StageSeconds(obs.StageRRSample).Count(); got != 1 {
			t.Errorf("%+v: rr_sample spans = %d, want 1", tc, got)
		}
	}
}

// TestSampleRangeCancelFlushesStageCounts locks partial progress across
// staged calls: each call is its own rr_sample span, a cancel landing
// mid-range flushes that call's completed draws, and Done is cumulative
// (lo plus the completed draws) against the caller's Total, so the spans of
// all stages sum to exactly the Done the error reports.
func TestSampleRangeCancelFlushesStageCounts(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	tr := obs.NewTrace()
	rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, tr))
	draw := func(_, _ int) {}

	// Two complete stages on a live context…
	if err := SampleRange(rctx, "test", 0, 128, 1024, 1, draw); err != nil {
		t.Fatal(err)
	}
	if err := SampleRange(rctx, "test", 128, 256, 1024, 1, draw); err != nil {
		t.Fatal(err)
	}
	// …then a stage whose context flips to Canceled after 3 polls: the
	// stage covers 768 draws with a poll every 64, so the flip lands after
	// 3·PollEvery draws, before the stage can finish.
	fc := &flipCtx{Context: rctx, nilFor: 3}
	err := SampleRange(fc, "test", 256, 1024, 1024, 1, draw)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError (err=%v)", err, err)
	}
	if want := 256 + 3*PollEvery; ce.Done != want || ce.Total != 1024 || ce.Op != "test" {
		t.Fatalf("progress %s %d/%d, want test %d/1024", ce.Op, ce.Done, ce.Total, want)
	}
	if got := m.StageItems(obs.StageRRSample).Value(); got != int64(ce.Done) {
		t.Errorf("rr_sample items counter = %d, want %d (two complete stages + partial)", got, ce.Done)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	for i, items := range []int64{128, 128, int64(ce.Done - 256)} {
		if spans[i].Stage != obs.StageRRSample || spans[i].Items != items {
			t.Errorf("stage span %d = %+v, want rr_sample with %d items", i, spans[i], items)
		}
	}
}
