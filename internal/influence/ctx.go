package influence

import (
	"context"
	"fmt"
	"sync"

	"github.com/codsearch/cod/internal/obs"
)

// PollEvery is the bounded cancellation-check interval of the sampling
// loops: ctx.Err() is consulted once per PollEvery Monte-Carlo draws. One RR
// sample costs microseconds on realistic graphs, so cancellation latency is
// well under a millisecond while the check itself stays off the profile.
const PollEvery = 64

// CanceledError reports a Monte-Carlo computation stopped by context
// cancellation, carrying how much work completed. Completed units are
// deterministic — sample i depends only on (graph, model, seed, i) — so
// callers may keep or discard partial results freely; only the tail is
// missing. Unwrap yields the context error, so errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, context.Canceled) work.
type CanceledError struct {
	// Op names the canceled computation (e.g. "influence: rr batch").
	Op string
	// Done counts completed units (samples, queries) out of Total.
	Done, Total int
	// Cause is the context's error.
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("%s canceled after %d/%d units: %v", e.Op, e.Done, e.Total, e.Cause)
}

// Unwrap exposes the underlying context error.
func (e *CanceledError) Unwrap() error { return e.Cause }

// SampleRange is the one Monte-Carlo sampling loop: it calls draw(w, i) for
// every sample index i in [lo, hi), split into contiguous per-worker ranges
// in worker order (worker w draws its range in ascending i; w indexes
// per-worker sampler and arena state). workers <= 1 draws inline on the
// calling goroutine; more workers each run on their own goroutine, at most
// one per sample. Each worker checks ctx.Err() before its first draw and
// once per PollEvery draws after that, and stops when the context is done;
// the check consumes no randomness, so an uncancelled run draws exactly
// what an unpolled loop would.
//
// The call is one rr_sample span whose item count is the number of
// completed draws, flushed even when a cancel lands mid-range. On
// cancellation SampleRange returns a *CanceledError with Op op, Done = lo
// plus the completed draws, and Total total; with one worker the completed
// draws are exactly [lo, Done).
func SampleRange(ctx context.Context, op string, lo, hi, total, workers int, draw func(w, i int)) error {
	count := max(hi-lo, 0)
	workers = max(1, min(workers, count))
	span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
	run := func(w, from, to int) (int, error) {
		for i := from; i < to; i++ {
			if (i-from)%PollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return i - from, err
				}
			}
			draw(w, i)
		}
		return to - from, nil
	}
	var done int
	var cause error
	if workers == 1 {
		done, cause = run(0, lo, lo+count)
	} else {
		dones := make([]int, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		start := lo
		for w := 0; w < workers; w++ {
			n := count / workers
			if w < count%workers {
				n++
			}
			wg.Add(1)
			go func(w, from, to int) {
				defer wg.Done()
				dones[w], errs[w] = run(w, from, to)
			}(w, start, start+n)
			start += n
		}
		wg.Wait()
		for w := range dones {
			done += dones[w]
			if cause == nil {
				cause = errs[w]
			}
		}
	}
	span.EndItems(done)
	if cause != nil {
		return &CanceledError{Op: op, Done: lo + done, Total: total, Cause: cause}
	}
	return nil
}

// BatchIntoCtx samples count RR graphs from uniform sources into a, checking
// ctx.Err() every PollEvery samples (see SampleRange). The returned slice
// aliases the arena (see Arena's ownership contract). On cancellation the
// samples completed so far are returned with the *CanceledError.
func BatchIntoCtx(ctx context.Context, s GraphSampler, count int, a *Arena) ([]*RRGraph, error) {
	err := SampleRange(ctx, "influence: rr batch", 0, count, count, 1, func(_, _ int) { s.RRGraphInto(a) })
	return a.Finalize(), err
}
