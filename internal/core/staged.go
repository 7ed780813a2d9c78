package core

import (
	"context"

	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// This file is the stage-resumable form of Algorithm 1 used by the engine's
// bounded-error adaptive mode (DESIGN.md §16). The per-RR HFS fold is purely
// additive, so a StagedEval grows the shared sample pool across geometric
// stages and re-sweeps the accumulated buckets after each stage; folding
// every sample exactly once keeps the total HFS cost equal to one
// non-staged evaluation, and a run that reaches the full pool returns
// exactly CompressedEvaluate's result.

// LevelMargin reports, for one chain level after a sweep, the raw counts the
// rank-k decision for q rests on. Normalized by the pool size they form the
// estimated influence gap the adaptive certifier bounds.
type LevelMargin struct {
	// QCount is q's accumulated RR occurrence count at this level.
	QCount int32
	// Boundary is the k-th largest occurrence count among nodes other than
	// q at this level (0 while fewer than k other nodes have appeared).
	Boundary int32
	// InTopK is the level's empirical rank-k decision, identical to the one
	// the non-staged sweep makes on the same pool.
	InTopK bool
}

// StagedEval accumulates a compressed COD evaluation across a growing RR
// sample pool. Fold folds the pool's new suffix into the per-level buckets;
// Sweep runs the incremental top-k sweep over everything folded so far,
// reporting the would-be answer plus per-level margins. A StagedEval is
// single-goroutine, like the scratch it borrows.
type StagedEval struct {
	ch      *Chain
	k       int
	sc      *EvalScratch
	top     *topK
	folded  int
	entries int
	margins []LevelMargin
}

// NewStagedEval prepares a staged evaluation of ch at rank k drawing its
// working buffers from sc (which may be nil for a private scratch). The
// scratch must not be used by another evaluation until the StagedEval is
// done.
func NewStagedEval(ch *Chain, k int, sc *EvalScratch) *StagedEval {
	if sc == nil {
		sc = NewEvalScratch()
	}
	sc.prepare(ch.Len(), len(ch.level))
	return &StagedEval{ch: ch, k: k, sc: sc, top: newTopK(k),
		margins: make([]LevelMargin, ch.Len())}
}

// Folded returns the number of RR graphs folded so far.
func (se *StagedEval) Folded() int { return se.folded }

// Fold folds rrs[Folded():] — the samples added since the previous call —
// into the accumulated buckets. Passing the whole (grown) pool every stage
// is the intended calling convention: already-folded prefixes are skipped.
// The fold polls ctx once per influence.PollEvery RR graphs and stops with
// a *influence.CanceledError counting the RR graphs folded in so far.
func (se *StagedEval) Fold(ctx context.Context, rrs []*influence.RRGraph) error {
	induce := obs.FromContext(ctx).StartSpan(obs.StageRRInduce)
	L := se.ch.Len()
	added := 0
	for ; se.folded < len(rrs); se.folded++ {
		if se.folded%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				se.entries += added
				induce.EndItems(added)
				return &influence.CanceledError{
					Op: "core: compressed evaluation", Done: se.folded, Total: len(rrs), Cause: err}
			}
		}
		added += se.sc.foldRR(se.ch, L, rrs[se.folded])
	}
	se.entries += added
	induce.EndItems(added)
	return nil
}

// Sweep runs the incremental top-k sweep over the folded pool, returning
// the evaluation result as of this stage and the per-level margins (valid
// until the next Sweep). The decision at every level — and therefore the
// result — is identical to CompressedEvaluate over the same folded pool.
func (se *StagedEval) Sweep(ctx context.Context) (EvalResult, []LevelMargin) {
	sweep := obs.FromContext(ctx).StartSpan(obs.StageTopKSweep)
	sc, ch, q := se.sc, se.ch, se.ch.q
	L := ch.Len()
	sc.groupByLevel(ch, L)
	se.top.reset()
	best := -1
	for h := 0; h < L; h++ {
		sc.sweepLevel(h, se.top, q)
		ahead := se.top.aheadOf(q, sc.tau[q])
		sc.ranks[h] = int32(ahead) + 1
		sc.topk[h] = ahead < se.k
		m := &se.margins[h]
		m.QCount = sc.tau[q]
		m.Boundary = se.top.boundary()
		m.InTopK = sc.topk[h]
		if m.InTopK {
			best = h
		}
	}
	sweep.EndItems(len(sc.touched))
	return EvalResult{Level: best, QCount: int(sc.tau[q]), Buckets: se.entries,
		TopK: sc.topk[:L], Ranks: sc.ranks[:L]}, se.margins
}
