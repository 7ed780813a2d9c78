// Package accuracy is the statistical harness behind the bounded-error
// evaluation contract (DESIGN.md §16): it replays eval-style query sets
// through two engines sharing one offline state — exact (full budget) and
// adaptive (staged, (ε, δ)-bounded) — and measures what the bound actually
// delivers: the observed rank-k error rate, which the contract promises
// stays at or below δ, and the mean realized sample-budget fraction, which
// is the whole point of stopping early.
//
// A rank-k error is a disagreement OUTSIDE the indifference region: the
// bounded answer differs from the exact one at a level whose exact
// normalized margin exceeds ε. Disagreements inside the region (exact
// margin ≤ ε) are the PAC slack the ε parameter explicitly sells — the two
// candidate levels are statistically near-tied at width ε, and the contract
// does not promise to resolve them; the harness reports them separately as
// near-tie flips so a caller can see both numbers.
package accuracy

import (
	"context"
	"fmt"
	"math"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// Config parameterizes one harness run. The zero value replays the tiny
// dataset at the adaptive defaults.
type Config struct {
	// Dataset names a registered dataset (default "tiny").
	Dataset string
	// Seed drives the dataset, the query workload, and the per-query PCG
	// streams (default 1).
	Seed uint64
	// NumQueries is the query-set size (default 50). Each query runs through
	// both CODU and CODL, so the comparison count is twice this.
	NumQueries int
	// K and Theta are the paper parameters (defaults 3 and 64 — high enough
	// that the stage-1 pool can certify; at toy budgets the concentration
	// radius never shrinks below ε and every query runs to exhaustion).
	K, Theta int
	// Eps, Delta, Stages configure the bound (defaults 0.05, 0.05, 4).
	Eps, Delta float64
	Stages     int
}

func (c Config) withDefaults() Config {
	if c.Dataset == "" {
		c.Dataset = "tiny"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 50
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.Theta <= 0 {
		c.Theta = 64
	}
	if c.Eps <= 0 {
		c.Eps = 0.05
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	if c.Stages <= 0 {
		c.Stages = 4
	}
	return c
}

// Result aggregates one harness run.
type Result struct {
	Dataset    string
	Eps, Delta float64
	// Compared counts (query, variant) pairs; Sampled the subset that took
	// the sampling path (the rest answered from the HIMOR index, where the
	// adaptive and exact engines are trivially identical).
	Compared, Sampled int
	// EarlyStops counts sampled pairs the adaptive engine certified before
	// the final stage.
	EarlyStops int
	// Mismatches counts sampled pairs whose communities differ at all;
	// Errors the subset that are rank-k errors (the exact margin at the
	// flipped level exceeds ε). Mismatches − Errors are near-tie flips.
	Mismatches, Errors int
	// ErrorRate is Errors / Sampled (0 when nothing was sampled).
	ErrorRate float64
	// MeanBudget is realized samples / full budget across sampled pairs.
	MeanBudget float64
}

// String renders the one-line summary the codbench sweep prints.
func (r Result) String() string {
	return fmt.Sprintf("%s eps=%.3g delta=%.3g: compared=%d sampled=%d early_stop=%d mismatch=%d errors=%d error_rate=%.4f mean_budget=%.2f",
		r.Dataset, r.Eps, r.Delta, r.Compared, r.Sampled, r.EarlyStops, r.Mismatches, r.Errors, r.ErrorRate, r.MeanBudget)
}

// Run replays the query set through the exact and adaptive engines and
// scores the adaptive answers. Both engines share one offline build, so the
// comparison isolates the staged evaluation itself.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	ds, err := dataset.Load(cfg.Dataset, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	g := ds.G
	p := engine.Params{K: cfg.K, Theta: cfg.Theta, Seed: cfg.Seed}
	exact, err := engine.Build(ctx, g, p, engine.Config{})
	if err != nil {
		return Result{}, err
	}
	p = exact.Params()
	adaptive := engine.New(g, exact.Tree(), exact.Index(), p, engine.Config{
		Adaptive: engine.Adaptive{Enabled: true, Eps: cfg.Eps, Delta: cfg.Delta, Stages: cfg.Stages}})

	queries := dataset.Queries(g, cfg.NumQueries, graph.NewRand(cfg.Seed^0xcafe))
	m := obs.NewQueryMetrics(obs.NewRegistry())
	res := Result{Dataset: cfg.Dataset, Eps: cfg.Eps, Delta: cfg.Delta}
	variants := []engine.Variant{engine.VariantCODU, engine.VariantCODL}
	for i, q := range queries {
		for vi, variant := range variants {
			seed := graph.ItemSeed(cfg.Seed^0x51ab, i*len(variants)+vi)
			want, err := exact.Execute(ctx, exact.Compile(variant, q.Node, q.Attr), graph.NewRand(seed))
			if err != nil {
				return res, fmt.Errorf("accuracy: exact %v q=%d: %w", variant, q.Node, err)
			}
			tr := obs.NewTrace()
			qctx := obs.WithRecorder(ctx, obs.NewRecorder(m, tr))
			got, err := adaptive.Execute(qctx, adaptive.Compile(variant, q.Node, q.Attr), graph.NewRand(seed))
			if err != nil {
				return res, fmt.Errorf("accuracy: adaptive %v q=%d: %w", variant, q.Node, err)
			}
			res.Compared++
			sampled := false
			for _, st := range tr.Steps() {
				if st.Kind == "sample" {
					sampled = true
					if st.Outcome == "early_stop" {
						res.EarlyStops++
					}
				}
			}
			if !sampled {
				continue
			}
			res.Sampled++
			if communitiesEqual(got, want) {
				continue
			}
			res.Mismatches++
			gap, err := exactMarginAt(ctx, g, exact, p, variant, q, seed, max(got.Level, want.Level))
			if err != nil {
				return res, fmt.Errorf("accuracy: margin replay %v q=%d: %w", variant, q.Node, err)
			}
			if gap > cfg.Eps {
				res.Errors++
			}
		}
	}
	if res.Sampled > 0 {
		res.ErrorRate = float64(res.Errors) / float64(res.Sampled)
	}
	if b := m.AdaptiveSamplesBudget.Value(); b > 0 {
		res.MeanBudget = float64(m.AdaptiveSamplesUsed.Value()) / float64(b)
	}
	return res, nil
}

func communitiesEqual(a, b engine.Community) bool {
	if a.Found != b.Found || a.Level != b.Level || a.FromIndex != b.FromIndex || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// exactMarginAt replays the exact full-budget evaluation of one query and
// returns the normalized margin |σ̂(q) − σ̂(boundary)| / t at the flipped
// level — the width of the gap the adaptive answer got wrong. The replay
// reproduces the engine's chain and draw order from exported pieces, so it
// sees exactly the pool the exact engine evaluated.
func exactMarginAt(ctx context.Context, g *graph.Graph, eng *engine.Engine, p engine.Params, variant engine.Variant, q dataset.Query, seed uint64, level int) (float64, error) {
	var ch *core.Chain
	var rrs []*influence.RRGraph
	rng := graph.NewRand(seed)
	switch variant {
	case engine.VariantCODU:
		ch = core.ChainFromTree(eng.Tree(), q.Node)
		pool, err := influence.BatchIntoCtx(ctx, engine.NewGraphSampler(g, p.Model, rng), p.Theta*g.N(), influence.NewArena())
		if err != nil {
			return 0, err
		}
		rrs = pool
	case engine.VariantCODL:
		rec, err := core.LoreCtx(ctx, g, eng.Tree(), q.Node, q.Attr, p.Beta, p.Linkage)
		if err != nil {
			return 0, err
		}
		ch = core.InnerChain(g, eng.Tree(), rec, q.Node)
		members := rec.Sub.ToParent
		in := make([]bool, g.N())
		for _, v := range members {
			in[v] = true
		}
		member := func(u graph.NodeID) bool { return in[u] }
		s := engine.NewGraphSampler(g, p.Model, rng)
		a := influence.NewArena()
		total := p.Theta * len(members)
		if err := influence.SampleRange(ctx, "accuracy: restricted rr sampling", 0, total, total, 1, func(_, _ int) {
			s.RRGraphWithinInto(a, members[rng.IntN(len(members))], member)
		}); err != nil {
			return 0, err
		}
		rrs = a.Finalize()
	default:
		return 0, fmt.Errorf("accuracy: margin replay for unsupported variant %v", variant)
	}
	se := core.NewStagedEval(ch, p.K, nil)
	if err := se.Fold(ctx, rrs); err != nil {
		return 0, err
	}
	_, margins := se.Sweep(ctx)
	if level < 0 || level >= len(margins) {
		// A found/not-found flip with no common level: score it with the
		// smallest decisive margin, the conservative choice.
		gap := math.Inf(1)
		for _, m := range margins {
			if mh := math.Abs(float64(m.QCount-m.Boundary)) / float64(len(rrs)); mh < gap {
				gap = mh
			}
		}
		if math.IsInf(gap, 1) {
			return 0, nil
		}
		return gap, nil
	}
	m := margins[level]
	return math.Abs(float64(m.QCount-m.Boundary)) / float64(len(rrs)), nil
}
