package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// writeEventJSON pretty-prints one event, the raw logged record.
func writeEventJSON(w io.Writer, e *eventlog.Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// replayExpr reconstructs the query expression to re-run for a logged event.
// Events from /discover?expr= carry the normalized expression verbatim;
// events from the legacy knob endpoints carry none, so the expression is
// rebuilt from the logged variant, node, and attribute.
func replayExpr(e *eventlog.Event) (string, error) {
	if e.Expr != "" {
		if strings.Contains(e.Expr, "node=") {
			return e.Expr, nil
		}
		if e.Node < 0 {
			return "", fmt.Errorf("event %s has expression %q but no logged query node", e.TraceID, e.Expr)
		}
		return fmt.Sprintf("%s and node=%d", e.Expr, e.Node), nil
	}
	if e.Node < 0 {
		return "", fmt.Errorf("event %s logs no expression and no query node; nothing to replay", e.TraceID)
	}
	switch e.Variant {
	case "CODU":
		return fmt.Sprintf("node=%d and variant=codu", e.Node), nil
	case "CODR":
		if e.Attr < 0 {
			return "", fmt.Errorf("event %s is CODR but logs no attribute", e.TraceID)
		}
		return fmt.Sprintf("%d and node=%d and variant=codr", e.Attr, e.Node), nil
	case "CODL", "CODL-":
		if e.Attr < 0 {
			return "", fmt.Errorf("event %s is %s but logs no attribute", e.TraceID, e.Variant)
		}
		return fmt.Sprintf("%d and node=%d", e.Attr, e.Node), nil
	}
	return "", fmt.Errorf("event %s: cannot reconstruct a query for variant %q", e.TraceID, e.Variant)
}

// stepSig reduces a step sequence to its replayable signature: the ordered
// (variant, kind, outcome) triples. Durations and stage spans vary run to
// run, and index-swap steps belong to the serving process (an epoch flip
// mid-query), not to the query plan, so all three are excluded from the
// comparison.
func stepSig(steps []eventlog.Step) []string {
	sig := make([]string, 0, len(steps))
	for _, s := range steps {
		if s.Variant == "index_swap" {
			continue
		}
		sig = append(sig, s.Variant+"/"+s.Kind+"="+s.Outcome)
	}
	return sig
}

// runReplay re-executes a logged query against a locally built index and
// diffs the outcome against what was logged. The index build flags must
// match the serving process (same dataset or graph file, -k, -theta, -seed,
// -sample-cache, and adaptive settings), since those shape both the answer
// and the plan; the per-query randomness is replayed exactly from the
// event's logged seed.
func runReplay(ctx context.Context, dir string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codlog replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		graphFile     = fs.String("graph", "", "graph file in cod text format (overrides -dataset)")
		datasetN      = fs.String("dataset", "cora", "built-in dataset name (must match the serving process)")
		k             = fs.Int("k", 5, "required influence rank k (must match)")
		theta         = fs.Int("theta", 10, "RR graphs per node (must match)")
		seed          = fs.Uint64("seed", 42, "index build seed (must match)")
		sampleCache   = fs.Int("sample-cache", 0, "per-attribute RR sample pools (must match)")
		adaptiveEps   = fs.Float64("adaptive-eps", 0.05, "adaptive sampling ε (must match)")
		adaptiveDelta = fs.Float64("adaptive-delta", 0, "adaptive sampling δ; > 0 enables staged evaluation (must match)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: codlog -log DIR replay [build flags] TRACE_ID")
	}
	id := fs.Arg(0)
	matches, err := findEvents(dir, id)
	if err != nil {
		return err
	}
	if len(matches) == 0 {
		return fmt.Errorf("no event with trace ID %s", id)
	}
	if len(matches) > 1 {
		return fmt.Errorf("trace ID prefix %s matches %d events; use the full ID", id, len(matches))
	}
	e := matches[0]

	expr, err := replayExpr(e)
	if err != nil {
		return err
	}
	if e.Seed == "" {
		return fmt.Errorf("event %s logs no per-query seed (pre-pipeline record?); cannot replay deterministically", e.TraceID)
	}
	qseed, err := strconv.ParseUint(e.Seed, 10, 64)
	if err != nil {
		return fmt.Errorf("event %s: bad seed %q: %v", e.TraceID, e.Seed, err)
	}

	g, err := loadGraph(*graphFile, *datasetN, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %s: expr=%q seed=%s\n", e.TraceID, expr, e.Seed)
	buildStart := time.Now()
	s, err := cod.NewSearcherCtx(ctx, g, cod.Options{
		K: *k, Theta: *theta, Seed: *seed,
		SampleCache: *sampleCache, CacheHierarchies: *sampleCache > 0,
		Adaptive: cod.AdaptiveOptions{Enabled: *adaptiveDelta > 0, Eps: *adaptiveEps, Delta: *adaptiveDelta},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "index built: n=%d m=%d (%s)\n", g.N(), g.M(), time.Since(buildStart).Round(time.Millisecond))

	tr := obs.NewTrace()
	qctx := obs.WithRecorder(ctx, obs.NewRecorder(nil, tr))
	com, err := s.ReplaySeededCtx(qctx, expr, qseed)
	if err != nil {
		return fmt.Errorf("replay of %s failed: %w", e.TraceID, err)
	}

	// Diff 1: the community itself, via the same order-sensitive FNV
	// fingerprint the server logged.
	mismatches := 0
	if res := e.Result; res != nil {
		gotSum := eventlog.NodesSum(com.Nodes)
		if gotSum == res.NodesFNV && com.Found == res.Found && com.Rank == res.Rank && len(com.Nodes) == res.Size {
			fmt.Fprintf(out, "result: byte-identical (found=%t rank=%d size=%d nodes_fnv=%s)\n",
				com.Found, com.Rank, len(com.Nodes), gotSum)
		} else {
			mismatches++
			fmt.Fprintf(out, "result: MISMATCH\n")
			fmt.Fprintf(out, "  logged:   found=%t rank=%d size=%d nodes_fnv=%s\n", res.Found, res.Rank, res.Size, res.NodesFNV)
			fmt.Fprintf(out, "  replayed: found=%t rank=%d size=%d nodes_fnv=%s\n", com.Found, com.Rank, len(com.Nodes), gotSum)
		}
	} else {
		fmt.Fprintf(out, "result: event logs no result fingerprint (status %d); replay returned found=%t rank=%d size=%d\n",
			e.Status, com.Found, com.Rank, len(com.Nodes))
	}

	// Diff 2: the plan-step outcomes. Cache steps are compared too: a logged
	// cache_hit replaying as cache_miss (or vice versa) is a real divergence
	// in the serving configuration, worth surfacing.
	logged, replayed := stepSig(e.Steps), stepSig(eventlog.New(tr, "", time.Time{}, 0, 0).Steps)
	if equalStrings(logged, replayed) {
		fmt.Fprintf(out, "plan: %d step(s) match\n", len(replayed))
	} else {
		mismatches++
		fmt.Fprintf(out, "plan: MISMATCH\n  logged:   %s\n  replayed: %s\n",
			strings.Join(logged, " "), strings.Join(replayed, " "))
	}
	if mismatches > 0 {
		return fmt.Errorf("replay of %s diverged (%d mismatch(es))", e.TraceID, mismatches)
	}
	fmt.Fprintln(out, "replay OK")
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// loadGraph mirrors codserve's graph loading so replay rebuilds from the
// same inputs the serving process used.
func loadGraph(graphFile, datasetN string, seed uint64) (*cod.Graph, error) {
	if graphFile == "" {
		return cod.GenerateDataset(datasetN, seed)
	}
	f, err := os.Open(graphFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := cod.LoadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", graphFile, err)
	}
	return g, nil
}
