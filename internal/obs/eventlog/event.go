// Package eventlog is the per-query record pipeline: every query the
// serving stack answers is condensed into one canonical wide Event — trace
// ID, epoch, variant, normalized expression and predicate key, per-plan-step
// durations and outcomes with their nested stage spans, adaptive early-stop
// stats, cache disposition, status, duration, and a compact result
// fingerprint. The Event is the only per-query record: the same pointer
// feeds the in-process streaming aggregator behind /debug/querystats and the
// exemplar-carrying /metrics series, the flight rings behind /debug/queries,
// and the durable log, which serializes it as one JSONL line into a
// size-rotated, fsync-on-rotate file. The log survives crashes (a torn final
// line is skipped on replay, nothing before it is lost), and sampling is a
// deterministic function of the trace ID (the kept set replays
// identically). cmd/codlog reads the log offline; codquery -trace renders
// the same record for a one-off query.
package eventlog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"github.com/codsearch/cod/internal/obs"
)

// Event outcome vocabulary: the closed classification every event carries
// and the aggregator groups by.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeCanceled = "canceled"
)

// Span is one stage span inside an Event: the stage, its duration, and the
// items it processed.
type Span struct {
	Stage string `json:"stage"`
	DurNS int64  `json:"dur_ns"`
	Items int64  `json:"items"`
}

// Step is one plan step inside an Event: what ran, what it decided, how
// long it took, and the stage spans recorded while it ran.
type Step struct {
	Variant string `json:"variant"`
	Kind    string `json:"kind"`
	Outcome string `json:"outcome"`
	DurNS   int64  `json:"dur_ns"`
	// Stages and Gap carry a bounded-error adaptive sample step's realized
	// stage count and certified margin; absent for non-staged steps.
	Stages int     `json:"stages,omitempty"`
	Gap    float64 `json:"gap,omitempty"`
	Spans  []Span  `json:"spans,omitempty"`
}

// Adaptive summarizes a query's bounded-error staged evaluation: the stage
// its rank-k decision landed on, the certified normalized gap (the realized
// ε), and whether it stopped before exhausting the budget.
type Adaptive struct {
	Stages    int     `json:"stages"`
	Gap       float64 `json:"gap"`
	EarlyStop bool    `json:"early_stop"`
}

// Result is the compact fingerprint of a discover answer: enough to diff a
// replay without storing the member list. NodesFNV is NodesSum over the
// community's sorted members.
type Result struct {
	Found    bool   `json:"found"`
	Rank     int    `json:"rank,omitempty"`
	Size     int    `json:"size"`
	NodesFNV string `json:"nodes_fnv,omitempty"`
}

// Event is the canonical wide event of one served query — the single record
// the sink persists, the aggregator digests, the flight rings retain, and
// codlog analyzes. One query, one line; every field an after-the-fact
// investigation needs rides in it. An Event is immutable once handed to a
// consumer: the sink marshals it on its own goroutine while readers of the
// flight rings may be encoding the same pointer.
type Event struct {
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
	// Op is the serving route ("/discover", "/batch", ...) or the CLI
	// operation that produced the event.
	Op    string `json:"op"`
	Epoch uint64 `json:"epoch"`
	// Variant is the plan variant that answered ("CODL", ...); Expr the
	// normalized expression for expression-mode queries; Pred the
	// aggregation key of the predicate ("attr:<id>", the 16-hex DNF hash,
	// or "none").
	Variant string `json:"variant,omitempty"`
	Expr    string `json:"expr,omitempty"`
	Pred    string `json:"pred,omitempty"`
	// Node and Attr are the query arguments (-1 when the op has none, e.g.
	// a batch request).
	Node int64 `json:"node"`
	Attr int64 `json:"attr"`
	// Seed is the per-query seed as a decimal string (JSON numbers lose
	// precision above 2^53); it is what makes the event replayable. Empty
	// when the query never drew a seed (rejected input, batch requests).
	Seed    string `json:"seed,omitempty"`
	Status  int    `json:"status,omitempty"`
	Outcome string `json:"outcome"`
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
	// Cache is the sample-cache disposition ("hit", "miss", "" when the
	// query never consulted the cache).
	Cache string `json:"cache,omitempty"`
	Steps []Step `json:"steps,omitempty"`
	// Spans holds the stage spans no plan step claimed (spans recorded
	// outside the step loop).
	Spans    []Span    `json:"spans,omitempty"`
	Adaptive *Adaptive `json:"adaptive,omitempty"`
	Result   *Result   `json:"result,omitempty"`
}

// Dur returns the event's duration.
func (e *Event) Dur() time.Duration { return time.Duration(e.DurNS) }

// PredKey returns the event's predicate aggregation key, never empty:
// "none" stands in for events without one.
func (e *Event) PredKey() string {
	if e.Pred == "" {
		return "none"
	}
	return e.Pred
}

// VariantKey returns the event's variant aggregation key, never empty.
func (e *Event) VariantKey() string {
	if e.Variant == "" {
		return "none"
	}
	return e.Variant
}

// OutcomeForStatus classifies an HTTP status into the event outcome
// vocabulary: 2xx/3xx ok, 503/504 canceled (shutdown and deadline expiry —
// the statuses queryError maps context errors to), everything else error.
func OutcomeForStatus(status int) string {
	switch {
	case status < 400:
		return OutcomeOK
	case status == 503 || status == 504:
		return OutcomeCanceled
	default:
		return OutcomeError
	}
}

// New assembles an Event from a finished query's trace: trace ID, seed,
// plan steps, the adaptive summary (from the staged sample step, when one
// ran), and the cache disposition (from the sample step's outcome). Each
// stage span nests under the first step whose clamped [SpanStart, SpanEnd)
// range covers it; spans no step claims land in the top-level Spans. The
// caller fills the serving-context fields (Epoch, Expr, Pred, Node, Attr,
// Result) it alone knows. tr may be nil.
func New(tr *obs.Trace, op string, start time.Time, d time.Duration, status int) *Event {
	e := &Event{
		Op:      op,
		Time:    start,
		Status:  status,
		Outcome: OutcomeForStatus(status),
		DurNS:   int64(d),
		Node:    -1,
		Attr:    -1,
	}
	if tr == nil {
		return e
	}
	e.TraceID = tr.ID()
	if seed, ok := tr.Seed(); ok {
		e.Seed = strconv.FormatUint(seed, 10)
	}
	spans := tr.Spans()
	used := make([]bool, len(spans))
	steps := tr.Steps()
	if len(steps) > 0 {
		e.Steps = make([]Step, len(steps))
		e.Variant = steps[0].Variant
	}
	for i, st := range steps {
		e.Steps[i] = Step{
			Variant: st.Variant,
			Kind:    st.Kind,
			Outcome: st.Outcome,
			DurNS:   int64(st.Duration),
			Stages:  st.Stages,
			Gap:     st.Gap,
		}
		for j := max(st.SpanStart, 0); j < min(st.SpanEnd, len(spans)); j++ {
			if !used[j] {
				used[j] = true
				e.Steps[i].Spans = append(e.Steps[i].Spans, span(spans[j]))
			}
		}
		switch st.Outcome {
		case "cache_hit":
			e.Cache = "hit"
		case "cache_miss":
			e.Cache = "miss"
		}
		if st.Stages > 0 && e.Adaptive == nil {
			e.Adaptive = &Adaptive{
				Stages:    st.Stages,
				Gap:       st.Gap,
				EarlyStop: st.Outcome == "early_stop",
			}
		}
	}
	for j, sp := range spans {
		if !used[j] {
			e.Spans = append(e.Spans, span(sp))
		}
	}
	return e
}

func span(s obs.SpanRecord) Span {
	return Span{Stage: s.Stage.String(), DurNS: int64(s.Duration), Items: s.Items}
}

// WriteLine renders the event's one-line summary: the form codlog tail
// streams.
func (e *Event) WriteLine(w io.Writer) {
	fmt.Fprintf(w, "%s %s trace=%s epoch=%d variant=%s pred=%s outcome=%s status=%d dur=%s",
		e.Time.Format(time.RFC3339Nano), e.Op, e.TraceID, e.Epoch,
		e.VariantKey(), e.PredKey(), e.Outcome, e.Status, e.Dur())
	if e.Expr != "" {
		fmt.Fprintf(w, " expr=%q", e.Expr)
	}
	if e.Cache != "" {
		fmt.Fprintf(w, " cache=%s", e.Cache)
	}
	if a := e.Adaptive; a != nil {
		fmt.Fprintf(w, " adaptive_stages=%d adaptive_gap=%.4f adaptive_early_stop=%t", a.Stages, a.Gap, a.EarlyStop)
	}
	if res := e.Result; res != nil {
		fmt.Fprintf(w, " found=%t size=%d nodes_fnv=%s", res.Found, res.Size, res.NodesFNV)
	}
	if e.Err != "" {
		fmt.Fprintf(w, " err=%q", e.Err)
	}
	fmt.Fprintln(w)
}

// WriteText renders the event in full: the WriteLine summary, then one
// indented line per plan step with its stage spans nested beneath, then the
// spans no step claimed. /debug/queries?format=text, codlog grep and
// codquery -trace print this form.
func (e *Event) WriteText(w io.Writer) {
	e.WriteLine(w)
	for _, st := range e.Steps {
		fmt.Fprintf(w, "  step %s/%s outcome=%s dur=%s", st.Variant, st.Kind, st.Outcome, time.Duration(st.DurNS))
		if st.Stages > 0 {
			fmt.Fprintf(w, " stages=%d gap=%.4f", st.Stages, st.Gap)
		}
		fmt.Fprintln(w)
		for _, sp := range st.Spans {
			fmt.Fprintf(w, "    span %s dur=%s items=%d\n", sp.Stage, time.Duration(sp.DurNS), sp.Items)
		}
	}
	for _, sp := range e.Spans {
		fmt.Fprintf(w, "  span %s dur=%s items=%d\n", sp.Stage, time.Duration(sp.DurNS), sp.Items)
	}
}

// NodesSum fingerprints a community's member list as the 16-hex FNV-64a of
// the node IDs in slice order (discover answers are sorted ascending, so
// equal communities hash equally). An empty list hashes to the FNV offset
// basis, distinguishing "found an empty set" from "no result recorded".
func NodesSum(nodes []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
