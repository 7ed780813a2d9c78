package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n     int
		maxP  float64
		wantP float64
		wantV float64
		ok    bool
	}{
		{1000, 99, 99, 990, true}, // exactly 10 beyond p99
		{999, 99, 98, 980, true},  // p99 would leave 9 beyond it
		{500, 99, 98, 490, true},  // p99 leaves 5
		{20000, 99.9, 99.9, 19980, true},
		{20000, 99, 99, 19800, true}, // capped
		{15, 99, 50, 8, false},       // not even the median has 10 beyond it
	}
	for _, c := range cases {
		p, v, n, ok := tailPercentile(seq(c.n), c.maxP)
		if p != c.wantP || v != c.wantV || n != c.n || ok != c.ok {
			t.Errorf("n=%d maxP=%g: got p%g=%g n=%d ok=%t, want p%g=%g ok=%t", c.n, c.maxP, p, v, n, ok, c.wantP, c.wantV, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond p%g, want >= %d", c.n, beyond, p, minBeyond)
			}
		}
	}
	if _, _, n, ok := tailPercentile(nil, 99); n != 0 || ok {
		t.Errorf("empty input: n=%d ok=%t", n, ok)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	dur := 30 * time.Second
	a, b := poissonSchedule(7, 120, dur), poissonSchedule(7, 120, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 120, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, at := range a {
		if at < 0 || at >= dur || (i > 0 && at < a[i-1]) {
			t.Fatalf("offset %d = %v is out of order or outside [0, %v)", i, at, dur)
		}
	}
	if len(a) != 120*30 {
		t.Errorf("%d arrivals in 30s at 120/s, want %d", len(a), 120*30)
	}
}

func TestLateness(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	sent := []time.Duration{0, 15 * ms, 19 * ms, 42 * ms}
	want := []time.Duration{0, 5 * ms, 0, 12 * ms}
	if got := lateness(due, sent); !reflect.DeepEqual(got, want) {
		t.Errorf("lateness = %v, want %v", got, want)
	}
}

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlap: [10,40) counts once
		{50, 60},
		{55, 58},  // nested in the previous one
		{90, 120}, // clipped to the parent
		{-5, 2},   // clipped to the parent
	}
	// Covered: [0,2) + [10,40) + [50,60) + [90,100) = 2 + 30 + 10 + 10.
	if got, want := selfTime(parent, children), time.Duration(48); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
	if got := unionLen([]interval{{0, 10}, {10, 20}}); got != 20 {
		t.Errorf("adjacent intervals union = %v, want 20", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "has space", "slash/name", "µs"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.name) {
			t.Errorf("declared metric %q has an invalid name", d.name)
		}
	}
	r := &report{}
	r.set("bad name", "ms", 1, 1, "")
	if _, err := resultLine(r, nil, 1, 0, true); err == nil {
		t.Error("report accepted an invalid metric name")
	}
}

// TestBenchmarkJSONMatches keeps the declared metric lists in step with
// BENCHMARK.json at the repository root.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []decl, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s/%s here, %s/%s in BENCHMARK.json", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}

func coraSearcher(t *testing.T, opts cod.Options) *cod.Searcher {
	t.Helper()
	g, err := cod.GenerateDataset("cora", dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cod.NewSearcherCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRequestsAreSeeded(t *testing.T) {
	s := coraSearcher(t, cod.Options{})
	for name, gen := range map[string]func(*cod.Searcher, uint64, int) []request{
		"paper": paperRequests, "explore": exploreRequests, "serve": serveRequests,
	} {
		a, b := gen(s, 3, 500), gen(s, 3, 500)
		if digest(a) != digest(b) || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different request lists", name)
		}
		if digest(a) == digest(gen(s, 4, 500)) {
			t.Errorf("%s: different seeds gave the same request list", name)
		}
		if !reflect.DeepEqual(gen(s, 3, replayPrefix), a[:replayPrefix]) {
			t.Errorf("%s: a short list is not a prefix of a long one", name)
		}
		for _, q := range a {
			if !strings.Contains(q.Expr, "node=") {
				t.Fatalf("%s: %q has no node= knob", name, q.Expr)
			}
		}
	}
}

func TestCheckAnswerCatchesWrongAnswers(t *testing.T) {
	req := request{Expr: "1 and node=5", Node: 5}
	good := cod.Community{Nodes: []cod.NodeID{2, 5, 9}, Found: true, Rank: 2}
	if err := checkAnswer(req, good, 5); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	bad := map[string]cod.Community{
		"unsorted":     {Nodes: []cod.NodeID{5, 2}, Found: true, Rank: 1},
		"duplicate":    {Nodes: []cod.NodeID{2, 5, 5}, Found: true, Rank: 1},
		"q missing":    {Nodes: []cod.NodeID{2, 9}, Found: true, Rank: 1},
		"rank 0":       {Nodes: []cod.NodeID{5}, Found: true, Rank: 0},
		"rank above k": {Nodes: []cod.NodeID{5}, Found: true, Rank: 6},
		"not found":    {Nodes: []cod.NodeID{5}, Found: false},
	}
	for name, com := range bad {
		if checkAnswer(req, com, 5) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	global := request{Expr: "variant=codu and node=5", Node: 5, Global: true}
	if checkAnswer(global, cod.Community{Nodes: []cod.NodeID{5}, Found: true, Rank: 1, FromIndex: true}, 5) == nil {
		t.Error("a CODU answer from the index was accepted")
	}
}

// TestTraceCoversFacade checks that a traced query's step spans plus the
// unattributed remainder add up to the facade call, and that every span
// hangs under its parent.
func TestTraceCoversFacade(t *testing.T) {
	s := coraSearcher(t, cod.Options{})
	l := newSpanLog()
	for i, req := range paperRequests(s, 1, 20) {
		tr := obs.NewTrace()
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))
		start := time.Now()
		if _, err := s.DiscoverCtx(ctx, req.Node, req.Attr); err != nil {
			t.Fatal(err)
		}
		bd := l.addTrace(0, "facade", i, start, time.Now(), tr)
		var steps time.Duration
		for _, d := range bd.steps {
			steps += d
		}
		if steps+bd.unattributed != bd.facade || bd.unattributed < 0 {
			t.Fatalf("query %d: steps %v + unattributed %v != facade %v", i, steps, bd.unattributed, bd.facade)
		}
	}
	ids := map[int]span{}
	for _, sp := range l.spans {
		ids[sp.ID] = sp
		if sp.Parent == 0 {
			continue
		}
		p, ok := ids[sp.Parent]
		if !ok || p.Req != sp.Req {
			t.Fatalf("span %d (%s) has parent %d outside its request", sp.ID, sp.Name, sp.Parent)
		}
	}
}

func TestReplayFingerprintIsStable(t *testing.T) {
	s := coraSearcher(t, workloads["dsl-explore"].opts)
	reqs := exploreRequests(s, 9, replayPrefix)
	fp, err := replayCheck(context.Background(), s, "dsl-explore", reqs, 9, paperK)
	if err != nil {
		t.Fatal(err)
	}
	fresh := coraSearcher(t, workloads["dsl-explore"].opts)
	if fp2, err := replayCheck(context.Background(), fresh, "dsl-explore", reqs, 9, paperK); err != nil || fp2 != fp {
		t.Fatalf("fingerprint differs on a fresh Searcher: %s vs %s (%v)", fp, fp2, err)
	}
}

// TestCodlCostsMatchEngine guards the stratification key against drift from
// the engine: codlCosts must pick the C_ℓ core.ReclusterScores and
// core.ReclusterScoresPred pick, and predict the index hits the engine
// reports.
func TestCodlCostsMatchEngine(t *testing.T) {
	s := coraSearcher(t, cod.Options{})
	e := s.Engine()
	g := s.Graph()
	check := func(name string, in func(cod.NodeID) bool, mask []bool, expr func(cod.NodeID) string) {
		var nodes []cod.NodeID
		for v := 0; v < g.N(); v++ {
			if in(cod.NodeID(v)) {
				nodes = append(nodes, cod.NodeID(v))
			}
		}
		if len(nodes) == 0 {
			t.Fatalf("%s: no node satisfies the predicate", name)
		}
		for i, key := range codlCosts(s, in, nodes, paperK) {
			q := nodes[i]
			_, best := core.ReclusterScoresPred(e.Graph(), e.Tree(), q, mask)
			if want := bits.Len(uint(core.ChainFromTree(e.Tree(), q).Size(best))); key.sizeLog2 != want {
				t.Fatalf("%s node %d: log2 |C_ℓ| = %d, the engine's scores give %d", name, q, key.sizeLog2, want)
			}
			if i%7 != 0 {
				continue
			}
			pq, err := s.Prepare(expr(q))
			if err != nil {
				t.Fatal(err)
			}
			com, err := pq.DiscoverCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if com.FromIndex != key.hit {
				t.Fatalf("%s node %d: predicted hit %t, engine says %t", name, q, key.hit, com.FromIndex)
			}
		}
	}
	for a := 0; a < g.NumAttrs(); a++ {
		attr := cod.AttrID(a)
		in := func(q cod.NodeID) bool { return g.HasAttr(q, attr) }
		check(fmt.Sprintf("attr %d", a), in, maskOf(g, in), func(q cod.NodeID) string { return fmt.Sprintf("%d and node=%d", attr, q) })
	}
	p := pair{1, 2}
	check("1 and not 2", p.in(g), maskOf(g, p.in(g)), func(q cod.NodeID) string { return fmt.Sprintf("1 and not 2 and node=%d", q) })
}

func maskOf(g *cod.Graph, in func(cod.NodeID) bool) []bool {
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = in(cod.NodeID(v))
	}
	return mask
}
