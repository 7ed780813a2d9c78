// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed against the cod facade in process, or against
// the codserve binary over loopback HTTP, checks every answer, and prints
// its metrics: a table, then one JSON line. See README.md.
//
//	bash perfbench/run.sh --workload codl-paper --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// decl is a metric the JSON result line must carry.
type decl struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json: every workload
// reports all of them, with --trace 0 and --trace 1 respectively. The table
// printed above the JSON line also shows the metrics only some workloads
// define (global_p50_ms, error_rate, the codserve and sample-cache layers)
// and the miss median, whose JSON stand-in is the miss mean: miss latencies
// are bimodal (small and large C_ℓ), with the median on the edge between
// the modes, so it jumps by a fifth between seeds while the mean holds.
var (
	endToEnd = []decl{
		{"setup_s", "s"},
		{"throughput_qps", "1/s"},
		{"hit_p50_ms", "ms"},
		{"miss_mean_ms", "ms"},
		{"query_p99_ms", "ms"},
		{"rss_peak_mb", "MiB"},
	}
	perLayer = []decl{
		{"graph.generate_s", "s"},
		{"hac.cluster_s", "s"},
		{"core.himor_build_s", "s"},
		{"core.himor_mb", "MiB"},
		{"engine.weight_ms", "ms"},
		{"engine.index_probe_ms", "ms"},
		{"engine.index_hit_ratio", "ratio"},
		{"engine.chain_ms", "ms"},
		{"engine.sample_ms", "ms"},
		{"engine.evaluate_ms", "ms"},
		{"bench.trace_overhead_pct", "%"},
	}
)

// metric is one measured figure; n is its sample count.
type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// report collects a run's metrics in the order they were measured.
type report struct {
	ms  []metric
	err error // the first invalid metric name
}

func (r *report) set(name, unit string, v float64, n int, note string) {
	if !validMetricName(name) && r.err == nil {
		r.err = fmt.Errorf("invalid metric name %q", name)
	}
	for i := range r.ms {
		if r.ms[i].name == name {
			r.ms[i] = metric{name, unit, v, n, note}
			return
		}
	}
	r.ms = append(r.ms, metric{name, unit, v, n, note})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) print() {
	fmt.Printf("%-34s %14s %-6s %7s  %s\n", "metric", "value", "unit", "n", "note")
	for _, m := range r.ms {
		fmt.Printf("%-34s %14.6g %-6s %7d  %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the JSON line with exactly the declared metrics.
func resultLine(rep *report, decls []decl, attempted, failed int, correct bool) (string, error) {
	if rep.err != nil {
		return "", rep.err
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, d := range decls {
		m, ok := rep.get(d.name)
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
		}
		res.Metrics[d.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root
	codserve string // codserve binary
	work     string // scratch directory for this run
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg   config
		trace int
		rec   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the request list is a function of it alone")
	flag.IntVar(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout under test")
	flag.StringVar(&cfg.codserve, "codserve", "", "codserve binary built from the checkout (serve-http)")
	flag.IntVar(&rec, "record", 0, "print the replay fingerprints of seeds 0..N-1 for the workload instead of benchmarking")
	flag.Parse()
	cfg.trace = trace == 1

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.work = filepath.Join(cfg.root, ".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	if rec > 0 {
		if err := recordFingerprints(context.Background(), w, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	// Every run, the first build aside, must end well inside three minutes;
	// past this budget something hangs, and children die with the process.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	b := &bench{cfg: cfg, w: w, spans: newSpanLog(), rep: &report{}}
	fmt.Printf("perfbench %s seed %d seconds %d trace %d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	runErr := w.run(ctx, b)
	spanFile := spansPath(filepath.Join(cfg.root, ".bench_build", "perfbench"), cfg.workload, cfg.seed, cfg.trace)
	if err := b.spans.write(spanFile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", len(b.spans.spans), spanFile)
	}
	if runErr != nil && b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	for _, e := range b.failures[:min(len(b.failures), 10)] {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", e)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		b.failed++
	}
	b.rep.set("error_rate", "ratio", float64(b.failed)/float64(b.attempted), b.attempted, "failed answer checks, errors, non-200s")
	b.rep.print()
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
	}
	correct := b.failed == 0
	line, err := resultLine(b.rep, decls, b.attempted, b.failed, correct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
