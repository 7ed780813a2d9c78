package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs"
)

const (
	// dataSeed fixes the generated dataset: the workload seed varies the
	// requests, never the graph, so every seed measures the same index.
	dataSeed = 42
	// numRequests is the length of the generated request list; a run that
	// gets through it starts over from the top.
	numRequests = 20000
	// chunk is the period at which a traced run alternates between the
	// untraced and the traced pass, so both see the same machine state.
	chunk = 500 * time.Millisecond
	// paperK is the paper's default rank bound k, which Options{} selects.
	paperK = 5
)

// workload is one named traffic mix.
type workload struct {
	dataset string
	opts    cod.Options
	clients int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	gen    func(s *cod.Searcher, seed uint64, n int) []request
	// legacy sends each query through DiscoverCtx(node, attribute) instead
	// of Prepare + DiscoverCtx on its expression.
	legacy bool
	run    func(ctx context.Context, b *bench) error
}

var workloads = map[string]workload{
	"codl-paper": {dataset: "dblp", clients: 1, setups: 3, gen: paperRequests, legacy: true, run: runInproc},
	"dsl-explore": {dataset: "cora", opts: cod.Options{SampleCache: 8, CacheHierarchies: true},
		clients: 2, setups: 3, gen: exploreRequests, run: runInproc},
	// A set-up here takes a tenth of a second and varies most, so it is
	// repeated more often.
	"serve-http": {dataset: "citeseer", clients: 2, setups: 5, gen: serveRequests, run: runServe},
}

// bench is the state of one run.
type bench struct {
	cfg   config
	w     workload
	spans *spanLog
	rep   *report

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (b *bench) fail(err error) {
	b.mu.Lock()
	b.failed++
	b.failures = append(b.failures, err.Error())
	b.mu.Unlock()
}

func (b *bench) attempt(n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

// setup sets the workload up b.w.setups times — generate the dataset, build
// a Searcher, then serve(i, s) when the workload has a serving step — and
// records the median set-up time and offline-layer times. It returns the
// last Searcher.
func (b *bench) setup(ctx context.Context, what string, serve func(i int, s *cod.Searcher) error) (*cod.Searcher, error) {
	var setup, gen, hac, himor []float64
	var s *cod.Searcher
	for i := 0; i < b.w.setups; i++ {
		s = nil
		runtime.GC()
		tr := obs.NewTrace()
		bctx := ctx
		if b.cfg.trace {
			bctx = obs.WithRecorder(ctx, obs.NewRecorder(nil, tr))
		}
		t0 := time.Now()
		g, err := cod.GenerateDataset(b.w.dataset, dataSeed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if s, err = cod.NewSearcherCtx(bctx, g, b.w.opts); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if serve != nil {
			if err := serve(i, s); err != nil {
				return nil, err
			}
		}
		t3 := time.Now()
		root := b.spans.add(0, "setup", -1, t0, t3, 0)
		b.spans.add(root, "cod.GenerateDataset", -1, t0, t1, 0)
		b.spans.add(root, "cod.NewSearcherCtx", -1, t1, t2, 0)
		setup = append(setup, t3.Sub(t0).Seconds())
		gen = append(gen, t1.Sub(t0).Seconds())
		st := offlineStages(tr)
		hac = append(hac, st["hac_merge"].Seconds())
		himor = append(himor, (st["rr_sample"] + st["himor_build"]).Seconds())
	}
	b.rep.set("setup_s", "s", median(setup), len(setup), what+", median of the set-ups")
	b.rep.set("graph.generate_s", "s", median(gen), len(gen), "cod.GenerateDataset "+b.w.dataset)
	if b.cfg.trace {
		b.rep.set("hac.cluster_s", "s", median(hac), len(hac), "hac_merge spans of the offline build")
		b.rep.set("core.himor_build_s", "s", median(himor), len(himor), "rr_sample + himor_build spans of the offline build")
	}
	b.rep.set("core.himor_mb", "MiB", float64(s.IndexBytes())/(1<<20), 1, "Searcher.IndexBytes")
	return s, nil
}

// sample is one timed query.
type sample struct {
	class  string
	lat    time.Duration
	traced bool
	failed bool
	bd     *queryBreakdown
	prep   time.Duration // Prepare, DSL workloads only
}

// loadResult is what a timed phase produced.
type loadResult struct {
	samples []sample
	// modeTime is the wall time spent in each mode (index 1 = traced).
	modeTime [2]time.Duration
	qm       *obs.QueryMetrics
}

// traceMode reports whether a query started at elapsed time el belongs to
// the traced pass: never in an untraced run, every other chunk in a traced
// one.
func (b *bench) traceMode(el time.Duration) bool {
	return b.cfg.trace && (el/chunk)%2 == 1
}

// modeTimes splits a phase of length total into the time each mode owned.
func (b *bench) modeTimes(total time.Duration) [2]time.Duration {
	if !b.cfg.trace {
		return [2]time.Duration{total, 0}
	}
	var out [2]time.Duration
	for t := time.Duration(0); t < total; t += chunk {
		d := min(chunk, total-t)
		if b.traceMode(t) {
			out[1] += d
		} else {
			out[0] += d
		}
	}
	return out
}

// closedLoop runs the workload's clients, each sending its next query as
// soon as the previous one answers, until the phase ends. A traced run's two
// passes take turns on one request sequence, so they send the same mix and
// neither finds the caches warmed by the other's identical queries.
func (b *bench) closedLoop(ctx context.Context, s *cod.Searcher, reqs []request) loadResult {
	dur := time.Duration(b.cfg.seconds) * time.Second
	res := loadResult{qm: obs.NewQueryMetrics(obs.NewRegistry())}
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([][]sample, b.w.clients)
	start := time.Now()
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				el := time.Since(start)
				if el >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				per[c] = append(per[c], b.query(ctx, s, i, reqs[i%len(reqs)], b.traceMode(el), res.qm))
			}
		}()
	}
	wg.Wait()
	res.modeTime = b.modeTimes(time.Since(start))
	for _, p := range per {
		res.samples = append(res.samples, p...)
	}
	return res
}

// query sends one request in process and checks its answer.
func (b *bench) query(ctx context.Context, s *cod.Searcher, i int, req request, traced bool, qm *obs.QueryMetrics) sample {
	b.attempt(1)
	var tr *obs.Trace
	qctx := ctx
	if traced {
		tr = obs.NewTrace()
		qctx = obs.WithRecorder(ctx, obs.NewRecorder(qm, tr))
	}
	var (
		com  cod.Community
		err  error
		prep time.Duration
	)
	start := time.Now()
	facade := start
	name := "cod.Searcher.DiscoverCtx"
	if b.w.legacy {
		com, err = s.DiscoverCtx(qctx, req.Node, req.Attr)
	} else {
		var pq *cod.PreparedQuery
		pq, err = s.Prepare(req.Expr)
		facade = time.Now()
		prep = facade.Sub(start)
		name = "cod.PreparedQuery.DiscoverCtx"
		if err == nil {
			com, err = pq.DiscoverCtx(qctx, req.Node)
		}
	}
	end := time.Now()
	smp := sample{lat: end.Sub(start), traced: traced, prep: prep}
	switch {
	case req.Global:
		smp.class = classGlobal
	case com.FromIndex:
		smp.class = classHit
	default:
		smp.class = classMiss
	}
	if err == nil {
		err = checkAnswer(req, com, paperK)
	}
	if err != nil {
		smp.failed = true
		b.fail(fmt.Errorf("request %d: %w", i, err))
	}
	if traced {
		root := b.spans.add(0, "request", i, start, end, 0)
		if !b.w.legacy {
			b.spans.add(root, "cod.Searcher.Prepare", i, start, facade, 0)
		}
		bd := b.spans.addTrace(root, name, i, facade, end, tr)
		smp.bd = &bd
	}
	return smp
}

func runInproc(ctx context.Context, b *bench) error {
	s, err := b.setup(ctx, "generate + NewSearcherCtx", nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	reqs := b.w.gen(s, b.cfg.seed, numRequests)
	fmt.Printf("requests: %d generated, digest %s\n", len(reqs), digest(reqs))
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS includes the set-ups:", err)
	}
	res := b.closedLoop(ctx, s, reqs)
	b.reportLoad(res)
	if b.cfg.trace {
		b.reportLayers(res)
		b.reportCache(s, res.qm)
	}
	b.reportRSS("self")
	fp, err := replayCheck(ctx, s, b.cfg.workload, reqs, b.cfg.seed, paperK)
	b.attempt(min(replayPrefix, len(reqs)))
	fmt.Println("replay fingerprint:", fp)
	return err
}

// reportLoad records the end-to-end metrics of the untraced samples.
func (b *bench) reportLoad(res loadResult) {
	var lat []float64
	byClass := map[string][]float64{}
	for _, smp := range res.samples {
		if smp.traced || smp.failed {
			continue
		}
		v := ms(smp.lat)
		lat = append(lat, v)
		byClass[smp.class] = append(byClass[smp.class], v)
	}
	b.rep.set("throughput_qps", "1/s", float64(len(lat))/res.modeTime[0].Seconds(), len(lat), "completed queries / phase wall time")
	for _, c := range []string{classHit, classMiss, classGlobal} {
		if xs := byClass[c]; len(xs) > 0 {
			b.rep.set(c+"_p50_ms", "ms", median(xs), len(xs), "")
		}
	}
	if xs := byClass[classMiss]; len(xs) > 0 {
		b.rep.set("miss_mean_ms", "ms", mean(xs), len(xs), "")
	}
	if p, v, n, ok := tailPercentile(lat, 99); n > 0 {
		note := fmt.Sprintf("p%g over all queries", p)
		if !ok || p < 99 {
			note += fmt.Sprintf(" (too few samples for p99 with %d beyond it)", minBeyond)
		}
		b.rep.set("query_p99_ms", "ms", v, n, note)
	}
}

// reportLayers records the per-layer metrics of the traced samples.
func (b *bench) reportLayers(res loadResult) {
	steps := map[string][]float64{}
	stages := map[string][]float64{}
	var items = map[string]int64{}
	var unattr, prep, facade []float64
	var probes, hits, traced int
	var untracedN int
	for _, smp := range res.samples {
		if !smp.traced {
			if !smp.failed {
				untracedN++
			}
			continue
		}
		if smp.bd == nil || smp.failed {
			continue
		}
		traced++
		bd := smp.bd
		for k, d := range bd.steps {
			steps[k] = append(steps[k], ms(d))
		}
		for k, d := range bd.stages {
			stages[k] = append(stages[k], ms(d))
		}
		for k, n := range bd.items {
			items[k] += n
		}
		if o, ok := bd.outcomes["index_probe"]; ok {
			probes++
			if o == "hit" {
				hits++
			}
		}
		unattr = append(unattr, ms(bd.unattributed))
		facade = append(facade, ms(bd.facade))
		if !b.w.legacy {
			prep = append(prep, float64(smp.prep)/float64(time.Microsecond))
		}
	}
	for _, k := range []string{"weight", "index_probe", "chain", "sample", "evaluate", "filter"} {
		if xs := steps[k]; len(xs) > 0 {
			b.rep.set("engine."+k+"_ms", "ms", median(xs), len(xs), "step time, median over the queries that ran it")
		}
	}
	if probes > 0 {
		b.rep.set("engine.index_hit_ratio", "ratio", float64(hits)/float64(probes), probes, "index_probe outcomes")
	}
	for _, k := range []string{"rr_induce", "topk_sweep", "lore_score"} {
		if xs := stages[k]; len(xs) > 0 {
			b.rep.set("core."+k+"_ms", "ms", median(xs), len(xs), "stage span, median per query")
		}
	}
	if traced > 0 {
		b.rep.set("influence.rr_graphs_per_query", "count", float64(items["rr_sample"])/float64(traced), traced, "rr_sample items")
		b.rep.set("hac.merges_per_query", "count", float64(items["hac_merge"])/float64(traced), traced, "hac_merge items")
		b.rep.set("cod.unattributed_ms", "ms", median(unattr), traced,
			fmt.Sprintf("facade time outside every step; mean %.4f of a mean facade call of %.4f ms", mean(unattr), mean(facade)))
	}
	if len(prep) > 0 {
		b.rep.set("query.prepare_us", "us", median(prep), len(prep), "Searcher.Prepare")
	}
	qps := [2]float64{float64(untracedN) / res.modeTime[0].Seconds(), float64(traced) / res.modeTime[1].Seconds()}
	b.rep.set("bench.trace_overhead_pct", "%", 100*(qps[0]-qps[1])/qps[0], traced+untracedN,
		fmt.Sprintf("untraced %.1f vs traced %.1f queries/s", qps[0], qps[1]))
}

// reportCache records the sample-cache counters of the traced queries.
func (b *bench) reportCache(s *cod.Searcher, qm *obs.QueryMetrics) {
	hits, misses := qm.CacheHits.Value(), qm.CacheMisses.Value()
	if hits+misses == 0 {
		return
	}
	b.rep.set("engine.sample_cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses), int(hits+misses), "cod_rr_cache_hits / (hits + misses), traced queries")
	b.rep.set("engine.sample_cache_evictions", "count", float64(qm.CacheEvictions.Value()), int(hits+misses), "cod_rr_cache_evictions, traced queries")
	_, rr := s.Engine().SampleCacheStats()
	b.rep.set("engine.sample_cache_rrgraphs", "count", float64(rr), 1, "resident RR graphs at the end of the run")
}

// reportRSS records the peak resident set of the process serving the
// queries: "self" or a process ID.
func (b *bench) reportRSS(pid string) {
	kb, err := vmHWM(pid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading peak RSS:", err)
		return
	}
	b.rep.set("rss_peak_mb", "MiB", float64(kb)/1024, 1, "VmHWM of the serving process")
}

// resetPeakRSS returns freed memory to the OS and restarts this process's
// peak-RSS counter at its current value, so that rss_peak_mb measures the
// process serving queries, as it does for codserve, not the set-ups before.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// vmHWM reads a process's peak resident set size in KiB.
func vmHWM(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// recordFingerprints prints the replay fingerprint of seeds 0..n-1 as Go map
// entries for fingerprints.go.
func recordFingerprints(ctx context.Context, w workload, n int) error {
	g, err := cod.GenerateDataset(w.dataset, dataSeed)
	if err != nil {
		return err
	}
	s, err := cod.NewSearcherCtx(ctx, g, w.opts)
	if err != nil {
		return err
	}
	for seed := 0; seed < n; seed++ {
		reqs := w.gen(s, uint64(seed), replayPrefix)
		order := make([]int, len(reqs))
		for i := range order {
			order[i] = i
		}
		fps, err := replay(ctx, s, reqs, uint64(seed), paperK, order)
		if err != nil {
			return err
		}
		fmt.Printf("\t\t%d: %q,\n", seed, combine(fps))
	}
	return nil
}
