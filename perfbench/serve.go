package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// offeredRate is serve-http's open-loop arrival rate in requests per
// second. With a mean service time near 8 ms it keeps each of the two
// connections about a third busy on a 2-CPU machine: well below saturation,
// so latency measures service and short queues, not overload.
const offeredRate = 80

// server is one codserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	logDir string
	done   chan error
}

// startServer spawns codserve on a loopback port serving the store's
// epochs, with the query-event log on, and waits until /readyz answers 200.
func startServer(ctx context.Context, cfg config, dataset, store, dir string) (*server, error) {
	logDir := filepath.Join(dir, "querylog")
	addrFile := filepath.Join(dir, "addr")
	stderr, err := os.Create(filepath.Join(dir, "codserve.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(cfg.codserve, "-dataset", dataset, "-index-store", store, "-index-watch", "50ms",
		"-query-log", logDir, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting codserve: %w", err)
	}
	srv := &server{cmd: cmd, logDir: logDir, done: make(chan error, 1)}
	go func() { srv.done <- cmd.Wait() }()
	if err := srv.waitReady(ctx, addrFile); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

func (s *server) waitReady(ctx context.Context, addrFile string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("codserve exited before it was ready: %v", err)
		default:
		}
		if s.base == "" {
			if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
				s.base = "http://" + string(addr)
			}
		}
		if s.base != "" {
			if resp, err := http.Get(s.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("codserve did not become ready within 60s")
}

// stop asks codserve to drain (SIGTERM flushes the event log) and waits for
// it to exit, killing it if the drain hangs.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("codserve did not drain within 20s; killed")
	}
}

// metric scrapes one unlabeled sample from /metrics.
func (s *server) metric(name string) (float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// httpSample is one open-loop request; times are offsets from the start of
// the timed phase.
type httpSample struct {
	req             int
	due, sent, done time.Duration
	class           string
	failed          bool
	traced          bool
	epoch           string
	nodesFNV        string // of the listed members, "" when none were listed
	span            int    // client span of a traced request
}

// service is the request's latency as the client sees it: from sending it
// to having read the whole answer.
func (h httpSample) service() time.Duration { return h.done - h.sent }

// queued is the latency from the due time: it adds the wait for a free
// connection, so a stalled sender charges its wait to every request queued
// behind it.
func (h httpSample) queued() time.Duration { return h.done - h.due }

func traceparent(seed uint64, i int) (header, traceID string) {
	traceID = fmt.Sprintf("%016x%016x", seed, uint64(i)+1)
	return "00-" + traceID + "-" + fmt.Sprintf("%016x", uint64(i)+1) + "-01", traceID
}

// openLoop sends reqs on a seeded Poisson schedule over two keep-alive
// connections. At the midpoint it publishes epoch 2 of the same index and
// records when the first answer from the new epoch arrives.
func (b *bench) openLoop(ctx context.Context, srv *server, reqs []request, s *cod.Searcher, store blobstore.Store) ([]httpSample, time.Duration, time.Duration, error) {
	dur := time.Duration(b.cfg.seconds) * time.Second
	sched := poissonSchedule(b.cfg.seed, offeredRate, dur)
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: b.w.clients, MaxIdleConnsPerHost: b.w.clients, DisableCompression: true}}
	defer client.CloseIdleConnections()
	out := make([]httpSample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if wait := time.Until(start.Add(sched[i])); wait > 0 {
					time.Sleep(wait)
				}
				out[i] = b.send(ctx, client, srv, start, i, sched[i], reqs[i%len(reqs)])
			}
		}()
	}
	var publishDone time.Duration
	var publishErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(dur / 2)))
		t0 := time.Now()
		_, publishErr = cod.PublishSnapshot(ctx, store, b.w.dataset, 2, s, blobstore.RetryPolicy{})
		publishDone = time.Since(start)
		b.spans.add(0, "cod.PublishSnapshot", -1, t0, time.Now(), 2)
	}()
	wg.Wait()
	return out, publishDone, time.Since(start), publishErr
}

// send issues one request and checks its answer.
func (b *bench) send(ctx context.Context, client *http.Client, srv *server, start time.Time, i int, due time.Duration, req request) httpSample {
	b.attempt(1)
	smp := httpSample{req: i, due: due, traced: b.traceMode(due), class: classMiss}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.base+"/discover?q="+url.QueryEscape(req.Expr), nil)
	if err != nil {
		smp.failed = true
		b.fail(err)
		return smp
	}
	if smp.traced {
		h, _ := traceparent(b.cfg.seed, i)
		hreq.Header.Set("traceparent", h)
	}
	sent := time.Now()
	smp.sent = sent.Sub(start)
	resp, err := client.Do(hreq)
	if err != nil {
		smp.done = time.Since(start)
		smp.failed = true
		b.fail(fmt.Errorf("request %d: %w", i, err))
		return smp
	}
	dr, err := checkHTTP(req, resp, paperK)
	resp.Body.Close()
	end := time.Now()
	smp.done = end.Sub(start)
	smp.epoch = resp.Header.Get("X-Cod-Epoch")
	if err != nil {
		smp.failed = true
		b.fail(fmt.Errorf("request %d: %w", i, err))
		return smp
	}
	if dr.FromIndex {
		smp.class = classHit
	}
	if dr.Nodes != nil {
		smp.nodesFNV = eventlog.NodesSum(dr.Nodes)
	}
	if smp.traced {
		smp.span = b.spans.add(0, "http.GET /discover", i, sent, end, 0)
	}
	return smp
}

func runServe(ctx context.Context, b *bench) error {
	var (
		servers  []*server
		stores   []blobstore.Store
		publishS []float64
	)
	defer func() {
		for _, srv := range servers {
			srv.stop()
		}
	}()
	s, err := b.setup(ctx, "build + PublishSnapshot + codserve until /readyz 200", func(i int, s *cod.Searcher) error {
		dir := filepath.Join(b.cfg.work, fmt.Sprintf("setup%d", i))
		store, err := blobstore.NewFS(filepath.Join(dir, "store"))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := cod.PublishSnapshot(ctx, store, b.w.dataset, 1, s, blobstore.RetryPolicy{}); err != nil {
			return fmt.Errorf("publishing epoch 1: %w", err)
		}
		t1 := time.Now()
		srv, err := startServer(ctx, b.cfg, b.w.dataset, filepath.Join(dir, "store"), dir)
		if err != nil {
			return err
		}
		b.spans.add(0, "cod.PublishSnapshot", -1, t0, t1, 1)
		b.spans.add(0, "codserve.start_until_ready", -1, t1, time.Now(), 0)
		publishS = append(publishS, t1.Sub(t0).Seconds())
		servers, stores = append(servers, srv), append(stores, store)
		return nil
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// Only the last set-up serves the timed phase.
	for len(servers) > 1 {
		if err := servers[0].stop(); err != nil {
			return fmt.Errorf("stopping codserve: %w", err)
		}
		servers = servers[1:]
	}
	srv, store := servers[0], stores[len(stores)-1]
	if b.cfg.trace {
		b.rep.set("blobstore.publish_s", "s", median(publishS), len(publishS), "cod.PublishSnapshot of epoch 1")
	}

	reqs := b.w.gen(s, b.cfg.seed, numRequests)
	fmt.Printf("requests: %d generated, digest %s; offered %d/s on a Poisson schedule over %d connections\n",
		len(reqs), digest(reqs), offeredRate, b.w.clients)
	samples, publishDone, wall, err := b.openLoop(ctx, srv, reqs, s, store)
	if err != nil {
		return fmt.Errorf("publishing epoch 2: %w", err)
	}
	b.reportHTTP(samples, wall, publishDone)
	if dropped, err := srv.metric("cod_query_events_dropped"); err == nil && b.cfg.trace {
		b.rep.set("eventlog.dropped", "count", dropped, len(samples), "cod_query_events_dropped")
	}
	b.reportRSS(strconv.Itoa(srv.cmd.Process.Pid))
	servers = nil
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping codserve: %w", err)
	}
	if b.cfg.trace {
		if err := b.joinEvents(samples, srv.logDir); err != nil {
			return err
		}
		if err := b.timePersist(ctx, s, reqs, samples); err != nil {
			return err
		}
	}

	// The replay runs on the index as a fresh process would get it: fetched
	// back from the store, verified and loaded.
	t0 := time.Now()
	fetched, _, err := cod.FetchSnapshot(ctx, store, b.w.dataset, b.w.opts, blobstore.RetryPolicy{})
	if err != nil {
		return fmt.Errorf("fetching the published snapshot: %w", err)
	}
	b.spans.add(0, "cod.FetchSnapshot", -1, t0, time.Now(), 0)
	if b.cfg.trace {
		b.rep.set("blobstore.fetch_s", "s", time.Since(t0).Seconds(), 1, "cod.FetchSnapshot of the served epoch")
	}
	fp, err := replayCheck(ctx, fetched, b.cfg.workload, reqs, b.cfg.seed, paperK)
	b.attempt(min(replayPrefix, len(reqs)))
	fmt.Println("replay fingerprint:", fp)
	return err
}

// reportHTTP records the end-to-end metrics of the untraced requests, and
// the swap and load-generator figures of all of them.
//
// The latency metrics are service times, from send to answer. Timed from
// the due time instead, they add the open loop's queue, which multiplies
// any stall: a 300 ms pause of the shared machine delays the two requests
// in flight, but also the two dozen that fall due meanwhile, enough to
// fill the whole p99 tail of a run. The queued p99 and the sender's
// lateness are reported beside them.
func (b *bench) reportHTTP(samples []httpSample, wall, publishDone time.Duration) {
	var lat, late, svc [2][]float64
	byClass := map[string][]float64{}
	var firstNew time.Duration = -1
	var sent, due []time.Duration
	epochs := map[string]int{}
	for _, smp := range samples {
		sent, due = append(sent, smp.sent), append(due, smp.due)
		if smp.failed {
			continue
		}
		mode := 0
		if smp.traced {
			mode = 1
		}
		lat[mode] = append(lat[mode], ms(smp.queued()))
		svc[mode] = append(svc[mode], ms(smp.service()))
		if mode == 0 {
			byClass[smp.class] = append(byClass[smp.class], ms(smp.service()))
		}
		epochs[smp.epoch]++
		if smp.epoch == "2" && smp.done >= publishDone && (firstNew < 0 || smp.done < firstNew) {
			firstNew = smp.done
		}
	}
	// The run publishes epoch 2 once, under load: answers must come from
	// epoch 1 and then epoch 2, and from nothing else.
	if len(epochs) != 2 || epochs["1"] == 0 || epochs["2"] == 0 {
		b.fail(fmt.Errorf("answers came from epochs %v; want one hot swap from 1 to 2", epochs))
	}
	for _, l := range lateness(due, sent) {
		late[0] = append(late[0], ms(l))
	}
	modeTime := b.modeTimes(wall)
	b.rep.set("throughput_qps", "1/s", float64(len(lat[0]))/modeTime[0].Seconds(), len(lat[0]), fmt.Sprintf("completed / phase wall time at %d/s offered", offeredRate))
	for _, c := range []string{classHit, classMiss} {
		if xs := byClass[c]; len(xs) > 0 {
			b.rep.set(c+"_p50_ms", "ms", median(xs), len(xs), "send to answer")
		}
	}
	if xs := byClass[classMiss]; len(xs) > 0 {
		b.rep.set("miss_mean_ms", "ms", mean(xs), len(xs), "send to answer")
	}
	for _, t := range []struct {
		name, from string
		xs         []float64
	}{{"query_p99_ms", "send to answer", svc[0]}, {"queued_p99_ms", "due time to answer", lat[0]}} {
		if p, v, n, ok := tailPercentile(t.xs, 99); n > 0 {
			note := fmt.Sprintf("p%g, %s", p, t.from)
			if !ok || p < 99 {
				note += fmt.Sprintf(" (too few samples for p99 with %d beyond it)", minBeyond)
			}
			b.rep.set(t.name, "ms", v, n, note)
		}
	}
	if _, v, n, _ := tailPercentile(late[0], 99); n > 0 {
		b.rep.set("loadgen.late_p99_ms", "ms", v, n, "send time after due time")
	}
	if !b.cfg.trace {
		return
	}
	b.rep.set("codserve.swaps", "count", float64(len(epochs)-1), len(samples), "X-Cod-Epoch changes seen by the clients")
	if firstNew >= 0 {
		b.rep.set("codserve.swap_ms", "ms", ms(firstNew-publishDone), 1, "publish return to the first epoch-2 answer")
	}
	if len(svc[0]) > 0 && len(svc[1]) > 0 {
		u, t := mean(svc[0]), mean(svc[1])
		b.rep.set("bench.trace_overhead_pct", "%", 100*(t-u)/u, len(svc[0])+len(svc[1]),
			fmt.Sprintf("mean service time untraced %.4f vs traced %.4f ms (open loop: throughput is the offered rate)", u, t))
	}
}

// joinEvents joins the traced requests with codserve's wide events by trace
// ID: the server's own duration and plan steps per request, and a check
// that the logged result fingerprint matches the answer the client got.
func (b *bench) joinEvents(samples []httpSample, logDir string) error {
	byTrace := map[string]*eventlog.Event{}
	if _, err := eventlog.Scan(logDir, func(e *eventlog.Event) error {
		byTrace[e.TraceID] = e
		return nil
	}); err != nil {
		return fmt.Errorf("reading the query-event log: %w", err)
	}
	files, err := eventlog.Files(logDir)
	if err != nil {
		return err
	}
	var bytesTotal int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			bytesTotal += fi.Size()
		}
	}
	b.rep.set("eventlog.bytes_per_query", "B", float64(bytesTotal)/float64(len(samples)), len(samples), "query-log size / requests")

	steps := map[string][]float64{}
	var server, overhead []float64
	var probes, hits, joined int
	for _, smp := range samples {
		if !smp.traced || smp.failed {
			continue
		}
		_, id := traceparent(b.cfg.seed, smp.req)
		ev, ok := byTrace[id]
		if !ok {
			b.fail(fmt.Errorf("request %d: no query event with trace ID %s", smp.req, id))
			continue
		}
		joined++
		if ev.Result != nil && smp.nodesFNV != "" && ev.Result.NodesFNV != smp.nodesFNV {
			b.fail(fmt.Errorf("request %d: event log records members %s, the answer had %s", smp.req, ev.Result.NodesFNV, smp.nodesFNV))
		}
		server = append(server, ms(ev.Dur()))
		overhead = append(overhead, ms(smp.done-smp.sent-ev.Dur()))
		// The event has durations only: the server span is centred in the
		// client span, its steps laid end to end from its start.
		at := (smp.done - smp.sent - ev.Dur()) / 2
		sid := b.spans.child(smp.span, "codserve "+ev.Op, at, ev.Dur(), 0)
		var off time.Duration
		for _, st := range ev.Steps {
			b.spans.child(sid, "engine."+st.Kind, off, time.Duration(st.DurNS), 0)
			off += time.Duration(st.DurNS)
		}
		for _, st := range ev.Steps {
			steps[st.Kind] = append(steps[st.Kind], ms(time.Duration(st.DurNS)))
			if st.Kind == "index_probe" {
				probes++
				if st.Outcome == "hit" {
					hits++
				}
			}
		}
	}
	fmt.Printf("event log: %d traced requests joined by trace ID\n", joined)
	b.rep.set("codserve.server_ms", "ms", median(server), len(server), "wide-event dur, median")
	b.rep.set("codserve.http_overhead_ms", "ms", median(overhead), len(overhead), "client service time minus server dur, median")
	for _, k := range []string{"weight", "index_probe", "chain", "sample", "evaluate"} {
		if xs := steps[k]; len(xs) > 0 {
			b.rep.set("engine."+k+"_ms", "ms", median(xs), len(xs), "wide-event step time, median")
		}
	}
	if probes > 0 {
		b.rep.set("engine.index_hit_ratio", "ratio", float64(hits)/float64(probes), probes, "index_probe outcomes in the wide events")
	}
	return nil
}

// timePersist times the layers a serving index passes through outside the
// request path: SaveIndex and LoadSearcher, and Prepare on the traced
// requests' expressions.
func (b *bench) timePersist(ctx context.Context, s *cod.Searcher, reqs []request, samples []httpSample) error {
	var buf bytes.Buffer
	d, err := b.spans.time("cod.Searcher.SaveIndex", func() error { return s.SaveIndex(&buf) })
	if err != nil {
		return err
	}
	b.rep.set("persist.save_s", "s", d.Seconds(), 1, fmt.Sprintf("SaveIndex, %d bytes", buf.Len()))
	d, err = b.spans.time("cod.LoadSearcher", func() error {
		_, err := cod.LoadSearcher(s.Graph(), bytes.NewReader(buf.Bytes()), b.w.opts)
		return err
	})
	if err != nil {
		return err
	}
	b.rep.set("persist.load_s", "s", d.Seconds(), 1, "LoadSearcher")
	var prep []float64
	for _, smp := range samples {
		if !smp.traced {
			continue
		}
		t0 := time.Now()
		if _, err := s.Prepare(reqs[smp.req%len(reqs)].Expr); err != nil {
			return err
		}
		prep = append(prep, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if len(prep) > 0 {
		b.rep.set("query.prepare_us", "us", median(prep), len(prep), "Searcher.Prepare on the traced requests, in process")
	}
	return ctx.Err()
}
