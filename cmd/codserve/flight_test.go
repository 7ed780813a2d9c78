package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// attributedQuery returns the first attributed node and its first attribute
// as URL query values.
func attributedQuery(t *testing.T, g *cod.Graph) (q, attr string) {
	t.Helper()
	for v := cod.NodeID(0); int(v) < g.N(); v++ {
		if as := g.Attrs(v); len(as) > 0 {
			return strconv.Itoa(int(v)), strconv.Itoa(int(as[0]))
		}
	}
	t.Fatal("no attributed node in test graph")
	return "", ""
}

type debugQueriesResponse struct {
	SlowAfter string            `json:"slow_after"`
	Recent    []*eventlog.Event `json:"recent"`
	Slow      []*eventlog.Event `json:"slow"`
}

func TestDebugQueriesRecordsTrace(t *testing.T) {
	srv, g := testServer(t)
	q, attr := attributedQuery(t, g)

	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Recent) == 0 {
		t.Fatal("no recent queries recorded after a served /discover")
	}
	rec := body.Recent[0]
	if rec.Op != "/discover" {
		t.Errorf("most recent record op = %q, want /discover", rec.Op)
	}
	if len(rec.TraceID) != 32 {
		t.Errorf("trace ID %q is not 32 hex chars", rec.TraceID)
	}
	if rec.Status != http.StatusOK {
		t.Errorf("record status = %d, want 200", rec.Status)
	}
	if len(rec.Steps) == 0 {
		t.Fatal("record carries no plan-step spans")
	}
	// Every executed plan step must carry its labels and outcome.
	for i, st := range rec.Steps {
		if st.Variant == "" || st.Kind == "" || st.Outcome == "" {
			t.Errorf("step %d = %+v missing variant/kind/outcome", i, st)
		}
	}
}

func TestDebugQueriesHonorsTraceparent(t *testing.T) {
	srv, g := testServer(t)
	q, attr := attributedQuery(t, g)
	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/discover?q="+q+"&attr="+attr, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+wantID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("discover status %d", resp.StatusCode)
	}

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Recent) == 0 {
		t.Fatal("no recent queries recorded")
	}
	if got := body.Recent[0].TraceID; got != wantID {
		t.Errorf("trace ID = %q, want the propagated traceparent %q", got, wantID)
	}
}

func TestDebugQueriesSlowRetention(t *testing.T) {
	// A 1ns threshold classifies every query slow: the slow ring must retain
	// them alongside the recent ring.
	h, g := testHandler(t, Config{SlowQuery: time.Nanosecond})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	q, attr := attributedQuery(t, g)

	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if body.SlowAfter != time.Nanosecond.String() {
		t.Errorf("slow_after = %q, want 1ns", body.SlowAfter)
	}
	if len(body.Slow) == 0 {
		t.Fatal("1ns-threshold query not retained in the slow ring")
	}
	if body.Slow[0].TraceID == "" {
		t.Error("slow-ring record lost its trace ID")
	}
	if len(body.Recent) == 0 || body.Recent[0].TraceID != body.Slow[0].TraceID {
		t.Error("slow ring and recent ring disagree on the one served query")
	}
}

// TestDebugQueriesRejectedQueryIsSlow locks the one slow rule: a fast 400
// is not OK, so it enters the slow ring, exactly as the event log's
// always-kept tail keeps it.
func TestDebugQueriesRejectedQueryIsSlow(t *testing.T) {
	srv, _ := testServer(t)
	getJSON(t, srv.URL+"/discover?q=abc", http.StatusBadRequest, nil)

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Slow) != 1 || body.Slow[0].Status != http.StatusBadRequest ||
		body.Slow[0].Outcome != eventlog.OutcomeError {
		t.Fatalf("slow ring = %+v, want the one rejected query", body.Slow)
	}
}

// TestDebugQueriesEventMatchesLog locks the single per-query record: with
// the event log on, a served query's /debug/queries entry and its log line
// are the same event — same trace ID, same steps, same nested spans.
func TestDebugQueriesEventMatchesLog(t *testing.T) {
	dir := t.TempDir()
	sink, err := eventlog.Open(eventlog.Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, g := testHandler(t, Config{Events: sink})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	q, attr := attributedQuery(t, g)
	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+url.QueryEscape(attr+" and node="+q), http.StatusOK, &disc)

	var body struct {
		Recent []json.RawMessage `json:"recent"`
	}
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := eventlog.Files(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("log files = %v (%v), want one", files, err)
	}
	line, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(body.Recent) != 1 || strings.Count(string(line), "\n") != 1 {
		t.Fatalf("got %d /debug/queries entries and log %q, want one of each", len(body.Recent), line)
	}
	var fromDebug, fromLog map[string]any
	if err := json.Unmarshal(body.Recent[0], &fromDebug); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &fromLog); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDebug, fromLog) {
		t.Fatalf("/debug/queries entry differs from the log line:\n%s\n%s", body.Recent[0], line)
	}

	var ev eventlog.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatal(err)
	}
	spans := len(ev.Spans)
	for _, st := range ev.Steps {
		spans += len(st.Spans)
	}
	if ev.TraceID == "" || len(ev.Steps) == 0 || spans == 0 {
		t.Errorf("shared event = %+v, want a trace ID, steps and stage spans", ev)
	}
}

// TestDebugQueriesConcurrentWithSink serves queries while other clients
// read /debug/queries, with the event log on: under -race this checks that
// the sink's writer goroutine and the ring readers share each event without
// either writing to it.
func TestDebugQueriesConcurrentWithSink(t *testing.T) {
	dir := t.TempDir()
	sink, err := eventlog.Open(eventlog.Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, g := testHandler(t, Config{Events: sink, SlowQuery: time.Nanosecond})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	q, attr := attributedQuery(t, g)

	const clients, perClient = 3, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				resp, err := http.Get(srv.URL + "/discover?q=" + q + "&attr=" + attr)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(text bool) {
			defer readers.Done()
			path := "/debug/queries"
			if text {
				path += "?format=text"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i == 1)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sink.Stats(); st.Written+st.Dropped != clients*perClient {
		t.Errorf("sink wrote %d and dropped %d events, want %d in total", st.Written, st.Dropped, clients*perClient)
	}
}

func TestDebugQueriesTextFormat(t *testing.T) {
	srv, g := testServer(t)
	q, attr := attributedQuery(t, g)
	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)

	resp, err := http.Get(srv.URL + "/debug/queries?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{"slow threshold:", "/discover", "trace=", "epoch=", "step "} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestDebugQueriesMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/debug/queries", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/queries status %d, want 405", resp.StatusCode)
	}
}

func TestDebugQueriesEmptyIsValidJSON(t *testing.T) {
	srv, _ := testServer(t)
	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Recent) != 0 || len(body.Slow) != 0 {
		t.Errorf("fresh handler reports %d recent / %d slow, want 0/0",
			len(body.Recent), len(body.Slow))
	}
}
