package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/codsearch/cod/internal/obs"
)

// span is one benchmark-side span: a call into a layer, or a step or stage
// record the engine reported for that call. Times are offsets from the start
// of the run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Req    int           `json:"req"` // request index, -1 outside the query load
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Items  int64         `json:"items,omitempty"`
}

// spanLog keeps every span of a run in memory; write dumps them at exit.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID.
func (l *spanLog) add(parent int, name string, req int, start, end time.Time, items int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(l.t0), End: end.Sub(l.t0), Items: items})
	return id
}

// child records a span under parent that starts offset after the parent
// does and lasts d.
func (l *spanLog) child(parent int, name string, offset, d time.Duration, items int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.spans[parent-1]
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: p.Req,
		Start: p.Start + offset, End: p.Start + offset + d, Items: items})
	return id
}

// time runs fn inside a root span named name and returns its duration.
func (l *spanLog) time(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.add(0, name, -1, start, end, 0)
	return end.Sub(start), err
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// queryBreakdown is one traced query split by layer: the facade call, the
// engine's plan steps under it, and the stage spans under each step.
type queryBreakdown struct {
	facade       time.Duration
	steps        map[string]time.Duration // by step kind
	stages       map[string]time.Duration // by stage name
	items        map[string]int64         // by stage name
	outcomes     map[string]string        // step kind -> outcome
	unattributed time.Duration
}

// addTrace files a finished query's engine trace under a facade span, child
// of parent, that ran from start to end. The engine records step and stage durations but
// not their start times; a query's steps run one after another, so they are
// laid end to end from the facade's start, and each step's stage spans end
// to end from the step's start. Durations and nesting are exact; the
// positions inside the facade span are reconstructed.
func (l *spanLog) addTrace(parent int, name string, req int, start, end time.Time, tr *obs.Trace) queryBreakdown {
	b := queryBreakdown{facade: end.Sub(start), steps: map[string]time.Duration{},
		stages: map[string]time.Duration{}, items: map[string]int64{}, outcomes: map[string]string{}}
	fid := l.add(parent, name, req, start, end, 0)
	stageRecs := tr.Spans()
	var stepIvs []interval
	cursor := start
	for _, st := range tr.Steps() {
		sEnd := cursor.Add(st.Duration)
		sid := l.add(fid, "engine."+st.Kind, req, cursor, sEnd, 0)
		stepIvs = append(stepIvs, interval{cursor.Sub(start), sEnd.Sub(start)})
		b.steps[st.Kind] += st.Duration
		b.outcomes[st.Kind] = st.Outcome
		inner := cursor
		for i := st.SpanStart; i < st.SpanEnd && i < len(stageRecs); i++ {
			rec := stageRecs[i]
			name := rec.Stage.String()
			l.add(sid, "stage."+name, req, inner, inner.Add(rec.Duration), rec.Items)
			inner = inner.Add(rec.Duration)
			b.stages[name] += rec.Duration
			b.items[name] += rec.Items
		}
		cursor = sEnd
	}
	b.unattributed = selfTime(interval{0, end.Sub(start)}, stepIvs)
	return b
}

// offlineStages sums an offline build trace's stage spans by stage name.
func offlineStages(tr *obs.Trace) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range tr.Spans() {
		out[s.Stage.String()] += s.Duration
	}
	return out
}

func spansPath(dir, workload string, seed uint64, trace bool) string {
	return fmt.Sprintf("%s/spans-%s-seed%d-trace%t.jsonl", dir, workload, seed, trace)
}
