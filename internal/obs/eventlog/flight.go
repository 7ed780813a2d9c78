package eventlog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultSlowAfter is the default slow threshold: events at or over it
// enter the flight recorder's slow ring and bypass log sampling.
const DefaultSlowAfter = 250 * time.Millisecond

// IsSlow is the one slow rule shared by the flight recorder's slow ring and
// the log's always-kept tail: an event is slow when it did not complete OK
// or ran for at least slowAfter.
func IsSlow(e *Event, slowAfter time.Duration) bool {
	return e.Outcome != OutcomeOK || e.Dur() >= slowAfter
}

// FlightRecorder retains the events of recently completed queries so an
// operator can ask "what did the last slow query actually do?" without
// reproducing it offline. Two retention classes ride in fixed-size rings:
//
//   - recent: every completed query, newest overwriting oldest — the
//     short-horizon picture of current traffic.
//   - slow: events IsSlow classifies — retained on their own ring so a burst
//     of fast queries cannot flush the interesting ones.
//
// Ring membership is the only slow marking: the recorder never writes to an
// event, because the same pointer is shared with the aggregator and the
// sink's writer goroutine. Memory is bounded by construction: each ring
// holds at most its configured event count, and an overwritten event is
// reclaimed by the garbage collector once the last reader drops it.
// Recording is lock-free (one atomic counter increment plus one atomic
// pointer store per ring) so the serving hot path never queues behind a
// reader; readers take point-in-time snapshots via atomic loads and may
// observe an event at most once shifted during a concurrent wrap, never a
// torn one.
type FlightRecorder struct {
	recent    ring
	slow      ring
	slowAfter time.Duration
}

type ring struct {
	slots []atomic.Pointer[Event]
	pos   atomic.Uint64
}

func (r *ring) record(e *Event) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(e)
}

// snapshot returns the live events newest-first.
func (r *ring) snapshot() []*Event {
	n := len(r.slots)
	out := make([]*Event, 0, n)
	pos := r.pos.Load()
	for k := 0; k < n; k++ {
		// Walk backward from the most recently written slot.
		i := (pos + uint64(n) - 1 - uint64(k)) % uint64(n)
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// NewFlightRecorder returns a recorder retaining the last recentN completed
// queries and, separately, the last slowN slow ones (see IsSlow). slowAfter
// <= 0 means DefaultSlowAfter. Sizes below 1 are raised to 1.
func NewFlightRecorder(recentN, slowN int, slowAfter time.Duration) *FlightRecorder {
	if slowAfter <= 0 {
		slowAfter = DefaultSlowAfter
	}
	return &FlightRecorder{
		recent:    ring{slots: make([]atomic.Pointer[Event], max(recentN, 1))},
		slow:      ring{slots: make([]atomic.Pointer[Event], max(slowN, 1))},
		slowAfter: slowAfter,
	}
}

// SlowAfter returns the slow-classification threshold.
func (f *FlightRecorder) SlowAfter() time.Duration { return f.slowAfter }

// Record files a completed query's event in the recent ring, and also in
// the slow ring when IsSlow classifies it. Nil-safe: a nil recorder drops the
// event after one branch.
func (f *FlightRecorder) Record(e *Event) {
	if f == nil || e == nil {
		return
	}
	f.recent.record(e)
	if IsSlow(e, f.slowAfter) {
		f.slow.record(e)
	}
}

// Recent returns the retained recent events, newest first.
func (f *FlightRecorder) Recent() []*Event { return f.recent.snapshot() }

// Slow returns the retained slow events, newest first.
func (f *FlightRecorder) Slow() []*Event { return f.slow.snapshot() }

// ServeHTTP serves the retained events: JSON by default, the WriteText
// rendering with ?format=text. GET only; other methods get the JSON 405 the
// rest of the serving surface uses.
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMethodNotAllowed)
		fmt.Fprintf(w, "{\"error\":\"method %s not allowed\"}\n", r.Method)
		return
	}
	recent, slow := f.Recent(), f.Slow()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "slow threshold: %s\n\nrecent (%d):\n", f.slowAfter, len(recent))
		for _, e := range recent {
			e.WriteText(w)
		}
		fmt.Fprintf(w, "\nslow (%d):\n", len(slow))
		for _, e := range slow {
			e.WriteText(w)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		SlowAfter string   `json:"slow_after"`
		Recent    []*Event `json:"recent"`
		Slow      []*Event `json:"slow"`
	}{f.slowAfter.String(), recent, slow})
}
