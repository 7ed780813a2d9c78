package main

import (
	"math"
	"math/rand/v2"
	"regexp"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// Fewer than that and the figure is one or two outliers, not a percentile.
const minBeyond = 10

// tailLadder is the set of percentiles tailPercentile chooses from, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// rankIndex is the 0-based nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps 99.9% of 20000 at 19980 despite rounding in p/100.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// tailPercentile returns the highest percentile of the ladder, capped at
// maxP, that has at least minBeyond samples above its nearest-rank
// position, with its value and the sample count. ok is false when not even
// the median has minBeyond samples beyond it.
func tailPercentile(xs []float64, maxP float64) (p, v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	for _, cand := range tailLadder {
		if cand > maxP {
			continue
		}
		i := rankIndex(cand, n)
		if n-1-i >= minBeyond {
			return cand, s[i], n, true
		}
	}
	return 50, s[rankIndex(50, n)], n, false
}

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// poissonSchedule returns the send offsets of an open-loop load at rate
// requests per second over dur: a Poisson process conditioned on its mean
// count, round(rate·dur) arrivals placed uniformly at random and sorted.
// The offsets come from a stream seeded by seed alone, so one seed always
// gives the same schedule, and every seed offers the same number of
// requests.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(dur)))
	}
	slices.Sort(out)
	return out
}

// lateness returns, per request, how long after its due time it was sent
// (never negative: a sender that is early waits for the due time).
func lateness(due, sent []time.Duration) []time.Duration {
	out := make([]time.Duration, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = d
		}
	}
	return out
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once.
func unionLen(ivs []interval) time.Duration {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range s {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it that the union of its
// children covers; children are clipped to the parent's interval.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return parent.end - parent.start - unionLen(clipped)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validMetricName reports whether name may be used as a metric name.
func validMetricName(name string) bool { return len(name) <= 64 && metricNameRE.MatchString(name) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
