package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// BenchRun is one `go test -bench` result line. With -count=N the same
// benchmark name appears N times, once per run; consumers aggregate as they
// see fit.
type BenchRun struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// GOMAXPROCS suffix, e.g. "BenchmarkFig7Effectiveness/cora-8".
	Name string `json:"name"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit to value: the standard ns/op, B/op, allocs/op plus
	// any custom b.ReportMetric units the benchmark emits.
	Metrics map[string]float64 `json:"metrics"`
}

// BenchReport is the machine-readable envelope written to BENCH_*.json.
type BenchReport struct {
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	Benchmarks []BenchRun `json:"benchmarks"`
}

// parseBenchOutput converts the text output of `go test -bench` into
// structured runs. Non-benchmark lines (goos/goarch/pkg headers, PASS, ok)
// are skipped; a line that starts with "Benchmark" but does not parse is an
// error, and so is input containing no benchmark lines at all — silence is
// the classic failure mode of a bench pipeline and must fail loudly.
func parseBenchOutput(r io.Reader) ([]BenchRun, error) {
	var runs []BenchRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			return nil, fmt.Errorf("line %d: malformed benchmark line %q", lineNo, line)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: iterations %q: %v", lineNo, fields[1], err)
		}
		run := BenchRun{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: value %q for unit %q: %v", lineNo, fields[i], fields[i+1], err)
			}
			run.Metrics[fields[i+1]] = v
		}
		runs = append(runs, run)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark lines in input (did the bench run produce output?)")
	}
	return runs, nil
}

// writeBenchReport parses bench output from r and writes the JSON report to
// path ("-" or "" = stdout).
func writeBenchReport(r io.Reader, path string) error {
	runs, err := parseBenchOutput(r)
	if err != nil {
		return err
	}
	rep := BenchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: runs,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readBenchReport loads and unmarshals a committed BENCH_*.json.
func readBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// Comparison noise floors: -benchtime=1x runs are single iterations, so
// sub-millisecond timings and small allocation counts are dominated by
// scheduler and runtime noise rather than code changes. Pairs below the
// floor are reported as notes, never as regressions.
const (
	compareNsFloor     = 1e6 // 1ms in ns/op
	compareAllocsFloor = 128 // allocs/op
)

// benchDelta is one per-benchmark, per-metric comparison result.
type benchDelta struct {
	name, unit         string
	oldV, newV, change float64 // change is (new-old)/old
	regressed          bool
}

// minByName aggregates -count=N runs to the minimum per benchmark name for
// the given unit — the run least disturbed by noise, the standard statistic
// for threshold comparison. Names without the unit are skipped.
func minByName(runs []BenchRun, unit string) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range runs {
		v, ok := r.Metrics[unit]
		if !ok {
			continue
		}
		if best, ok := out[r.Name]; !ok || v < best {
			out[r.Name] = v
		}
	}
	return out
}

// timingUnit reports whether a metric unit is timing-derived, and so noisy
// across runs: ns/op, B/op, allocs/op, the per-method microsecond units
// ("-us" suffix), and the speedup and CODR/CODL ratios. Every other unit a
// benchmark reports is a deterministic quality metric of the reproduced
// science (CODL-5th, CODL-rho, precision, ...), gated exactly.
func timingUnit(unit string) bool {
	switch unit {
	case "ns/op", "B/op", "allocs/op", "speedup", "CODR/CODL":
		return true
	}
	return strings.HasSuffix(unit, "-us")
}

// qualityValues collects, per benchmark name and quality (non-timing) unit,
// the sorted distinct values across the report's runs.
func qualityValues(runs []BenchRun) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, r := range runs {
		for unit, v := range r.Metrics {
			if timingUnit(unit) {
				continue
			}
			key := [2]string{r.Name, unit}
			if !slices.Contains(out[key], v) {
				out[key] = append(out[key], v)
			}
		}
	}
	for _, vs := range out {
		slices.Sort(vs)
	}
	return out
}

// compareBenchReports diffs newPath against the baseline at oldPath and
// fails with an error when a shared benchmark regressed. ns/op and
// allocs/op aggregate -count runs by minimum and regress when more than
// threshold (0.25 = +25%) above the baseline and its noise floor. Every
// quality unit (see timingUnit) of a shared benchmark must match the
// baseline exactly: the same distinct values across runs, and present in
// the new report whenever the baseline has it. Benchmarks present in only
// one report are printed as notes, not failures — the suite is allowed to
// grow and shrink across PRs; only shared names gate.
func compareBenchReports(w io.Writer, oldPath, newPath string, threshold float64) error {
	oldRep, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	var (
		deltas     []benchDelta
		regressed  int
		onlyOld    []string
		onlyNew    []string
		seenShared = make(map[string]bool)
	)
	for _, unit := range []string{"ns/op", "allocs/op"} {
		floor := compareNsFloor
		if unit == "allocs/op" {
			floor = compareAllocsFloor
		}
		oldMin := minByName(oldRep.Benchmarks, unit)
		newMin := minByName(newRep.Benchmarks, unit)
		for name, ov := range oldMin {
			nv, ok := newMin[name]
			if !ok {
				continue
			}
			seenShared[name] = true
			d := benchDelta{name: name, unit: unit, oldV: ov, newV: nv}
			if ov > 0 {
				d.change = (nv - ov) / ov
			}
			d.regressed = ov >= floor && nv > ov*(1+threshold)
			if d.regressed {
				regressed++
			}
			deltas = append(deltas, d)
		}
	}
	oldQ, newQ := qualityValues(oldRep.Benchmarks), qualityValues(newRep.Benchmarks)
	var quality []string
	for key, ov := range oldQ {
		if !seenShared[key[0]] {
			continue
		}
		nv := newQ[key]
		if slices.Equal(ov, nv) {
			quality = append(quality, fmt.Sprintf("  %-56s %-9s %v  exact", key[0], key[1], ov))
			continue
		}
		regressed++
		quality = append(quality, fmt.Sprintf("  %-56s %-9s %v -> %v  CHANGED", key[0], key[1], ov, nv))
	}
	sort.Strings(quality)
	for name := range minByName(oldRep.Benchmarks, "ns/op") {
		if _, ok := minByName(newRep.Benchmarks, "ns/op")[name]; !ok {
			onlyOld = append(onlyOld, name)
		}
	}
	for name := range minByName(newRep.Benchmarks, "ns/op") {
		if _, ok := minByName(oldRep.Benchmarks, "ns/op")[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].name != deltas[j].name {
			return deltas[i].name < deltas[j].name
		}
		return deltas[i].unit < deltas[j].unit
	})
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	fmt.Fprintf(w, "comparing %s -> %s (threshold +%.0f%%, min of runs)\n",
		oldPath, newPath, threshold*100)
	for _, d := range deltas {
		mark := ""
		if d.regressed {
			mark = "  REGRESSED"
		}
		fmt.Fprintf(w, "  %-56s %-9s %14.0f -> %14.0f  %+7.1f%%%s\n",
			d.name, d.unit, d.oldV, d.newV, d.change*100, mark)
	}
	for _, line := range quality {
		fmt.Fprintln(w, line)
	}
	for _, name := range onlyOld {
		fmt.Fprintf(w, "  note: %s only in baseline %s\n", name, oldPath)
	}
	for _, name := range onlyNew {
		fmt.Fprintf(w, "  note: %s new in %s (no baseline)\n", name, newPath)
	}
	if len(seenShared) == 0 {
		return fmt.Errorf("no shared benchmarks between %s and %s", oldPath, newPath)
	}
	if regressed > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed more than %.0f%% or changed a quality metric vs %s",
			regressed, threshold*100, oldPath)
	}
	return nil
}

// checkBenchReport validates a committed BENCH_*.json: it must unmarshal,
// contain at least one benchmark, and every run must carry a name, positive
// iterations, and at least one finite metric. This is a well-formedness
// gate, not a performance gate — thresholds belong to humans reading trends.
func checkBenchReport(path string) error {
	rp, err := readBenchReport(path)
	if err != nil {
		return err
	}
	rep := *rp
	if rep.GoVersion == "" {
		return fmt.Errorf("%s: missing go_version", path)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	for i, b := range rep.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("%s: benchmark %d has no name", path, i)
		}
		if b.Iterations <= 0 {
			return fmt.Errorf("%s: benchmark %q has non-positive iterations %d", path, b.Name, b.Iterations)
		}
		if len(b.Metrics) == 0 {
			return fmt.Errorf("%s: benchmark %q has no metrics", path, b.Name)
		}
		for unit, v := range b.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%s: benchmark %q metric %q has invalid value %v", path, b.Name, unit, v)
			}
		}
	}
	return nil
}
