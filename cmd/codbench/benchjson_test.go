package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: github.com/codsearch/cod
cpu: Some CPU
BenchmarkFig7Size/cora-8                 1        12345678 ns/op               42.5 nodes
BenchmarkFig7Size/cora-8                 1        12345999 ns/op               42.5 nodes
BenchmarkFig9Runtime/cora/codl-8         2         6172839 ns/op            1024 B/op         17 allocs/op
PASS
ok      github.com/codsearch/cod        1.234s
`

func TestParseBenchOutput(t *testing.T) {
	runs, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	if runs[0].Name != "BenchmarkFig7Size/cora-8" {
		t.Errorf("run 0 name = %q", runs[0].Name)
	}
	if runs[0].Iterations != 1 {
		t.Errorf("run 0 iterations = %d, want 1", runs[0].Iterations)
	}
	if got := runs[0].Metrics["ns/op"]; got != 12345678 {
		t.Errorf("run 0 ns/op = %v", got)
	}
	if got := runs[0].Metrics["nodes"]; got != 42.5 {
		t.Errorf("run 0 nodes = %v", got)
	}
	if got := runs[2].Metrics["allocs/op"]; got != 17 {
		t.Errorf("run 2 allocs/op = %v", got)
	}
}

func TestParseBenchOutputRejectsEmpty(t *testing.T) {
	for name, input := range map[string]string{
		"empty":       "",
		"no-benches":  "goos: linux\nPASS\nok pkg 0.1s\n",
		"fuzz-header": "fuzz: elapsed 3s\n",
	} {
		if _, err := parseBenchOutput(strings.NewReader(input)); err == nil {
			t.Errorf("%s: want error for input with no benchmark lines", name)
		}
	}
}

func TestParseBenchOutputRejectsMalformed(t *testing.T) {
	for name, line := range map[string]string{
		"odd-fields":     "BenchmarkX-8 1 100 ns/op extra",
		"bad-iterations": "BenchmarkX-8 one 100 ns/op",
		"bad-value":      "BenchmarkX-8 1 fast ns/op",
		"name-only":      "BenchmarkX-8 1",
	} {
		if _, err := parseBenchOutput(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: want parse error for %q", name, line)
		}
	}
}

func TestWriteAndCheckBenchReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeBenchReport(strings.NewReader(sampleBenchOutput), path); err != nil {
		t.Fatal(err)
	}
	if err := checkBenchReport(path); err != nil {
		t.Errorf("round-tripped report failed validation: %v", err)
	}
}

func TestCheckBenchReportRejectsBad(t *testing.T) {
	for name, body := range map[string]string{
		"not-json":        "not json at all",
		"empty-benches":   `{"go_version":"go1.22","goos":"linux","goarch":"amd64","benchmarks":[]}`,
		"no-go-version":   `{"goos":"linux","goarch":"amd64","benchmarks":[{"name":"B","iterations":1,"metrics":{"ns/op":1}}]}`,
		"zero-iterations": `{"go_version":"go1.22","goos":"linux","goarch":"amd64","benchmarks":[{"name":"B","iterations":0,"metrics":{"ns/op":1}}]}`,
		"no-metrics":      `{"go_version":"go1.22","goos":"linux","goarch":"amd64","benchmarks":[{"name":"B","iterations":1,"metrics":{}}]}`,
		"negative-metric": `{"go_version":"go1.22","goos":"linux","goarch":"amd64","benchmarks":[{"name":"B","iterations":1,"metrics":{"ns/op":-5}}]}`,
		"unknown-field":   `{"go_version":"go1.22","goos":"linux","goarch":"amd64","surprise":true,"benchmarks":[{"name":"B","iterations":1,"metrics":{"ns/op":1}}]}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkBenchReport(path); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestCheckCommittedBenchReport(t *testing.T) {
	// Every committed BENCH_*.json must stay parseable by the checker the CI
	// script runs; a stale or hand-mangled file should fail here, not in CI.
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed bench reports")
	}
	for _, path := range paths {
		if err := checkBenchReport(path); err != nil {
			t.Errorf("committed report invalid: %v", err)
		}
	}
}

// writeReport materializes a report with one run per (name, ns/op, allocs/op)
// triple for the comparison tests.
func writeReport(t *testing.T, dir, name string, runs []BenchRun) string {
	t.Helper()
	rep := BenchReport{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", Benchmarks: runs}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run1(name string, ns, allocs float64) BenchRun {
	return BenchRun{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareBenchReportsFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{run1("BenchmarkA-8", 10e6, 1000)})
	newP := writeReport(t, dir, "new.json", []BenchRun{run1("BenchmarkA-8", 15e6, 1000)})
	var buf strings.Builder
	err := compareBenchReports(&buf, oldP, newP, 0.25)
	if err == nil {
		t.Fatalf("+50%% ns/op regression not reported; output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Errorf("comparison output does not mark the regression:\n%s", buf.String())
	}
}

func TestCompareBenchReportsAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{run1("BenchmarkA-8", 10e6, 1000)})
	newP := writeReport(t, dir, "new.json", []BenchRun{run1("BenchmarkA-8", 10e6, 2000)})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err == nil {
		t.Fatalf("+100%% allocs/op regression not reported; output:\n%s", buf.String())
	}
}

func TestCompareBenchReportsPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{run1("BenchmarkA-8", 10e6, 1000)})
	newP := writeReport(t, dir, "new.json", []BenchRun{run1("BenchmarkA-8", 11e6, 1100)})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err != nil {
		t.Fatalf("+10%% within a 25%% threshold failed: %v\n%s", err, buf.String())
	}
}

func TestCompareBenchReportsNoiseFloor(t *testing.T) {
	// Sub-floor values regress hugely in relative terms but are noise at
	// -benchtime=1x; they must not fail the gate.
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{run1("BenchmarkTiny-8", 500, 10)})
	newP := writeReport(t, dir, "new.json", []BenchRun{run1("BenchmarkTiny-8", 5000, 100)})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err != nil {
		t.Fatalf("sub-floor change failed the gate: %v\n%s", err, buf.String())
	}
}

func TestCompareBenchReportsUsesMinOfRuns(t *testing.T) {
	// One noisy slow run out of -count=3 must not fail the gate: the minimum
	// of the new runs is compared against the minimum of the old.
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{
		run1("BenchmarkA-8", 10e6, 1000), run1("BenchmarkA-8", 30e6, 1000),
	})
	newP := writeReport(t, dir, "new.json", []BenchRun{
		run1("BenchmarkA-8", 40e6, 1000), run1("BenchmarkA-8", 10.5e6, 1000),
	})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err != nil {
		t.Fatalf("min-of-runs comparison failed: %v\n%s", err, buf.String())
	}
}

func TestCompareBenchReportsDisjointNamesAreNotes(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{
		run1("BenchmarkShared-8", 10e6, 1000), run1("BenchmarkGone-8", 10e6, 1000),
	})
	newP := writeReport(t, dir, "new.json", []BenchRun{
		run1("BenchmarkShared-8", 10e6, 1000), run1("BenchmarkNew-8", 99e6, 9000),
	})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err != nil {
		t.Fatalf("disjoint benchmark names failed the gate: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "BenchmarkGone-8 only in baseline") {
		t.Errorf("missing note for benchmark dropped from the suite:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkNew-8 new in") {
		t.Errorf("missing note for benchmark added to the suite:\n%s", out)
	}
}

func TestCompareBenchReportsNoSharedNames(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{run1("BenchmarkA-8", 10e6, 1000)})
	newP := writeReport(t, dir, "new.json", []BenchRun{run1("BenchmarkB-8", 10e6, 1000)})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err == nil {
		t.Fatal("comparison with no shared benchmarks must fail rather than silently pass")
	}
}

// fig4Run is one Fig. 4 run: timing units plus the two quality metrics.
func fig4Run(ns, codl5th float64) BenchRun {
	return BenchRun{Name: "BenchmarkFig4FiveDeepest", Iterations: 1, Metrics: map[string]float64{
		"ns/op": ns, "allocs/op": 230661, "B/op": 33357488, "CODL-5th": codl5th, "CODU-5th": 32.5,
	}}
}

func TestCompareBenchReportsQualityMetricExact(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{fig4Run(130e6, 39.8), fig4Run(137e6, 39.8)})

	// Timing noise alone passes, and the quality metrics are listed exact.
	sameP := writeReport(t, dir, "same.json", []BenchRun{fig4Run(128e6, 39.8), fig4Run(140e6, 39.8)})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, sameP, 0.25); err != nil {
		t.Fatalf("unchanged quality metrics failed the gate: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "CODL-5th") || !strings.Contains(buf.String(), "exact") {
		t.Errorf("output does not report the exact quality metrics:\n%s", buf.String())
	}

	// A planted 39.8 -> 39.9 change in one run fails, though no timing moved.
	newP := writeReport(t, dir, "new.json", []BenchRun{fig4Run(130e6, 39.8), fig4Run(137e6, 39.9)})
	buf.Reset()
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err == nil {
		t.Fatalf("CODL-5th 39.8 -> 39.9 not reported; output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "CHANGED") {
		t.Errorf("comparison output does not mark the changed metric:\n%s", buf.String())
	}

	// A quality metric the new report dropped fails too.
	dropped := fig4Run(130e6, 39.8)
	delete(dropped.Metrics, "CODU-5th")
	dropP := writeReport(t, dir, "drop.json", []BenchRun{dropped})
	if err := compareBenchReports(&buf, oldP, dropP, 0.25); err == nil {
		t.Fatal("a dropped quality metric passed the gate")
	}
}

func TestCompareBenchReportsTimingUnitsExempt(t *testing.T) {
	// Timing-derived units vary run to run; only ns/op and allocs/op gate,
	// by threshold, never by equality.
	run := func(us, speedup, ratio float64) BenchRun {
		return BenchRun{Name: "BenchmarkFig9Runtime", Iterations: 1, Metrics: map[string]float64{
			"ns/op": 280e6, "allocs/op": 399342, "B/op": 55011984,
			"CODL-us": us, "CODL--us": us, "speedup": speedup, "CODR/CODL": ratio,
		}}
	}
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []BenchRun{run(9339, 2.3, 2.241)})
	newP := writeReport(t, dir, "new.json", []BenchRun{run(10567, 2.5, 2.391)})
	var buf strings.Builder
	if err := compareBenchReports(&buf, oldP, newP, 0.25); err != nil {
		t.Fatalf("timing-derived units failed the exact gate: %v\n%s", err, buf.String())
	}
}
