package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

// series returns n runs around center with a relative half-width.
func series(center, halfWidth float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + halfWidth*(2*float64(i)/float64(n-1)-1))
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	tight := series(100, 0.01, 10)
	cases := []struct {
		name       string
		def        metricDef
		base, next []float64
		want       string
	}{
		{"identical sets", lower, tight, tight, verdictSame},
		{"identical sets, higher is better", higher, tight, tight, verdictSame},
		{"18% slower, tight", lower, tight, series(118, 0.01, 10), verdictWorse},
		{"18% less throughput, tight", higher, tight, series(82, 0.01, 10), verdictWorse},
		{"18% faster, tight", lower, tight, series(82, 0.01, 10), verdictBetter},
		{"within the bound", lower, tight, series(104, 0.01, 10), verdictSame},
		{"overlapping wide spreads", lower, series(100, 0.3, 10), series(118, 0.3, 10), verdictUnresolved},
		{"wide but every new run better", lower, series(100, 0.3, 10), series(40, 0.3, 10), verdictBetter},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.base, c.next); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeRecords(t *testing.T, dir, workload string, values []float64) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		rec := runRecord{Workload: workload, Seed: int64(i + 1), Result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"op_tail_ms": {v, "ms"}},
		}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "*.json")
}

// The comparator reads run records from globs, prints one row per
// workload and metric, and fails on a worse verdict: here a tick tail
// 35% slower than the base, past the committed 25% bound.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	base := writeRecords(t, filepath.Join(dir, "base"), "fleet-drain", series(80, 0.01, 5))
	same := writeRecords(t, filepath.Join(dir, "same"), "fleet-drain", series(80, 0.01, 5))
	slow := writeRecords(t, filepath.Join(dir, "slow"), "fleet-drain", series(108, 0.01, 5))
	for _, c := range []struct {
		against, verdict string
		code             int
	}{{same, verdictSame, 0}, {slow, verdictWorse, 1}} {
		var out, errOut bytes.Buffer
		code := run([]string{"-spec", "../BENCHMARK.json", "-compare", base, "-against", c.against}, &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), "fleet-drain") || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("against %s: exit %d, want %d with a %s row; stdout:\n%s\nstderr: %s",
				c.against, code, c.code, c.verdict, out.String(), errOut.String())
		}
	}
}
