package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// toyRun is a workload at toy scale: 40 devices, two cheap figures,
// a short window and a 1 ms ledger.
func toyRun(t *testing.T, workload string, trace bool) *runConfig {
	return &runConfig{
		workload:  workload,
		seed:      7,
		seconds:   0.3,
		trace:     trace,
		workDir:   filepath.Join(t.TempDir(), "work"),
		devices:   40,
		figureIDs: []string{"table-1", "figure-1c"},
		benchtime: time.Millisecond,
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := testSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rc := toyRun(t, w.Name, trace)
			if w.Name == "fleet-serve" {
				rc.seconds = 2 // two paced ticks
			}
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			rec, err := measure(spec, rc, tracePath)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Result.Correct || rec.Result.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d problems=%v",
					w.Name, trace, rec.Result.Correct, rec.Result.Attempted, rec.Problems)
			}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			if len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(rec.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := rec.Result.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, got, d.Unit)
				}
			}
			if !trace {
				for _, d := range defs {
					if rec.Result.Metrics[d.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
					}
				}
				continue
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: trace file holds no events (err %v)", w.Name, err)
			}
		}
	}
}

func TestWrongFiguresDigestFailsTheRun(t *testing.T) {
	spec := testSpec(t)
	want, err := parseDigests(committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	rc := toyRun(t, "figures", false)
	rc.digests = map[string]string{"table-1": want["table-1"], "figure-1c": strings.Repeat("0", 64)}
	rec, err := measure(spec, rc, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Correct || rec.Result.Failed == 0 {
		t.Fatalf("wrong digest passed: %+v", rec.Result)
	}
	if !strings.Contains(strings.Join(rec.Problems, "\n"), "figure-1c: table digest") {
		t.Errorf("problems do not name the figure: %v", rec.Problems)
	}
}

// The per-episode counts are functions of the seed: two runs agree.
func TestFleetCountsRepeatPerSeed(t *testing.T) {
	spec := testSpec(t)
	var runs [2]map[string]metric
	for i := range runs {
		rec, err := measure(spec, toyRun(t, "fleet-full", true), filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rec.Result.Metrics
	}
	for _, name := range []string{"fleet.push_frames", "fleet.alert_transitions", "store.pages_written", "snapshot.bytes"} {
		a, b := runs[0][name].Value, runs[1][name].Value
		if a == 0 || a != b {
			t.Errorf("%s: %g then %g, want equal and nonzero", name, a, b)
		}
	}
}

func TestUnknownWorkloadIsAUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-spec", "../BENCHMARK.json", "-workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("printed a result: %q", out.String())
	}
}
