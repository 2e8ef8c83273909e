package emulator

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/core"
	"sdb/internal/workload"
)

// runBackend steps cfg to completion on the scalar path, or on the
// batch engine when fast is set, in slices of 37 steps.
func runBackend(t *testing.T, cfg Config, fast bool) *Result {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast && !m.EnableBatch(batch.New()) {
		t.Fatal("EnableBatch refused an uninstrumented machine")
	}
	for !m.Done() {
		if _, err := m.StepBatch(37); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomTrace is a reproducible load trace of n samples dt apart.
func randomTrace(name string, n int, dt, maxW float64) *workload.Trace {
	rng := rand.New(rand.NewSource(int64(n)))
	tr := &workload.Trace{Name: name, DT: dt, Load: make([]float64, n)}
	for i := range tr.Load {
		tr.Load[i] = (0.1 + 0.9*rng.Float64()) * maxW
	}
	return tr
}

// TestSeriesColumnsMatchRecording: the time and load columns a Result
// views are what a recording step saw, bit for bit: sample j is step
// k = j*stride at t = float64(k)*dt under load Trace.Load[k], for every
// recorded step and no other. Covered at strides 1, 7 and 60, with a
// partial last stride, with StopWhenDrained, on both backends.
func TestSeriesColumnsMatchRecording(t *testing.T) {
	const dt = 0.37
	cases := []struct {
		name    string
		steps   int
		stride  int
		maxW    float64
		soc     float64
		drained bool
	}{
		{"stride-1", 1200, 1, 4, 0.8, false},
		{"stride-7-partial", 1000, 7, 4, 0.8, false}, // 1000 = 142*7 + 6
		{"stride-60", 1200, 60, 4, 0.8, false},
		{"stride-60-partial", 1231, 60, 4, 0.8, false},
		{"stride-7-drained", 40000, 7, 40, 0.02, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := randomTrace(tc.name, tc.steps, dt, tc.maxW)
			var results [2]*Result
			for i, fast := range []bool{false, true} {
				st := twoCellStack(t, tc.soc, core.Options{})
				res := runBackend(t, Config{
					Controller: st.Controller, Trace: tr, PolicyEveryS: 60,
					RecordEveryS: float64(tc.stride) * dt, StopWhenDrained: tc.drained,
				}, fast)
				results[i] = res
				if tc.drained != (res.Steps < tc.steps) {
					t.Fatalf("fast=%v: ran %d of %d steps, drained case %v", fast, res.Steps, tc.steps, tc.drained)
				}
				// Steps 0..Steps-1 ran; under StopWhenDrained the last
				// one (the drained step) records nothing.
				recorded := res.Steps
				if res.Steps < tc.steps {
					recorded--
				}
				want := (recorded + tc.stride - 1) / tc.stride
				s := res.Series
				if len(s.T) != want || len(s.LoadW) != want || len(s.DeliveredW) != want {
					t.Fatalf("fast=%v: %d/%d/%d samples, want %d", fast, len(s.T), len(s.LoadW), len(s.DeliveredW), want)
				}
				if cap(s.T) != len(s.T) || cap(s.LoadW) != len(s.LoadW) {
					t.Fatalf("fast=%v: columns not capped: cap %d/%d for %d samples", fast, cap(s.T), cap(s.LoadW), want)
				}
				for j := range s.T {
					k := j * tc.stride
					if math.Float64bits(s.T[j]) != math.Float64bits(float64(k)*dt) {
						t.Fatalf("fast=%v: T[%d] = %v, step %d ran at %v", fast, j, s.T[j], k, float64(k)*dt)
					}
					if math.Float64bits(s.LoadW[j]) != math.Float64bits(tr.Load[k]) {
						t.Fatalf("fast=%v: LoadW[%d] = %v, step %d drew %v", fast, j, s.LoadW[j], k, tr.Load[k])
					}
				}
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatal("batch engine diverged from scalar")
			}
		})
	}
}

// TestSeriesColumnsAppendReallocates: the columns are capped views of
// arrays the trace shares with every run over it, so appending to a
// finished Result's T or LoadW must reallocate, leaving the trace and
// another machine's series unchanged.
func TestSeriesColumnsAppendReallocates(t *testing.T) {
	tr := randomTrace("shared", 600, 1, 3)
	load := append([]float64(nil), tr.Load...)
	run := func() *Result {
		st := twoCellStack(t, 0.8, core.Options{})
		res, err := Run(Config{Controller: st.Controller, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	wantT := append([]float64(nil), b.Series.T...)
	ts := append(a.Series.T, -1)
	ls := append(a.Series.LoadW, -1)
	if &ts[0] == &a.Series.T[0] || &ls[0] == &a.Series.LoadW[0] {
		t.Fatal("append to a finished column wrote in place")
	}
	if !reflect.DeepEqual(tr.Load, load) {
		t.Fatal("appending to LoadW changed the trace's load")
	}
	if !reflect.DeepEqual(b.Series.T, wantT) || !reflect.DeepEqual(b.Series.LoadW, load) {
		t.Fatal("appending to one Result's columns changed another's")
	}
	if cols, _ := tr.Columns(1); !reflect.DeepEqual(cols, wantT) {
		t.Fatal("appending to T changed the trace's time column")
	}
}

// TestMachinesShareTraceConcurrently: eight goroutines build and run
// machines on one trace at two strides, so the trace derives its
// columns under contention (run it under -race); every run at a stride
// matches the first.
func TestMachinesShareTraceConcurrently(t *testing.T) {
	tr := randomTrace("concurrent", 900, 1, 3)
	results := make([]*Result, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := NewStack(0.8, core.Options{},
				battery.MustByName("QuickCharge-2000"), battery.MustByName("Standard-2000"))
			if err != nil {
				t.Error(err)
				return
			}
			results[g], err = Run(Config{Controller: st.Controller, Trace: tr, RecordEveryS: float64(1 + 6*(g%2))})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g, res := range results {
		if res == nil {
			t.FailNow()
		}
		if !reflect.DeepEqual(res, results[g%2]) {
			t.Errorf("run %d differs from run %d over the same trace and stride", g, g%2)
		}
	}
	if len(results[0].Series.T) != 900 || len(results[1].Series.T) != 129 {
		t.Errorf("samples: %d at stride 1, %d at stride 7; want 900 and 129",
			len(results[0].Series.T), len(results[1].Series.T))
	}
}

// columnBytes is one 1,200-sample float64 column: 9,600 B, which the
// allocator rounds up to its 9,728 B size class.
const columnBytes = 9728

// TestNewMachineAllocatesFiveColumns pins the per-machine series cost
// of a 1,200-step, two-cell, stride-1 run: NewMachine allocates the
// delivered, circuit-loss, battery-loss and two SoC columns (5 arrays,
// 48 KB), not the time and load columns, which view the trace's
// (7 arrays would be 67.2 KB). Fixed overhead stays under one column.
func TestNewMachineAllocatesFiveColumns(t *testing.T) {
	st := twoCellStack(t, 0.8, core.Options{})
	cfg := Config{Controller: st.Controller, Trace: constantTrace("pin", 2, 1, 1200)}
	cfg.Trace.Columns(1) // the trace's columns are built once, not per machine
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewMachine(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocedBytesPerOp(); got < 5*columnBytes || got >= 6*columnBytes {
		t.Errorf("NewMachine allocates %d B; want 5 columns (%d B) plus under %d B of overhead",
			got, 5*columnBytes, columnBytes)
	}
}

// TestNoSeriesRecordsNothing: RecordEveryS NoSeries keeps every total
// a recording run computes but records no sample, on both backends
// alike, and its machine allocates no column however long the trace.
func TestNoSeriesRecordsNothing(t *testing.T) {
	tr := randomTrace("no-series", 3000, 1, 4)
	build := func(every float64) Config {
		st := twoCellStack(t, 0.8, core.Options{})
		return Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr, PolicyEveryS: 60, RecordEveryS: every}
	}
	want := runBackend(t, build(0), false)
	scalar := runBackend(t, build(NoSeries), false)
	fast := runBackend(t, build(NoSeries), true)
	if !reflect.DeepEqual(scalar, fast) {
		t.Fatal("no-series run differs between backends")
	}
	s := scalar.Series
	if len(s.SoC) != 2 || !sameLengths(s) || len(s.T)+len(s.SoC[0]) != 0 {
		t.Fatalf("no-series run recorded %d samples over %d SoC columns", len(s.T), len(s.SoC))
	}
	scalar.Series, want.Series = nil, nil
	if !reflect.DeepEqual(scalar, want) {
		t.Fatal("no-series run's totals differ from a recording run's")
	}

	cfg := build(NoSeries)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewMachine(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocedBytesPerOp(); got >= columnBytes/4 {
		t.Errorf("no-series NewMachine over 3,000 steps allocates %d B", got)
	}
}

// TestImportRejectsDifferentTrace: a snapshot whose recorded load
// differs from the importing machine's trace in one sample, or whose
// time column is longer than the trace records, is refused with a
// *TraceMismatchError naming the column and sample.
func TestImportRejectsDifferentTrace(t *testing.T) {
	tr := randomTrace("donor", 600, 1, 3)
	st := twoCellStack(t, 0.8, core.Options{})
	donor, err := NewMachine(Config{Controller: st.Controller, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.StepBatch(300); err != nil {
		t.Fatal(err)
	}
	snap := donor.ExportState()

	other := &workload.Trace{Name: "other", DT: 1, Load: append([]float64(nil), tr.Load...)}
	other.Load[123] += 0.25
	fresh := func(tr *workload.Trace, every float64) *Machine {
		st := twoCellStack(t, 0.8, core.Options{})
		m, err := NewMachine(Config{Controller: st.Controller, Trace: tr, RecordEveryS: every})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name   string
		m      *Machine
		column string
		index  int
	}{
		{"one load sample", fresh(other, 0), "LoadW", 123},
		{"cadence", fresh(tr, 2), "T", 1},
		{"no series", fresh(tr, NoSeries), "T", 0},
	}
	for _, tc := range cases {
		var mis *TraceMismatchError
		if err := tc.m.ImportState(snap); !errors.As(err, &mis) || mis.Column != tc.column || mis.Index != tc.index {
			t.Errorf("%s: ImportState = %v, want a mismatch in %s[%d]", tc.name, err, tc.column, tc.index)
		}
	}
	if m := fresh(tr, 0); m.ImportState(snap) != nil {
		t.Fatal("import over the donor's own trace failed")
	}
}

// TestFinishMidTraceSeriesHolds: a Result taken mid-trace keeps the
// series it had: every column as long as the time column, and none of
// them changed by the steps the machine runs afterwards.
func TestFinishMidTraceSeriesHolds(t *testing.T) {
	st := twoCellStack(t, 0.8, core.Options{})
	m, err := NewMachine(Config{Controller: st.Controller, Trace: randomTrace("mid", 600, 1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepBatch(250); err != nil {
		t.Fatal(err)
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series
	held := Series{
		T: slices.Clone(s.T), LoadW: slices.Clone(s.LoadW), DeliveredW: slices.Clone(s.DeliveredW),
		CircuitLossW: slices.Clone(s.CircuitLossW), BatteryLossW: slices.Clone(s.BatteryLossW),
	}
	for _, soc := range s.SoC {
		held.SoC = append(held.SoC, slices.Clone(soc))
	}
	if _, err := m.StepBatch(100); err != nil {
		t.Fatal(err)
	}
	if len(held.T) != 250 || !sameLengths(&held) || !reflect.DeepEqual(*res.Series, held) {
		t.Fatalf("mid-trace series: %d samples, equal lengths %v, unchanged %v",
			len(held.T), sameLengths(&held), reflect.DeepEqual(*res.Series, held))
	}
}
