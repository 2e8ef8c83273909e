package emulator

import (
	"errors"
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

// TestSeriesColumnsMatchRecording: sample j of a recording at stride s
// is what step k = j*s recorded, for every recorded step and no other,
// so its time float64(k)*dt and load Trace.Load[k] are the trace's: each
// column holds ceil(steps/s) samples, capped, equal to the stride-1
// recording's every s-th sample. Covered at strides 1, 7 and 60, with a
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
			run := func(stride int, fast bool) *Result {
				st := twoCellStack(t, tc.soc, core.Options{})
				return runBackend(t, Config{
					Controller: st.Controller, Trace: tr, PolicyEveryS: 60,
					RecordEveryS: float64(stride) * dt, StopWhenDrained: tc.drained,
				}, fast)
			}
			every := run(1, false).Series
			var results [2]*Result
			for i, fast := range []bool{false, true} {
				res := run(tc.stride, fast)
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
				if s.Len() != want || every.Len() != recorded {
					t.Fatalf("fast=%v: %d samples at stride %d and %d at stride 1, want %d and %d",
						fast, s.Len(), tc.stride, every.Len(), want, recorded)
				}
				if cap(s.DeliveredW) != want || cap(s.SoC[1]) != want {
					t.Fatalf("fast=%v: columns not capped: cap %d/%d for %d samples", fast, cap(s.DeliveredW), cap(s.SoC[1]), want)
				}
				for j := range want {
					k := j * tc.stride
					if s.DeliveredW[j] != every.DeliveredW[k] || s.SoC[0][j] != every.SoC[0][k] {
						t.Fatalf("fast=%v: sample %d is not what step %d recorded", fast, j, k)
					}
				}
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatal("batch engine diverged from scalar")
			}
		})
	}
}

// TestSeriesColumnsAppendReallocates: a Result's columns are capped
// views of the arrays its machine keeps appending to, so appending to a
// mid-trace Result's column must reallocate, leaving the samples the
// machine records afterwards as an untouched twin's.
func TestSeriesColumnsAppendReallocates(t *testing.T) {
	tr := randomTrace("shared", 600, 1, 3)
	run := func(edit func(*Series)) *Result {
		st := twoCellStack(t, 0.8, core.Options{})
		m, err := NewMachine(Config{Controller: st.Controller, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.StepBatch(250); err != nil {
			t.Fatal(err)
		}
		mid, err := m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		edit(mid.Series)
		for !m.Done() {
			if _, err := m.StepBatch(100); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(func(*Series) {})
	got := run(func(s *Series) {
		for _, col := range append([][]float64{s.DeliveredW, s.CircuitLossW, s.BatteryLossW}, s.SoC...) {
			if grown := append(col, -1); &grown[0] == &col[0] {
				t.Fatal("append to a finished column wrote in place")
			}
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appending to a mid-trace Result's columns changed the machine's recording")
	}
}

// TestMachinesShareTraceConcurrently: eight goroutines build, run and
// export machines on one trace at two strides, so the trace hashes
// itself under contention (run it under -race); every run at a stride
// matches the first, and the two strides' states carry different
// hashes.
func TestMachinesShareTraceConcurrently(t *testing.T) {
	tr := randomTrace("concurrent", 900, 1, 3)
	results := make([]*Result, 8)
	hashes := make([]uint64, 8)
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
			m, err := NewMachine(Config{Controller: st.Controller, Trace: tr, RecordEveryS: float64(1 + 6*(g%2))})
			if err == nil {
				_, err = m.StepBatch(tr.Len())
			}
			if err == nil {
				hashes[g] = m.ExportState().TraceHash
				results[g], err = m.Finish()
			}
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
		if !reflect.DeepEqual(res, results[g%2]) || hashes[g] != hashes[g%2] {
			t.Errorf("run %d differs from run %d over the same trace and stride", g, g%2)
		}
	}
	if hashes[0] == hashes[1] {
		t.Error("strides 1 and 7 export the same trace hash")
	}
	if results[0].Series.Len() != 900 || results[1].Series.Len() != 129 {
		t.Errorf("samples: %d at stride 1, %d at stride 7; want 900 and 129",
			results[0].Series.Len(), results[1].Series.Len())
	}
}

// columnBytes is one 1,200-sample float64 column: 9,600 B, which the
// allocator rounds up to its 9,728 B size class.
const columnBytes = 9728

// TestNewMachineAllocatesFiveColumns pins the per-machine series cost
// of a 1,200-step, two-cell, stride-1 run: NewMachine allocates the
// delivered, circuit-loss, battery-loss and two SoC columns (5 arrays,
// 48 KB), not time and load columns, which are the trace's (7 arrays
// would be 67.2 KB). Fixed overhead stays under one column.
func TestNewMachineAllocatesFiveColumns(t *testing.T) {
	st := twoCellStack(t, 0.8, core.Options{})
	cfg := Config{Controller: st.Controller, Trace: constantTrace("pin", 2, 1, 1200)}
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
	if len(s.SoC) != 2 || s.Len() != 0 {
		t.Fatalf("no-series run recorded %d samples over %d SoC columns", s.Len(), len(s.SoC))
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

// TestImportRejectsDifferentTrace: at every recording cadence, a state
// is refused with a *TraceMismatchError when the importing machine's
// trace differs in one load sample (recorded or not), in its supply or
// its DT, or when the machine records at another stride, even one that
// holds as many samples at the state's cursor; so is a state whose
// sample count does not match its cursor. Over the donor's own trace and
// cadence the import resumes the run byte-identically.
func TestImportRejectsDifferentTrace(t *testing.T) {
	tr := randomTrace("donor", 600, 1, 3)
	edited := func(edit func(*workload.Trace)) *workload.Trace {
		other := &workload.Trace{Name: "other", DT: tr.DT, Load: slices.Clone(tr.Load)}
		edit(other)
		return other
	}
	load123 := edited(func(o *workload.Trace) { o.Load[123] += 0.25 })
	supplied := edited(func(o *workload.Trace) { o.External = make([]float64, o.Len()) })
	supply := edited(func(o *workload.Trace) { o.External = make([]float64, o.Len()); o.External[450] = 1 })
	halfDT := edited(func(o *workload.Trace) { o.DT = 0.5 })
	machine := func(tr *workload.Trace, every float64) *Machine {
		st := twoCellStack(t, 0.8, core.Options{})
		m, err := NewMachine(Config{Controller: st.Controller, Trace: tr, RecordEveryS: every})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	finish := func(m *Machine) *Result {
		for !m.Done() {
			if _, err := m.StepBatch(100); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, cadence := range []struct {
		name  string
		every float64
	}{{"every step", 0}, {"stride 60", 60}, {"no series", NoSeries}} {
		donor := machine(tr, cadence.every)
		if _, err := donor.StepBatch(300); err != nil {
			t.Fatal(err)
		}
		snap := donor.ExportState()
		short := snap
		if n := snap.Series.Len(); n > 0 {
			short.Series = &Series{
				DeliveredW: snap.Series.DeliveredW[:n-1], CircuitLossW: snap.Series.CircuitLossW[:n-1],
				BatteryLossW: snap.Series.BatteryLossW[:n-1], SoC: [][]float64{snap.Series.SoC[0][:n-1], snap.Series.SoC[1][:n-1]},
			}
		}
		// At cursor 300, strides 60 and 61 both hold 5 samples.
		other := map[float64]float64{0: 2, 60: 61, NoSeries: 0}[cadence.every]
		cases := []struct {
			name    string
			m       *Machine
			snap    MachineState
			samples bool // refused on its sample count, not its hash
		}{
			{"load sample 123", machine(load123, cadence.every), snap, false},
			{"supply present", machine(supplied, cadence.every), snap, false},
			{"supply sample 450", machine(supply, cadence.every), snap, false},
			{"dt", machine(halfDT, cadence.every), snap, false},
			{"cadence", machine(tr, other), snap, false},
			{"sample count", machine(tr, cadence.every), short, true},
		}
		for _, tc := range cases {
			if tc.samples && snap.Series.Len() == 0 {
				continue // no sample to drop
			}
			var mis *TraceMismatchError
			err := tc.m.ImportState(tc.snap)
			if !errors.As(err, &mis) || (mis.Hash == mis.WantHash) != tc.samples {
				t.Errorf("%s, %s: ImportState = %v, want a trace mismatch", cadence.name, tc.name, err)
			}
		}
		m := machine(tr, cadence.every)
		if err := m.ImportState(snap); err != nil {
			t.Fatalf("%s: import over the donor's own trace: %v", cadence.name, err)
		}
		if got, want := finish(m), finish(donor); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the imported run finished differently from the donor", cadence.name)
		}
	}
}

// TestFinishMidTraceSeriesHolds: a Result taken mid-trace keeps the
// series it had: every column as long as the others, and none of them
// changed by the steps the machine runs afterwards.
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
		DeliveredW: slices.Clone(s.DeliveredW), CircuitLossW: slices.Clone(s.CircuitLossW),
		BatteryLossW: slices.Clone(s.BatteryLossW),
	}
	for _, soc := range s.SoC {
		held.SoC = append(held.SoC, slices.Clone(soc))
	}
	if _, err := m.StepBatch(100); err != nil {
		t.Fatal(err)
	}
	if held.Len() != 250 || !reflect.DeepEqual(*res.Series, held) {
		t.Fatalf("mid-trace series: %d samples, unchanged %v", held.Len(), reflect.DeepEqual(*res.Series, held))
	}
}
