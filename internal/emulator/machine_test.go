package emulator

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"sdb/internal/core"
	"sdb/internal/firmware"
	"sdb/internal/workload"
)

// TestMachineMatchesRun pins the Machine contract: stepping a Machine
// to completion — at any batch size — produces a Result deeply equal
// to Run over an identical stack and trace. The fleet server's
// determinism rests on this.
func TestMachineMatchesRun(t *testing.T) {
	tr := workload.Constant("2w", 2, 900, 1)
	opts := core.Options{}
	want, err := Run(Config{
		Controller:   twoCellStack(t, 1, opts).Controller,
		Runtime:      nil,
		Trace:        tr,
		PolicyEveryS: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with a runtime too, as the richer baseline.
	stW := twoCellStack(t, 1, opts)
	wantRT, err := Run(Config{Controller: stW.Controller, Runtime: stW.Runtime, Trace: tr, PolicyEveryS: 60})
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 3, 17, 100000} {
		m, err := NewMachine(Config{
			Controller:   twoCellStack(t, 1, opts).Controller,
			Trace:        tr,
			PolicyEveryS: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		for !m.Done() {
			if _, err := m.StepBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d: machine result differs from Run", batch)
		}

		st := twoCellStack(t, 1, opts)
		m, err = NewMachine(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr, PolicyEveryS: 60})
		if err != nil {
			t.Fatal(err)
		}
		for !m.Done() {
			if _, err := m.StepBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		got, err = m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRT) {
			t.Fatalf("batch=%d: machine+runtime result differs from Run", batch)
		}
	}
}

// TestMachineStopWhenDrained: the early-exit path matches Run too,
// including the historical skip of the drained step's sample.
func TestMachineStopWhenDrained(t *testing.T) {
	tr := workload.Constant("heavy", 6, 7200, 1)
	mk := func() Config {
		st := twoCellStack(t, 0.15, core.Options{})
		return Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
			PolicyEveryS: 60, StopWhenDrained: true}
	}
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if want.DrainedAtS < 0 {
		t.Fatal("scenario did not drain; test needs a draining trace")
	}
	m, err := NewMachine(mk())
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !m.Done() {
		ran, err := m.StepBatch(7)
		if err != nil {
			t.Fatal(err)
		}
		steps += ran
	}
	got, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if steps != want.Steps || m.StepsRun() != want.Steps {
		t.Fatalf("machine ran %d steps (StepsRun %d), Run ran %d", steps, m.StepsRun(), want.Steps)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("drained machine result differs from Run")
	}
	// A done machine's Step is a no-op.
	if more, err := m.Step(); more || err != nil {
		t.Fatalf("Step on done machine: more=%v err=%v", more, err)
	}
}

// TestMachineFinishMidTrace: Finish before Done summarizes the steps
// run so far — the fleet uses this to snapshot a live device.
func TestMachineFinishMidTrace(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("2w", 2, 600, 1)
	m, err := NewMachine(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr, PolicyEveryS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepBatch(250); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Fatal("machine done after 250 of 600 steps")
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 250 || res.ElapsedS != 250 {
		t.Fatalf("mid-trace snapshot: steps=%d elapsed=%g", res.Steps, res.ElapsedS)
	}
	if res.FinalMetrics.RBLJoules <= 0 {
		t.Fatal("mid-trace snapshot missing metrics")
	}
}

// TestNewMachineValidation mirrors Run's config checks.
func TestNewMachineValidation(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("c", 1, 10, 1)
	if _, err := NewMachine(Config{Trace: tr}); err == nil {
		t.Error("missing controller accepted")
	}
	if _, err := NewMachine(Config{Controller: st.Controller}); err == nil {
		t.Error("missing trace accepted")
	}
}

// TestNewMachineRefusesBadTrace: a trace is validated once and its
// result shared, so every machine built on a trace with a NaN sample
// or a NaN DT is refused with the same error, also when the machines
// are built concurrently (ci.sh runs this under -race).
func TestNewMachineRefusesBadTrace(t *testing.T) {
	nanLoad := workload.Constant("nan-load", 2, 600, 1)
	nanLoad.Load[300] = math.NaN()
	nanDT := &workload.Trace{Name: "nan-dt", DT: math.NaN(), Load: []float64{1, 2, 3}}
	for _, tr := range []*workload.Trace{nanLoad, nanDT} {
		const workers, each = 4, 8
		ctrls := make([]*firmware.Controller, workers*each)
		for i := range ctrls {
			ctrls[i] = twoCellStack(t, 1, core.Options{}).Controller
		}
		errs := make([]error, len(ctrls))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w * each; j < (w+1)*each; j++ {
					_, errs[j] = NewMachine(Config{Controller: ctrls[j], Trace: tr})
				}
			}(w)
		}
		wg.Wait()
		want := tr.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted the trace", tr.Name)
		}
		for i, err := range errs {
			if err == nil || errors.Unwrap(err) != want || err.Error() != "emulator: "+want.Error() {
				t.Fatalf("%s: machine %d: err %v, want the trace's memoized %v", tr.Name, i, err, want)
			}
		}
	}
}
