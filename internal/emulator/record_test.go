package emulator

// Time-series recorder acceptance tests: attaching a recorder must not
// perturb the physics (the recorder is a pure read-side like the rest
// of the obs plane), a recorded day must round-trip through the
// telemetry store bit for bit, and an alert rule on brownout rate must
// fire during a faulty day and stay silent on a clean one.

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdb/internal/faults"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/workload"
)

// TestRecorderOnByteIdentical: two instrumented runs, one with a
// recorder sampling every policy tick and one without, must produce
// bit-identical physics — recording is observation, never actuation.
func TestRecorderOnByteIdentical(t *testing.T) {
	dayS := 24 * 3600.0
	if testing.Short() {
		dayS = 2 * 3600.0
	}
	trace := workload.Square("record-day", 0.15, 0.9, 3600, 0.35, dayS, 1.0)

	run := func(withRecorder bool) (*Result, *ts.Recorder) {
		reg := obs.NewRegistry()
		cfg, _ := obsStack(t, trace, reg)
		var rec *ts.Recorder
		if withRecorder {
			rec = ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 4096})
			cfg.Recorder = rec
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}

	plain, _ := run(false)
	recorded, rec := run(true)

	if plain.DeliveredJ != recorded.DeliveredJ ||
		plain.CircuitLossJ != recorded.CircuitLossJ ||
		plain.BatteryLossJ != recorded.BatteryLossJ ||
		plain.ChargedJ != recorded.ChargedJ {
		t.Errorf("energy totals diverge with recorder on: plain %g/%g/%g/%g, recorded %g/%g/%g/%g",
			plain.DeliveredJ, plain.CircuitLossJ, plain.BatteryLossJ, plain.ChargedJ,
			recorded.DeliveredJ, recorded.CircuitLossJ, recorded.BatteryLossJ, recorded.ChargedJ)
	}
	if plain.BrownoutSteps != recorded.BrownoutSteps || plain.DrainedAtS != recorded.DrainedAtS {
		t.Errorf("brownout accounting diverges: plain %d/%g, recorded %d/%g",
			plain.BrownoutSteps, plain.DrainedAtS, recorded.BrownoutSteps, recorded.DrainedAtS)
	}
	if !reflect.DeepEqual(plain.Series, recorded.Series) {
		t.Error("emulator series diverge between recorder-off and recorder-on runs")
	}
	if !reflect.DeepEqual(plain.FinalMetrics, recorded.FinalMetrics) {
		t.Errorf("final metrics diverge: %+v vs %+v", plain.FinalMetrics, recorded.FinalMetrics)
	}

	// The recorder actually recorded: the final scrape landed at run
	// end, and the step-counter series agrees with the run's own count.
	lastT, ok := rec.LastT()
	if !ok || lastT != recorded.ElapsedS {
		t.Errorf("last sample at %g (ok=%v), want %g", lastT, ok, recorded.ElapsedS)
	}
	w, ok := rec.Get("sdb_pmic_steps_total")
	if !ok || len(w.Values) < 11 {
		t.Fatalf("step counter series: ok=%v, %d samples", ok, len(w.Values))
	}
	if v := w.Values[len(w.Values)-1]; v != float64(recorded.Steps) {
		t.Errorf("recorded step total %g, emulator reports %d", v, recorded.Steps)
	}
	// One firmware step per simulated second, so the steady rate over
	// the last 600 s (ten 60-s samples) is 1.
	if rate := (w.Values[len(w.Values)-1] - w.Values[len(w.Values)-11]) / 600; rate != 1.0 {
		t.Errorf("step rate %g, want exactly 1/s", rate)
	}
}

// TestRecordDayRoundTripFile: a day recorded into the paged telemetry
// store reads back from the reopened file bit for bit — every ring
// window, with its kind, step and first sample time.
func TestRecordDayRoundTripFile(t *testing.T) {
	dayS := 24 * 3600.0
	if testing.Short() {
		dayS = 2 * 3600.0
	}
	trace := workload.Square("roundtrip-day", 0.15, 0.9, 3600, 0.35, dayS, 1.0)
	reg := obs.NewRegistry()
	cfg, _ := obsStack(t, trace, reg)
	path := filepath.Join(t.TempDir(), "day.sdbstor")
	st, err := store.Create(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 4096, Sink: st})
	cfg.Recorder = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := rec.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	windows := rec.Windows()
	if len(windows) == 0 {
		t.Fatal("nothing recorded over a full day")
	}
	got, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if n := len(got.Series()); n != len(windows) {
		t.Fatalf("store holds %d series, recorder %d", n, len(windows))
	}
	for _, w := range windows {
		if w.Total != uint64(len(w.Values)) {
			t.Fatalf("ring %s evicted samples; grow Retain", w.Name)
		}
		q, err := got.Query(w.Name, math.Inf(-1), math.Inf(1))
		if err != nil {
			t.Fatalf("Query(%s): %v", w.Name, err)
		}
		if q.Kind != w.Kind || q.StepS != w.StepS || q.FirstT != w.FirstT || len(q.Values) != len(w.Values) {
			t.Fatalf("%s: stored %v/%g/%g/%d, recorded %v/%g/%g/%d", w.Name,
				q.Kind, q.StepS, q.FirstT, len(q.Values), w.Kind, w.StepS, w.FirstT, len(w.Values))
		}
		for i, v := range w.Values {
			if math.Float64bits(q.Values[i]) != math.Float64bits(v) {
				t.Fatalf("%s sample %d: stored %g, recorded %g", w.Name, i, q.Values[i], v)
			}
		}
	}
	if w, ok := rec.Get("sdb_emulator_step_seconds_count"); !ok || len(w.Values) == 0 || !(w.Values[len(w.Values)-1] > 0) {
		t.Errorf("step timing count series %+v (ok=%v), want a newest value > 0", w, ok)
	}
}

// brownoutRules is the alert rule the faulty-day test watches: any
// sustained brownout activity over two policy ticks.
const brownoutRules = "alert brownout rate(sdb_pmic_brownout_steps_total) > 0 for 2m\n"

// recordedDay runs a day with the brownout alert armed, optionally
// injecting an open-circuit window on both cells mid-day, and returns
// the run result, the recorder, and the registry.
func recordedDay(t *testing.T, faulty bool) (*Result, *ts.Recorder, *obs.Registry) {
	t.Helper()
	dayS := 6 * 3600.0
	if testing.Short() {
		dayS = 2 * 3600.0
	}
	trace := workload.Square("alert-day", 0.15, 0.9, 3600, 0.35, dayS, 1.0)
	reg := obs.NewRegistry()
	cfg, _ := obsStack(t, trace, reg)
	rules, err := ts.ParseRules(brownoutRules)
	if err != nil {
		t.Fatal(err)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 4096, Rules: rules})
	cfg.Recorder = rec
	if faulty {
		// Both cells open for 20 minutes late in the day: the pack
		// cannot serve the load at all, so every step in the window is
		// a brownout. The window is fixed-length, not a day fraction,
		// so the policy ladder (which also fails while no cell is
		// routable) descends into SafeMode but stays short of the
		// 25-tick Failed threshold on every day length; and it sits
		// near the end so the per-tick policy audit records that follow
		// it cannot evict the alert transitions out of the bounded log.
		closeAt := dayS - 600
		openAt := closeAt - 1200
		cfg.Faults = faults.NewSchedule(
			faults.CellEvent{AtS: openAt, Cell: 0, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: openAt, Cell: 1, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: closeAt, Cell: 0, Kind: faults.FaultCloseCircuit},
			faults.CellEvent{AtS: closeAt, Cell: 1, Kind: faults.FaultCloseCircuit},
		)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec, reg
}

// TestBrownoutAlertFiresOnFaultyDay: the rule transitions to firing
// while the fault window starves the load, resolves once the cells
// heal, and leaves fire/resolve evidence in the trace and audit log.
func TestBrownoutAlertFiresOnFaultyDay(t *testing.T) {
	res, rec, reg := recordedDay(t, true)

	if res.BrownoutSteps == 0 {
		t.Fatal("fault window produced no brownouts; the alert has nothing to detect")
	}
	states := rec.AlertStates()
	if len(states) != 1 {
		t.Fatalf("got %d alert states, want 1", len(states))
	}
	st := states[0]
	if st.Rule.Name != "brownout" {
		t.Errorf("rule name %q, want brownout", st.Rule.Name)
	}
	if st.Fired < 1 {
		t.Errorf("alert fired %d times over the fault window, want >= 1", st.Fired)
	}
	if st.State != ts.StateInactive {
		t.Errorf("alert still %v at run end; the healed pack should have resolved it", st.State)
	}

	fires, resolves := 0, 0
	for _, ev := range reg.Tracer().Events() {
		if ev.Scope != "ts" {
			continue
		}
		switch ev.Kind {
		case "alert.fire":
			fires++
		case "alert.resolve":
			resolves++
		}
	}
	if fires < 1 || resolves < 1 {
		t.Errorf("trace shows %d fires / %d resolves, want at least one of each", fires, resolves)
	}

	audited := 0
	for _, r := range reg.Audit().Records() {
		if strings.Contains(r.Note, "brownout") &&
			(strings.Contains(r.Note, "fired") || strings.Contains(r.Note, "resolved")) {
			audited++
		}
	}
	if audited < 2 {
		t.Errorf("audit log holds %d alert transition records, want >= 2", audited)
	}
}

// TestBrownoutAlertSilentOnCleanDay: the same rule over an identical
// but fault-free day never leaves inactive.
func TestBrownoutAlertSilentOnCleanDay(t *testing.T) {
	res, rec, reg := recordedDay(t, false)

	if res.BrownoutSteps != 0 {
		t.Fatalf("%d brownouts on the clean day; the workload is supposed to be comfortable", res.BrownoutSteps)
	}
	states := rec.AlertStates()
	if len(states) != 1 {
		t.Fatalf("got %d alert states, want 1", len(states))
	}
	st := states[0]
	if st.Fired != 0 || st.State != ts.StateInactive {
		t.Errorf("clean day alert state %v with %d fires, want inactive and 0", st.State, st.Fired)
	}
	for _, ev := range reg.Tracer().Events() {
		if ev.Scope == "ts" {
			t.Errorf("clean day emitted alert trace event %+v", ev)
		}
	}
}
