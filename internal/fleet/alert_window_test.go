package fleet

// The fleet evaluates alert rules through the same ts engine as a
// recorder, so one rule means one thing on both surfaces: these tests
// feed a recorder the exact barrier samples a one-device fleet sees and
// require the same edges, pin `over` windows longer than any fixed
// history, and hold rule names to one folded metric name.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
)

// TestFleetAlertWindowParity: a one-device fleet ticked at a 60-s
// cadence and a recorder sampling the device's barrier signals on the
// same 60-s grid raise identical edges — same time, rule, direction and
// value — for level, rate and delta rules. `delta(steps) >= 120 over
// 90s` is the case the two once read differently: the window holds the
// newest sample at least 90 s old, 120 s back, so the delta is 120.
func TestFleetAlertWindowParity(t *testing.T) {
	const src = `alert mid delta(steps) >= 120 over 90s
alert draining rate(soc) < 0 over 120s
alert lowsoc soc < 0.62 for 60s
alert busy rate(steps) >= 1
`
	rules, err := ts.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 1, Obs: obs.NewRegistry(), Rules: rules})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 600)); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	steps, soc := reg.Gauge("steps"), reg.Gauge("soc")
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Rules: rules})
	for f.Tick(60) > 0 {
		f.regMu.RLock()
		sig := f.lookup(1).sig
		f.regMu.RUnlock()
		steps.Set(sig.v[sigSteps])
		soc.Set(sig.v[sigSoC])
		rec.Sample(sig.t)
	}

	var fleetEdges, recEdges []string
	for _, tr := range f.AlertTransitions() {
		fleetEdges = append(fleetEdges, fmt.Sprintf("t=%g %s firing=%v value=%g",
			tr.TimeS, tr.Rule, tr.To == ts.StateFiring, tr.Value))
	}
	for _, ev := range reg.Tracer().Events() {
		if ev.Scope == "ts" {
			recEdges = append(recEdges, fmt.Sprintf("t=%g %s firing=%v value=%g",
				ev.TimeS, ev.Detail, ev.Kind == "alert.fire", ev.V1))
		}
	}
	fl, rl := strings.Join(fleetEdges, "\n"), strings.Join(recEdges, "\n")
	if !strings.Contains(fl, "t=180 mid firing=true value=120") {
		t.Errorf("delta(steps) >= 120 over 90s did not fire at t=180 on the fleet:\n%s", fl)
	}
	if fl != rl {
		t.Fatalf("fleet and recorder edges differ:\n-- fleet --\n%s\n-- recorder --\n%s", fl, rl)
	}
}

// TestFleetAlertWindowLongerThanHistory: a device ticked one step at a
// time sees a barrier sample every second, so `over 100s` spans 101
// samples. The window must hold them all and read the full 100-step
// delta.
func TestFleetAlertWindowLongerThanHistory(t *testing.T) {
	rules, err := ts.ParseRules("alert long delta(steps) >= 100 over 100s")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 1, Obs: obs.NewRegistry(), Rules: rules})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		f.Tick(1)
	}
	trs := f.AlertTransitions()
	if len(trs) == 0 {
		t.Fatal("delta(steps) >= 100 over 100s never fired at one-step ticks")
	}
	if got := trs[0].String(); got != "t=101.000000 dev=1 rule=long inactive->firing value=100 threshold=100" {
		t.Fatalf("first transition %q", got)
	}
}

// TestFleetAlertNamesFold: the registry gauge and the recorded series
// of a rule use one folded name, so rules whose names fold together
// are rejected, and a rule named with non-identifier characters records
// under its folded name.
func TestFleetAlertNamesFold(t *testing.T) {
	rules, err := ts.ParseRules("alert a-b soc < 2\nalert a_b soc < -1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRules(rules); err == nil {
		t.Fatal("rules a-b and a_b both fold to sdb_fleet_alert_a_b_firing, yet were accepted")
	} else if !strings.Contains(err.Error(), "a_b") {
		t.Fatalf("unhelpful error: %v", err)
	}

	st, err := store.Create(filepath.Join(t.TempDir(), "fold.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	f := New(Config{Shards: 1, Obs: reg, Rules: rules[:1], Record: st})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 600)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.Tick(60)
	}
	if err := f.RecordErr(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sdb_fleet_alert_a_b_firing").Value(); got != 1 {
		t.Fatalf("registry gauge sdb_fleet_alert_a_b_firing = %g, want 1", got)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range st.Series() {
		names = append(names, s.Name)
	}
	list := strings.Join(names, " ")
	if !strings.Contains(list, "sdb_fleet_alert_a_b_firing") || strings.Contains(list, "a-b") {
		t.Fatalf("stored series %v, want sdb_fleet_alert_a_b_firing and no raw rule name", names)
	}
}
