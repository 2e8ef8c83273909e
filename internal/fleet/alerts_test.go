package fleet

// Fleet alert engine tests. The load-bearing property is determinism:
// the same seeded fleet must produce a byte-identical alert transition
// log whatever the shard count, because evaluation runs at the tick
// barrier in sorted device-id order over barrier-time signal samples.
// The rest is plumbing: transitions reach subscribers AND the store,
// rollup gauges track firing counts, and bad rules are rejected early.

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdb/internal/faults"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
)

const alertRulesSrc = `
# Fleet-health rules over the per-device signal namespace.
alert lowsoc soc < 0.62 for 60s
alert draining rate(soc) < 0 over 120s
alert busy delta(steps) >= 64 over 60s
`

func alertRules(t *testing.T) []ts.Rule {
	t.Helper()
	rules, err := ts.ParseRules(alertRulesSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRules(rules); err != nil {
		t.Fatal(err)
	}
	return rules
}

// alertRun builds a fleet over the standard test devices, runs it to
// completion, and returns the transition log.
func alertRun(t *testing.T, shards, nDev int) []pmic.AlertTransition {
	t.Helper()
	f := New(Config{Shards: shards, Batch: 32, Obs: obs.NewRegistry(), Rules: alertRules(t)})
	defer f.Close()
	for id := uint16(1); id <= uint16(nDev); id++ {
		if err := f.Add(id, deviceConfig(t, id, 600)); err != nil {
			t.Fatal(err)
		}
	}
	f.RunToCompletion(64)
	return f.AlertTransitions()
}

// TestFleetAlertDeterminism: the transition log is byte-identical
// across shard counts — the determinism half of the PR's acceptance
// criteria. (The chaos-seeded variant below adds fault churn.)
func TestFleetAlertDeterminism(t *testing.T) {
	a := FormatAlertTransitions(alertRun(t, 1, 24))
	b := FormatAlertTransitions(alertRun(t, 4, 24))
	c := FormatAlertTransitions(alertRun(t, 7, 24))
	if a == "" {
		t.Fatal("no alert transitions at all; rules never engaged")
	}
	if a != b || b != c {
		t.Fatalf("transition logs diverge across shard counts:\n-- 1 shard --\n%s-- 4 shards --\n%s-- 7 shards --\n%s", a, b, c)
	}
	if !strings.Contains(a, "rule=lowsoc pending->firing") {
		t.Fatalf("lowsoc never fired:\n%s", a)
	}
	if !strings.Contains(a, "rule=busy") {
		t.Fatalf("delta() rule never transitioned:\n%s", a)
	}
}

// TestFleetAlertChaosDeterminism repeats the determinism check under
// a seeded fault plan: cell faults fire mid-run (open circuits,
// capacity fade), bending device physics — and the transition log must
// still be byte-identical across shard counts, because evaluation
// order never depends on scheduling.
func TestFleetAlertChaosDeterminism(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (replay: SDB_CHAOS_SEED=%d)", seed, seed)
	run := func(shards int) string {
		rng := rand.New(rand.NewSource(seed))
		f := New(Config{Shards: shards, Batch: 32, Obs: obs.NewRegistry(), Rules: alertRules(t)})
		defer f.Close()
		for id := uint16(1); id <= 16; id++ {
			cfg := deviceConfig(t, id, 600)
			if rng.Intn(3) == 0 {
				cfg.Faults = faults.NewSchedule(
					faults.CellEvent{AtS: 30 + float64(rng.Intn(200)), Cell: 0, Kind: faults.FaultOpenCircuit},
					faults.CellEvent{AtS: 300 + float64(rng.Intn(100)), Cell: 1,
						Kind: faults.FaultCapacityFade, Fraction: 0.3 + 0.4*rng.Float64()},
				)
			}
			if err := f.Add(id, cfg); err != nil {
				t.Fatal(err)
			}
		}
		f.RunToCompletion(64)
		return FormatAlertTransitions(f.AlertTransitions())
	}
	a, b := run(3), run(6)
	if a == "" {
		t.Fatal("chaos run produced no transitions")
	}
	if a != b {
		t.Fatalf("chaos transition logs diverge across shard counts:\n-- 3 shards --\n%s-- 6 shards --\n%s", a, b)
	}
}

// TestFleetAlertsPushedAndRecorded: every transition the engine logs
// reaches (a) alert subscribers as PushAlert frames and (b) the store
// as rollup series — the "transitions land in both pushes and the
// store" acceptance criterion.
func TestFleetAlertsPushedAndRecorded(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "alerts.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f, c := subFleet(t, Config{Shards: 2, Rules: alertRules(t), Record: st}, 600, 1, 2, 3, 4)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigAlerts}); err != nil {
		t.Fatal(err)
	}
	// 60-step ticks keep every barrier (including the 600 s trace end)
	// on one recording grid, so the full-range store query below stays
	// gap-free.
	var got []pmic.AlertTransition
	for f.Tick(60) > 0 {
		for _, p := range readPushes(t, c, 100*time.Millisecond) {
			if p.Kind != pmic.PushAlert {
				t.Fatalf("alert-only sub got kind %d", p.Kind)
			}
			got = append(got, p.Alerts...)
		}
	}
	want := f.AlertTransitions()
	if len(want) == 0 {
		t.Fatal("no transitions; test exercises nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("pushed %d transitions, engine logged %d", len(got), len(want))
	}
	for i, tr := range want {
		p := got[i]
		if p.Device != tr.Device || p.Rule != tr.Rule || p.From != tr.From ||
			p.To != tr.To || p.TimeS != tr.TimeS ||
			math.Float64bits(p.Value) != math.Float64bits(tr.Value) ||
			p.Threshold != tr.Threshold {
			t.Fatalf("pushed transition %d = %+v, engine logged %+v", i, p, tr)
		}
	}

	// Store rollups: per-rule firing gauges on the recording grid plus
	// the cumulative transition counter ending at len(want).
	if err := f.RecordErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	fw, err := st.Query("sdb_fleet_alert_lowsoc_firing", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatalf("rollup series missing: %v", err)
	}
	peak := 0.0
	for _, v := range fw.Values {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Fatal("lowsoc firing gauge never rose in the store")
	}
	tc, err := st.Query("sdb_fleet_alert_transitions", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if last := tc.Values[len(tc.Values)-1]; last != float64(len(want)) {
		t.Fatalf("stored transition counter ends at %g, engine logged %d", last, len(want))
	}
}

// TestFleetAlertRollupGauges: the registry view tracks firing counts
// and skipped (quarantined) devices per barrier.
func TestFleetAlertRollupGauges(t *testing.T) {
	reg := obs.NewRegistry()
	rules, err := ts.ParseRules("alert stepped steps >= 32")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 2, Obs: reg, Rules: rules})
	defer f.Close()
	for id := uint16(1); id <= 4; id++ {
		if err := f.Add(id, deviceConfig(t, id, 600)); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick(32)
	if got := reg.Gauge("sdb_fleet_alert_stepped_firing").Value(); got != 4 {
		t.Fatalf("per-rule firing gauge = %g, want 4", got)
	}
	if got := reg.Gauge("sdb_fleet_alerts_firing").Value(); got != 4 {
		t.Fatalf("total firing gauge = %g, want 4", got)
	}
	// Quarantine one device: it leaves the rollups and is counted
	// skipped instead.
	f.regMu.RLock()
	f.lookup(2).quarantined.Store(true)
	f.regMu.RUnlock()
	f.Tick(32)
	if got := reg.Gauge("sdb_fleet_alert_stepped_firing").Value(); got != 3 {
		t.Fatalf("firing gauge after quarantine = %g, want 3", got)
	}
	if got := reg.Gauge("sdb_fleet_alerts_skipped_devices").Value(); got != 1 {
		t.Fatalf("skipped gauge = %g, want 1", got)
	}
}

// TestFleetReaddStartsFreshAlertState: alert state belongs to a device
// incarnation. A device removed and re-added under its id fires again
// from inactive instead of inheriting the removed device's lifecycle.
func TestFleetReaddStartsFreshAlertState(t *testing.T) {
	rules, err := ts.ParseRules("alert always soc < 2 for 0s")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 2, Obs: obs.NewRegistry(), Rules: rules})
	defer f.Close()
	fires := func() int {
		n := 0
		for _, tr := range f.AlertTransitions() {
			if tr.Device == 5 && tr.From == ts.StateInactive && tr.To == ts.StateFiring {
				n++
			}
		}
		return n
	}
	if err := f.Add(5, deviceConfig(t, 5, 600)); err != nil {
		t.Fatal(err)
	}
	f.Tick(60)
	if n := fires(); n != 1 {
		t.Fatalf("first incarnation logged %d inactive->firing edges, want 1", n)
	}
	if !f.Remove(5) {
		t.Fatal("Remove(5) found no device")
	}
	if err := f.Add(5, deviceConfig(t, 5, 600)); err != nil {
		t.Fatal(err)
	}
	f.Tick(60)
	if n := fires(); n != 2 {
		t.Fatalf("after re-add the log holds %d inactive->firing edges for device 5, want 2:\n%s",
			n, FormatAlertTransitions(f.AlertTransitions()))
	}
}

// TestValidateRules: rules must name fleet device signals; the
// recorder DSL's free-form series names are rejected up front.
func TestValidateRules(t *testing.T) {
	rules, err := ts.ParseRules("alert x sdb_core_health_state >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRules(rules); err == nil {
		t.Fatal("unknown series accepted")
	} else if !strings.Contains(err.Error(), "sdb_core_health_state") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if err := ValidateRules(alertRules(t)); err != nil {
		t.Fatalf("valid rules rejected: %v", err)
	}
}

// TestAlertTransitionString pins the canonical log line format — the
// byte-identity contract depends on it staying stable.
func TestAlertTransitionString(t *testing.T) {
	tr := pmic.AlertTransition{
		TimeS: 120.5, Device: 7, Rule: "lowsoc",
		From: ts.StateInactive, To: ts.StateFiring,
		Value: 0.25, Threshold: 0.62,
	}
	want := "t=120.500000 dev=7 rule=lowsoc inactive->firing value=0.25 threshold=0.62"
	if got := tr.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
