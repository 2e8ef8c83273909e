package fleet

// Coverage for the quieter corners of the live-telemetry plane: glob
// matching and glob-filtered metric streams, device-scoped alert
// delivery, queue-overflow drop accounting on the chunked push paths,
// recording failure latching (device series and alert rollups), and
// the small registry accessors.

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
)

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"soc", "soc", true},
		{"soc", "soh", false},
		{"soc", "socket", false},
		{"*", "anything", true},
		{"*", "", true},
		{"fleet_*", "fleet_devices", true},
		{"fleet_*", "flee", false},
		{"*_soc", "dev3_soc", true},
		{"*_soc", "dev3_steps", false},
		{"a*b*c", "axxbyyc", true},
		{"a*b*c", "axxbyy", false},
		{"a*b*c", "abc", true},
		{"**", "x", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pat, c.s); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
	// globKeep: empty list keeps everything; otherwise any-match.
	names := []string{"soc", "steps", "fleet_devices"}
	for i, k := range globKeep(nil, names) {
		if !k {
			t.Fatalf("empty glob list dropped %q", names[i])
		}
	}
	keep := globKeep([]string{"so*", "fleet_*"}, names)
	if !keep[0] || keep[1] || !keep[2] {
		t.Fatalf("globKeep = %v, want [true false true]", keep)
	}
}

// TestSubscribeGlobFilter: a glob list restricts which series appear in
// metric pushes — device blocks carry only matching names, and a glob
// matching nothing on a plane suppresses those blocks entirely.
func TestSubscribeGlobFilter(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 2}, 300, 1, 2)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Globs: []string{"soc"}}); err != nil {
		t.Fatal(err)
	}
	f.Tick(64)
	pushes := readPushes(t, c, 300*time.Millisecond)
	if len(pushes) == 0 {
		t.Fatal("no pushes for glob-filtered subscription")
	}
	sawSoc := false
	for _, p := range pushes {
		for _, d := range p.Devices {
			for _, v := range d.Values {
				if v.Name != "soc" {
					t.Fatalf("glob \"soc\" leaked series %q (device %d)", v.Name, d.Device)
				}
				sawSoc = true
			}
		}
	}
	if !sawSoc {
		t.Fatal("glob \"soc\" matched nothing")
	}
}

// TestAlertPushDeviceScope: a device-scoped alert subscription receives
// exactly the transitions of its devices — the scope filter in
// pushAlertsLocked, checked against the fleet's full transition log.
func TestAlertPushDeviceScope(t *testing.T) {
	rules, err := ts.ParseRules("alert busy steps >= 1")
	if err != nil {
		t.Fatal(err)
	}
	f, c := subFleet(t, Config{Shards: 2, Rules: rules}, 300, 1, 2, 3)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Devices: []uint16{2}, Signals: pmic.SubSigAlerts}); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(64)
	var got []pmic.AlertTransition
	for _, p := range readPushes(t, c, 300*time.Millisecond) {
		if p.Kind != pmic.PushAlert {
			t.Fatalf("alert-only sub got kind %d", p.Kind)
		}
		got = append(got, p.Alerts...)
	}
	var want []pmic.AlertTransition
	for _, tr := range f.AlertTransitions() {
		if tr.Device == 2 {
			want = append(want, tr)
		}
	}
	if len(want) == 0 {
		t.Fatal("device 2 produced no transitions; rule never engaged")
	}
	if len(got) != len(want) {
		t.Fatalf("scoped sub got %d transitions, fleet log has %d for device 2", len(got), len(want))
	}
	for i, tr := range want {
		g := got[i]
		if g.Device != 2 || g.Rule != tr.Rule || g.TimeS != tr.TimeS || g.From != tr.From || g.To != tr.To {
			t.Fatalf("transition %d: pushed %+v, log has %+v", i, g, tr)
		}
	}
}

// TestPushQueueOverflowDrops: with a one-frame queue and an unread
// client, the chunked push paths hit a full queue mid-barrier and must
// drop-and-count rather than block. The ledger still balances: frames
// delivered once the client finally drains equal pushed - dropped.
func TestPushQueueOverflowDrops(t *testing.T) {
	rules, err := ts.ParseRules("alert busy steps >= 1")
	if err != nil {
		t.Fatal(err)
	}
	f, c := subFleet(t, Config{Shards: 1, Rules: rules, SubQueue: 1}, 300, 1, 2)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{
		Fleet:   true,
		Signals: pmic.SubSigMetrics | pmic.SubSigTrace | pmic.SubSigAlerts,
	}); err != nil {
		t.Fatal(err)
	}
	// Several barriers with nobody reading: the queue jams after the
	// first frame and every later enqueue drops.
	f.RunToCompletion(32)
	stats := f.SubStats()
	if len(stats) != 1 {
		t.Fatalf("SubStats = %d entries, want 1", len(stats))
	}
	s := stats[0]
	if s.Dropped == 0 {
		t.Fatal("one-frame queue never dropped under an unread multi-plane stream")
	}
	if s.Dropped > s.Pushed {
		t.Fatalf("dropped %d > pushed %d", s.Dropped, s.Pushed)
	}
	got := uint64(len(readPushes(t, c, 500*time.Millisecond)))
	if got != s.Pushed-s.Dropped {
		t.Fatalf("drained %d frames, ledger owes %d (pushed %d - dropped %d)",
			got, s.Pushed-s.Dropped, s.Pushed, s.Dropped)
	}
}

// TestRecordFailLatchesDeviceSeries: a store whose device series
// rejects the append (poisoned with a far-future sample) latches
// RecordErr once and disables recording for the rest of the run.
func TestRecordFailLatchesDeviceSeries(t *testing.T) {
	st, err := store.Create(filepath.Join(t.TempDir(), "rec.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append("sdb_fleet_dev1_soc", ts.KindGauge, 60, 1e9, 0.5); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 1, Obs: obs.NewRegistry(), Record: st})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(64)
	err = f.RecordErr()
	if err == nil || !strings.Contains(err.Error(), "sdb_fleet_dev1_soc") {
		t.Fatalf("RecordErr = %v, want the poisoned device series append", err)
	}
}

// TestRecordFailLatchesAlertRollup: same latch, but the poisoned series
// is an alert rollup — the device series record cleanly, then the
// alert engine's own append path hits the error.
func TestRecordFailLatchesAlertRollup(t *testing.T) {
	rules, err := ts.ParseRules("alert busy steps >= 1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(filepath.Join(t.TempDir(), "rec.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append("sdb_fleet_alert_busy_firing", ts.KindGauge, 60, 1e9, 1); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 1, Obs: obs.NewRegistry(), Record: st, Rules: rules})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(64)
	err = f.RecordErr()
	if err == nil || !strings.Contains(err.Error(), "sdb_fleet_alert_busy_firing") {
		t.Fatalf("RecordErr = %v, want the poisoned alert rollup append", err)
	}
}

// TestAlertRulesAccessor: nil without alerting, the configured set
// with it, and rule names with non-identifier characters fold into the
// registry alphabet.
func TestAlertRulesAccessor(t *testing.T) {
	f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
	defer f.Close()
	if got := f.AlertRules(); got != nil {
		t.Fatalf("AlertRules without alerting = %v, want nil", got)
	}
	rules, err := ts.ParseRules("alert low-soc.2 soc < 0.5")
	if err != nil {
		t.Fatal(err)
	}
	fa := New(Config{Shards: 1, Obs: obs.NewRegistry(), Rules: rules})
	defer fa.Close()
	got := fa.AlertRules()
	if len(got) != 1 || got[0].Name != "low-soc.2" {
		t.Fatalf("AlertRules = %+v", got)
	}
	if mn := metricName("low-soc.2"); mn != "low_soc_2" {
		t.Fatalf("metricName = %q, want low_soc_2", mn)
	}
}
