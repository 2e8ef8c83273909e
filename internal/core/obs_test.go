package core

// Edge-case tables for faulted-cell masking, boundary tests for the
// health-ladder thresholds, and the runtime's observability contract:
// policy decisions, audit records, health gauge/transition counters,
// and policy-error accounting — always against an explicit registry,
// never the process default, so the race lane can run these in
// parallel.

import (
	"errors"
	"math"
	"testing"

	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// TestMaskFaultedTable sweeps the masking edge cases one at a time:
// every survivor pattern must yield a non-negative vector that sums to
// one, with zero share on every faulted cell (except the no-survivors
// fallback, which returns uniform so the firmware still parses it).
func TestMaskFaultedTable(t *testing.T) {
	mk := func(faulted ...bool) []pmic.BatteryStatus {
		sts := make([]pmic.BatteryStatus, len(faulted))
		for i, f := range faulted {
			sts[i] = mkStatus(0.5, 3.7, 0.1, 0, 10, 5)
			sts[i].Faulted = f
		}
		return sts
	}
	cases := []struct {
		name   string
		ratios []float64
		sts    []pmic.BatteryStatus
		want   []float64
	}{
		{
			name:   "all cells faulted falls back to uniform",
			ratios: []float64{0.7, 0.2, 0.1},
			sts:    mk(true, true, true),
			want:   []float64{1. / 3, 1. / 3, 1. / 3},
		},
		{
			name:   "single survivor takes the whole load",
			ratios: []float64{0.2, 0.5, 0.3},
			sts:    mk(true, false, true),
			want:   []float64{0, 1, 0},
		},
		{
			name:   "zero-ratio survivor gets uniform share",
			ratios: []float64{1, 0, 0},
			sts:    mk(true, false, false),
			want:   []float64{0, 0.5, 0.5},
		},
		{
			name:   "single zero-ratio survivor still carries everything",
			ratios: []float64{0.6, 0.4, 0},
			sts:    mk(true, true, false),
			want:   []float64{0, 0, 1},
		},
		{
			name:   "proportional renormalization over two survivors",
			ratios: []float64{0.5, 0.25, 0.25},
			sts:    mk(false, true, false),
			want:   []float64{2. / 3, 0, 1. / 3},
		},
		{
			name:   "width mismatch passes the input through",
			ratios: []float64{0.5, 0.5},
			sts:    mk(true, true, true),
			want:   []float64{0.5, 0.5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := MaskFaulted(tc.ratios, tc.sts)
			if len(out) != len(tc.want) {
				t.Fatalf("width %d, want %d", len(out), len(tc.want))
			}
			var sum float64
			for i := range out {
				if math.Abs(out[i]-tc.want[i]) > 1e-12 {
					t.Fatalf("masked to %v, want %v", out, tc.want)
				}
				if out[i] < 0 {
					t.Fatalf("negative share %g at %d", out[i], i)
				}
				sum += out[i]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("shares sum to %g", sum)
			}
		})
	}
}

// TestHealthLadderThresholdBoundaries pins the exact failure counts at
// which each rung engages: DegradeAfter/SafeModeAfter/FailAfter are
// "at least this many consecutive failures", so one fewer must leave
// the previous state in place.
func TestHealthLadderThresholdBoundaries(t *testing.T) {
	api := newScriptAPI()
	rt, err := NewRuntime(api, Options{
		DegradeAfter: 2, SafeModeAfter: 4, FailAfter: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed last-known-good so degraded ticks have something to re-push.
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatal(err)
	}

	api.fail = true
	wantAt := map[int]Health{
		1: Healthy, // below DegradeAfter
		2: Degraded,
		3: Degraded, // below SafeModeAfter
		4: SafeMode,
		5: SafeMode, // below FailAfter
		6: Failed,
	}
	for n := 1; n <= 6; n++ {
		_, err := rt.Update(1, 0)
		if want := wantAt[n]; rt.Health() != want {
			t.Fatalf("after %d consecutive failures health = %v, want %v", n, rt.Health(), want)
		}
		// The error surfaces only once the ladder bottoms out.
		if n < 6 && err != nil {
			t.Fatalf("failure %d surfaced early: %v", n, err)
		}
		if n == 6 && err == nil {
			t.Fatal("failure 6 swallowed at FailAfter")
		}
	}

	// One good tick recovers from the floor.
	api.fail = false
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatal(err)
	}
	if rt.Health() != Healthy {
		t.Fatalf("health after recovery = %v", rt.Health())
	}
}

// failingPolicy always errors — the policy-error counter's trigger.
type failingPolicy struct{}

var errBadPolicy = errors.New("scripted policy failure")

func (failingPolicy) Name() string { return "failing" }
func (failingPolicy) DischargeRatios([]float64, []pmic.BatteryStatus, float64) ([]float64, error) {
	return nil, errBadPolicy
}
func (failingPolicy) ChargeRatios([]float64, []pmic.BatteryStatus, float64) ([]float64, error) {
	return nil, errBadPolicy
}

// TestRuntimeObsInstrumentation drives a runtime bound to an explicit
// registry through decisions, a masked cell, a policy failure, and a
// health round trip, then checks every observable the runtime owns:
// counters, the health-state gauge, audit records, and the
// health-transition trace events.
func TestRuntimeObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	api := newScriptAPI()
	rt, err := NewRuntime(api, Options{
		Obs:          reg,
		DegradeAfter: 1, SafeModeAfter: 2, FailAfter: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sdb_core_health_state").Value(); got != float64(Healthy) {
		t.Fatalf("fresh health gauge = %g", got)
	}

	// Two clean decisions, the second with a faulted cell masked.
	rt.NoteTime(60)
	if _, err := rt.Update(2, 1); err != nil {
		t.Fatal(err)
	}
	api.sts[0].Faulted = true
	rt.NoteTime(120)
	if _, err := rt.Update(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sdb_core_policy_decisions_total").Value(); got != 2 {
		t.Errorf("decisions = %d, want 2", got)
	}
	if got := reg.Counter("sdb_core_masked_cells_total").Value(); got != 1 {
		t.Errorf("masked cells = %d, want 1", got)
	}

	// Audit records carry the decision context.
	recs := reg.Audit().Records()
	if len(recs) != 2 {
		t.Fatalf("audit holds %d records, want 2", len(recs))
	}
	rec := recs[1]
	if rec.TimeS != 120 || rec.LoadW != 2 || rec.ChargeW != 1 {
		t.Errorf("audit record context = t%g load%g chg%g", rec.TimeS, rec.LoadW, rec.ChargeW)
	}
	if rec.Masked != 1 || rec.Dis[0] != 0 || rec.Health != "healthy" {
		t.Errorf("audit record masking = %+v", rec)
	}
	if rec.DisPolicy == "" || rec.ChgPolicy == "" {
		t.Errorf("audit record missing policy names: %+v", rec)
	}
	if recs[0].Seq+1 != rec.Seq {
		t.Errorf("audit Seq not monotonic: %d then %d", recs[0].Seq, rec.Seq)
	}

	// A status failure walks the ladder: transition counter, gauge, and
	// trace event must all move.
	api.fail = true
	rt.NoteTime(180)
	if _, err := rt.Update(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sdb_core_health_transitions_total").Value(); got != 1 {
		t.Errorf("transitions = %d, want 1", got)
	}
	if got := reg.Gauge("sdb_core_health_state").Value(); got != float64(Degraded) {
		t.Errorf("health gauge = %g, want %g", got, float64(Degraded))
	}
	events := reg.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("no trace events after a health transition")
	}
	ev := events[len(events)-1]
	if ev.Scope != "core" || ev.Kind != "health-transition" ||
		ev.V1 != float64(Healthy) || ev.V2 != float64(Degraded) || ev.TimeS != 180 {
		t.Errorf("transition event = %+v", ev)
	}

	// Recovery increments the transition counter again and restores the
	// gauge.
	api.fail = false
	if _, err := rt.Update(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sdb_core_health_transitions_total").Value(); got != 2 {
		t.Errorf("transitions after recovery = %d, want 2", got)
	}
	if got := reg.Gauge("sdb_core_health_state").Value(); got != float64(Healthy) {
		t.Errorf("health gauge after recovery = %g", got)
	}

	// A failing policy lands in the policy-error counter, not the
	// decision counter.
	decBefore := reg.Counter("sdb_core_policy_decisions_total").Value()
	if err := rt.SetDischargePolicy(failingPolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Update(2, 1); err != nil {
		t.Fatal(err) // swallowed while Degraded (consecutive failure 1 < FailAfter)
	}
	if got := reg.Counter("sdb_core_policy_errors_total").Value(); got != 1 {
		t.Errorf("policy errors = %d, want 1", got)
	}
	if got := reg.Counter("sdb_core_policy_decisions_total").Value(); got != decBefore {
		t.Errorf("failed tick still counted as a decision (%d → %d)", decBefore, got)
	}
}
