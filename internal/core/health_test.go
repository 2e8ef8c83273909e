package core

// Tests for the degradation ladder: state transitions, last-known-good
// re-push, safe-mode uniform ratios, recovery, the bounded event log,
// and faulted-cell masking.

import (
	"errors"
	"math"
	"testing"

	"sdb/internal/pmic"
)

// scriptAPI is a scriptable pmic.API: failures toggle on and off, and
// every ratio push is recorded.
type scriptAPI struct {
	fail    bool
	pushDis [][]float64
	pushChg [][]float64
	sts     []pmic.BatteryStatus
}

func newScriptAPI() *scriptAPI {
	return &scriptAPI{
		sts: []pmic.BatteryStatus{
			mkStatus(0.6, 3.7, 0.1, 0, 10, 5),
			mkStatus(0.6, 3.7, 0.2, 0, 10, 5),
		},
	}
}

var errScripted = errors.New("scripted failure")

func (s *scriptAPI) Ping() error                { return nil }
func (s *scriptAPI) BatteryCount() (int, error) { return len(s.sts), nil }
func (s *scriptAPI) QueryBatteryStatus() ([]pmic.BatteryStatus, error) {
	return s.QueryBatteryStatusInto(nil)
}
func (s *scriptAPI) QueryBatteryStatusInto(dst []pmic.BatteryStatus) ([]pmic.BatteryStatus, error) {
	if s.fail {
		return nil, errScripted
	}
	return append(dst[:0], s.sts...), nil
}
func (s *scriptAPI) Discharge(r []float64) error {
	s.pushDis = append(s.pushDis, append([]float64(nil), r...))
	return nil
}
func (s *scriptAPI) Charge(r []float64) error {
	s.pushChg = append(s.pushChg, append([]float64(nil), r...))
	return nil
}
func (s *scriptAPI) ChargeOneFromAnother(x, y int, w, t float64) error { return nil }
func (s *scriptAPI) SetChargeProfile(b int, p string) error            { return nil }

// TestHealthLadderDescentAndRecovery walks the full ladder down and
// back up, checking each transition lands in the event log.
func TestHealthLadderDescentAndRecovery(t *testing.T) {
	api := newScriptAPI()
	rt, err := NewRuntime(api, Options{
		DischargePolicy: FixedRatios{Ratios: []float64{0.9, 0.1}},
		ChargePolicy:    FixedRatios{Ratios: []float64{0.5, 0.5}},
		DegradeAfter:    1, SafeModeAfter: 2, FailAfter: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Health() != Healthy {
		t.Fatalf("fresh runtime health = %v", rt.Health())
	}

	// Seed last-known-good ratios with one clean tick.
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatal(err)
	}

	api.fail = true
	// Failure 1: Degraded, last-known-good re-pushed.
	res, err := rt.Update(1, 0)
	if err != nil {
		t.Fatalf("failure 1 surfaced: %v", err)
	}
	if rt.Health() != Degraded {
		t.Fatalf("after 1 failure health = %v, want Degraded", rt.Health())
	}
	if len(res.Discharge) != 2 || res.Discharge[0] != 0.9 {
		t.Errorf("Degraded tick reported %v, want last-known-good 0.9/0.1", res.Discharge)
	}
	lastPush := api.pushDis[len(api.pushDis)-1]
	if lastPush[0] != 0.9 {
		t.Errorf("Degraded re-push sent %v, want 0.9/0.1", lastPush)
	}

	// Failure 2: SafeMode, uniform pushed.
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatalf("failure 2 surfaced: %v", err)
	}
	if rt.Health() != SafeMode {
		t.Fatalf("after 2 failures health = %v, want SafeMode", rt.Health())
	}
	lastPush = api.pushDis[len(api.pushDis)-1]
	if math.Abs(lastPush[0]-0.5) > 1e-12 || math.Abs(lastPush[1]-0.5) > 1e-12 {
		t.Errorf("SafeMode pushed %v, want uniform", lastPush)
	}

	// Failure 3: still SafeMode (below FailAfter).
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatalf("failure 3 surfaced: %v", err)
	}
	// Failure 4: Failed, error surfaces.
	if _, err := rt.Update(1, 0); err == nil {
		t.Fatal("failure 4 did not surface (FailAfter=4)")
	}
	if rt.Health() != Failed {
		t.Fatalf("health = %v, want Failed", rt.Health())
	}

	// Recovery: the link heals, one good tick restores Healthy.
	api.fail = false
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatalf("post-recovery tick failed: %v", err)
	}
	if rt.Health() != Healthy {
		t.Fatalf("health after recovery = %v", rt.Health())
	}
	if c, total := rt.UpdateFailures(); c != 0 || total != 4 {
		t.Errorf("failure counters after recovery = %d consecutive, %d total", c, total)
	}

	// The event log saw the whole journey.
	evs := rt.HealthEvents()
	var path []Health
	for _, ev := range evs {
		path = append(path, ev.To)
	}
	want := []Health{Degraded, SafeMode, Failed, Healthy}
	if len(path) != len(want) {
		t.Fatalf("event path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("event path %v, want %v", path, want)
		}
	}
	if evs[len(evs)-1].Reason != "recovered" {
		t.Errorf("recovery event reason = %q", evs[len(evs)-1].Reason)
	}
}

// TestHealthEventLogBounded: the transition log must not grow without
// bound under failure flapping; sequence numbers expose the dropped
// prefix.
func TestHealthEventLogBounded(t *testing.T) {
	api := newScriptAPI()
	rt, err := NewRuntime(api, Options{
		DegradeAfter: 1, SafeModeAfter: 100, FailAfter: 100,
		HealthLogSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each fail/heal pair produces two transitions.
	for i := 0; i < 20; i++ {
		api.fail = true
		if _, err := rt.Update(1, 0); err != nil {
			t.Fatal(err)
		}
		api.fail = false
		if _, err := rt.Update(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	evs := rt.HealthEvents()
	if len(evs) != 4 {
		t.Fatalf("log holds %d events, want cap 4", len(evs))
	}
	if evs[0].Seq != 37 {
		t.Errorf("oldest retained Seq = %d, want 37 of 40", evs[0].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-monotonic Seq: %+v", evs)
		}
	}
}

// TestThresholdValidation: a ladder that safes before it degrades is a
// configuration bug.
func TestThresholdValidation(t *testing.T) {
	api := newScriptAPI()
	if _, err := NewRuntime(api, Options{DegradeAfter: 5, SafeModeAfter: 2}); err == nil {
		t.Error("decreasing thresholds accepted")
	}
}

// TestMaskFaultedNoFaultsIsIdentity: the common path must return the
// exact input slice so healthy runs stay byte-identical.
func TestMaskFaultedNoFaultsIsIdentity(t *testing.T) {
	ratios := []float64{0.7, 0.3}
	sts := []pmic.BatteryStatus{mkStatus(0.5, 3.7, 0.1, 0, 10, 5), mkStatus(0.5, 3.7, 0.1, 0, 10, 5)}
	out := MaskFaulted(ratios, sts)
	if &out[0] != &ratios[0] {
		t.Error("mask copied the slice with no faulted cells")
	}
}

// TestMaskFaultedRenormalizes: a faulted cell's share moves to the
// survivors proportionally.
func TestMaskFaultedRenormalizes(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.5, 3.7, 0.1, 0, 10, 5),
		mkStatus(0.5, 3.7, 0.1, 0, 10, 5),
		mkStatus(0.5, 3.7, 0.1, 0, 10, 5),
	}
	sts[1].Faulted = true
	out := MaskFaulted([]float64{0.5, 0.3, 0.2}, sts)
	if out[1] != 0 {
		t.Errorf("faulted cell kept share %g", out[1])
	}
	if math.Abs(out[0]-0.5/0.7) > 1e-12 || math.Abs(out[2]-0.2/0.7) > 1e-12 {
		t.Errorf("survivors not renormalized: %v", out)
	}
	if sum := out[0] + out[1] + out[2]; math.Abs(sum-1) > 1e-12 {
		t.Errorf("masked ratios sum to %g", sum)
	}
}

// TestMaskFaultedDegenerateCases: all weight on the faulted cell, and
// every cell faulted — both must still produce a valid vector.
func TestMaskFaultedDegenerateCases(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.5, 3.7, 0.1, 0, 10, 5),
		mkStatus(0.5, 3.7, 0.1, 0, 10, 5),
	}
	sts[0].Faulted = true
	out := MaskFaulted([]float64{1, 0}, sts)
	if out[0] != 0 || out[1] != 1 {
		t.Errorf("all-weight-on-faulted masked to %v, want 0/1", out)
	}

	sts[1].Faulted = true
	out = MaskFaulted([]float64{0.5, 0.5}, sts)
	if math.Abs(out[0]+out[1]-1) > 1e-12 {
		t.Errorf("all-faulted mask sums to %g", out[0]+out[1])
	}
}

// TestUpdateMasksFaultedCells: end to end — a cell the firmware reports
// Faulted must receive zero share in the pushed vectors.
func TestUpdateMasksFaultedCells(t *testing.T) {
	api := newScriptAPI()
	api.sts[0].Faulted = true
	rt, err := NewRuntime(api, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Update(2, 1); err != nil {
		t.Fatal(err)
	}
	dis := api.pushDis[len(api.pushDis)-1]
	chg := api.pushChg[len(api.pushChg)-1]
	if dis[0] != 0 || chg[0] != 0 {
		t.Errorf("faulted cell still in pushed ratios: dis=%v chg=%v", dis, chg)
	}
	if math.Abs(dis[1]-1) > 1e-12 || math.Abs(chg[1]-1) > 1e-12 {
		t.Errorf("survivor share not renormalized: dis=%v chg=%v", dis, chg)
	}
}
