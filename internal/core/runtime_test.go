package core

import (
	"errors"
	"io"
	"math"
	"net"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/pmic"
)

// serveConn answers request frames read off rw with ctrl.Dispatch until
// the transport fails: the bare firmware command loop a server runs
// per connection.
func serveConn(ctrl *pmic.Controller, rw io.ReadWriter) {
	sc := bus.NewScanner(rw)
	for {
		req, err := sc.ReadFrame()
		if err != nil || bus.WriteFrame(rw, ctrl.Dispatch(req)) != nil {
			return
		}
	}
}

// newStack builds a controller + runtime pair over the in-process API.
func newStack(t *testing.T, soc float64, opts Options) (*pmic.Controller, *Runtime) {
	t.Helper()
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	a.SetSoC(soc)
	b.SetSoC(soc)
	ctrl, err := pmic.NewController(pmic.DefaultConfig(battery.MustNewPack(a, b)))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, rt
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(nil, Options{}); err == nil {
		t.Error("nil API accepted")
	}
}

func TestNewRuntimeDefaultsToBlended(t *testing.T) {
	_, rt := newStack(t, 1, Options{})
	dis, chg := rt.PolicyNames()
	if dis != "blended" || chg != "blended" {
		t.Errorf("default policies = %q, %q", dis, chg)
	}
	if rt.BatteryCount() != 2 {
		t.Errorf("BatteryCount = %d", rt.BatteryCount())
	}
}

func TestDirectivesClamped(t *testing.T) {
	_, rt := newStack(t, 1, Options{ChargingDirective: 5, DischargingDirective: -2})
	chg, dis := rt.Directives()
	if chg != 1 || dis != 0 {
		t.Errorf("directives = %g, %g; want clamped 1, 0", chg, dis)
	}
	rt.SetDirectives(0.3, 0.7)
	chg, dis = rt.Directives()
	if chg != 0.3 || dis != 0.7 {
		t.Errorf("directives = %g, %g", chg, dis)
	}
}

func TestUpdatePushesRatiosToFirmware(t *testing.T) {
	ctrl, rt := newStack(t, 0.8, Options{
		DischargePolicy: FixedRatios{Ratios: []float64{0.9, 0.1}},
		ChargePolicy:    FixedRatios{Ratios: []float64{0.3, 0.7}},
	})
	res, err := rt.Update(2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dis, chg := ctrl.Ratios()
	if dis[0] != 0.9 || chg[1] != 0.7 {
		t.Errorf("firmware ratios = %v / %v", dis, chg)
	}
	if len(res.Discharge) != 2 || res.Discharge[0] != 0.9 || len(res.Charge) != 2 || res.Charge[1] != 0.7 {
		t.Errorf("update result = %v / %v", res.Discharge, res.Charge)
	}
	lastDis, lastChg := rt.LastRatios()
	if lastDis[0] != 0.9 || lastChg[1] != 0.7 {
		t.Errorf("LastRatios = %v / %v", lastDis, lastChg)
	}
}

func TestUpdateThenStepDrivesCells(t *testing.T) {
	ctrl, rt := newStack(t, 0.8, Options{})
	if _, err := rt.Update(2.0, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := ctrl.Step(2.0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.DeliveredW-2.0) > 0.05 {
		t.Errorf("delivered %g W after runtime update", rep.DeliveredW)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	_, rt := newStack(t, 0.5, Options{})
	m, err := rt.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.RBLJoules <= 0 || m.CCB != 1 || math.Abs(m.MeanSoC-0.5) > 1e-9 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestPolicySwapAtRuntime(t *testing.T) {
	_, rt := newStack(t, 0.8, Options{})
	if err := rt.SetDischargePolicy(Reserve{ReserveIdx: 1}); err != nil {
		t.Fatal(err)
	}
	dis, _ := rt.PolicyNames()
	if dis != "reserve" {
		t.Errorf("policy after swap = %q", dis)
	}
	if err := rt.SetDischargePolicy(nil); err == nil {
		t.Error("nil policy accepted")
	}
	if err := rt.SetChargePolicy(nil); err == nil {
		t.Error("nil charge policy accepted")
	}
}

func TestRuntimeTransferProxy(t *testing.T) {
	ctrl, rt := newStack(t, 0.5, Options{})
	if err := rt.RequestTransfer(0, 1, 1.5, 60); err != nil {
		t.Fatal(err)
	}
	if !ctrl.TransferActive() {
		t.Error("transfer not active after runtime request")
	}
	if err := rt.RequestTransfer(0, 0, 1, 1); err == nil {
		t.Error("invalid transfer accepted")
	}
}

func TestRuntimeSetChargeProfileProxy(t *testing.T) {
	_, rt := newStack(t, 0.5, Options{})
	if err := rt.SetChargeProfile(0, "fast"); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetChargeProfile(0, "warp"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestRuntimeOverBusTransport runs the full OS-over-serial stack: the
// runtime drives a controller through the wire protocol, not function
// calls — the paper's actual prototype topology (Runtime <-> Bluetooth
// <-> microcontroller).
func TestRuntimeOverBusTransport(t *testing.T) {
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	a.SetSoC(0.8)
	b.SetSoC(0.8)
	ctrl, err := pmic.NewController(pmic.DefaultConfig(battery.MustNewPack(a, b)))
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	go serveConn(ctrl, p1)

	rt, err := NewRuntime(pmic.NewClient(p2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Update(3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discharge) != 2 {
		t.Fatalf("ratios over the wire: %v", res.Discharge)
	}
	rep, err := ctrl.Step(3.0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.DeliveredW-3.0) > 0.1 {
		t.Errorf("delivered %g W driven over the bus", rep.DeliveredW)
	}
	m, err := rt.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.RBLJoules <= 0 {
		t.Error("metrics over the wire are empty")
	}
}

// failingAPI helps exercise error paths.
type failingAPI struct {
	pmic.API
	failStatus bool
	failSet    bool
}

func (f *failingAPI) Ping() error                { return nil }
func (f *failingAPI) BatteryCount() (int, error) { return 2, nil }
func (f *failingAPI) QueryBatteryStatus() ([]pmic.BatteryStatus, error) {
	return f.QueryBatteryStatusInto(nil)
}
func (f *failingAPI) QueryBatteryStatusInto(dst []pmic.BatteryStatus) ([]pmic.BatteryStatus, error) {
	if f.failStatus {
		return nil, errors.New("link down")
	}
	return append(dst[:0],
		mkStatus(0.5, 3.7, 0.1, 0, 10, 5),
		mkStatus(0.5, 3.7, 0.2, 0, 10, 5),
	), nil
}
func (f *failingAPI) Discharge(r []float64) error {
	if f.failSet {
		return errors.New("nack")
	}
	return nil
}
func (f *failingAPI) Charge(r []float64) error { return nil }

// TestUpdateAbsorbsStatusFailure: a failed tick no longer aborts the
// power manager — the runtime degrades and keeps going, surfacing an
// error only when the Failed threshold is crossed.
func TestUpdateAbsorbsStatusFailure(t *testing.T) {
	rt, err := NewRuntime(&failingAPI{failStatus: true}, Options{FailAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := rt.Update(1, 0); err != nil {
			t.Fatalf("tick %d surfaced an error before the Failed threshold: %v", i, err)
		}
	}
	if rt.Health() == Healthy {
		t.Error("repeated failures left the runtime Healthy")
	}
	if _, err := rt.Update(1, 0); err == nil {
		t.Error("third consecutive failure did not surface (FailAfter=3)")
	}
	if rt.Health() != Failed {
		t.Errorf("health = %v, want Failed", rt.Health())
	}
}

// TestUpdateAbsorbsSetFailure: push failures walk the same ladder as
// status failures.
func TestUpdateAbsorbsSetFailure(t *testing.T) {
	rt, err := NewRuntime(&failingAPI{failSet: true}, Options{FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Update(1, 0); err != nil {
		t.Fatalf("first push failure surfaced: %v", err)
	}
	if c, total := rt.UpdateFailures(); c != 1 || total != 1 {
		t.Errorf("failure counters = %d consecutive, %d total", c, total)
	}
	if rt.LastError() == nil {
		t.Error("LastError empty after a failed tick")
	}
	if _, err := rt.Update(1, 0); err == nil {
		t.Error("second consecutive failure did not surface (FailAfter=2)")
	}
}
