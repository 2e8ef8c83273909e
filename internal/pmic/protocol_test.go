package pmic_test

import (
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// serveConn answers request frames read off rw with ctrl.Dispatch until
// the transport fails: the bare firmware command loop a server runs
// per connection, with no fleet routing in front of it.
func serveConn(ctrl *firmware.Controller, rw io.ReadWriter) {
	sc := bus.NewScanner(rw)
	for {
		req, err := sc.ReadFrame()
		if err != nil || bus.WriteFrame(rw, ctrl.Dispatch(req)) != nil {
			return
		}
	}
}

// startServed spins up a controller served over a net.Pipe and returns
// a connected client. Cleanup tears both down.
func startServed(t *testing.T, soc float64) (*firmware.Controller, *pmic.Client) {
	t.Helper()
	ctrl := newTestController(t, soc)
	a, b := net.Pipe()
	go serveConn(ctrl, a)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return ctrl, pmic.NewClient(b)
}

func TestClientPing(t *testing.T) {
	_, cl := startServed(t, 1)
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestClientBatteryCount(t *testing.T) {
	_, cl := startServed(t, 1)
	n, err := cl.BatteryCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("count = %d", n)
	}
}

func TestClientSetRatiosReachFirmware(t *testing.T) {
	ctrl, cl := startServed(t, 1)
	if err := cl.Discharge([]float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Charge([]float64{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	dis, chg := ctrl.Ratios()
	if dis[0] != 0.25 || dis[1] != 0.75 {
		t.Errorf("discharge ratios = %v", dis)
	}
	if chg[0] != 0.9 || chg[1] != 0.1 {
		t.Errorf("charge ratios = %v", chg)
	}
}

func TestClientRejectionsSurfaceAsErrors(t *testing.T) {
	_, cl := startServed(t, 1)
	if err := cl.Discharge([]float64{0.9, 0.9}); err == nil {
		t.Error("bad ratios accepted over the wire")
	}
	if err := cl.SetChargeProfile(0, "warp"); err == nil {
		t.Error("unknown profile accepted over the wire")
	}
	if err := cl.ChargeOneFromAnother(0, 0, 1, 1); err == nil {
		t.Error("self-transfer accepted over the wire")
	}
}

func TestClientQueryStatusRoundTrip(t *testing.T) {
	ctrl, cl := startServed(t, 0.6)
	want, err := ctrl.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("status count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Chem != w.Chem || g.Index != w.Index || g.Bendable != w.Bendable {
			t.Errorf("record %d identity mismatch: %+v vs %+v", i, g, w)
		}
		floats := [][2]float64{
			{g.SoC, w.SoC}, {g.TerminalV, w.TerminalV}, {g.CycleCount, w.CycleCount},
			{g.WearRatio, w.WearRatio}, {g.RatedCycles, w.RatedCycles},
			{g.CapacityFraction, w.CapacityFraction}, {g.CapacityCoulombs, w.CapacityCoulombs},
			{g.DCIR, w.DCIR}, {g.DCIRSlope, w.DCIRSlope},
			{g.MaxDischargeW, w.MaxDischargeW}, {g.MaxChargeW, w.MaxChargeW},
			{g.MaxChargeA, w.MaxChargeA}, {g.EnergyRemainingJ, w.EnergyRemainingJ},
			{g.TemperatureC, w.TemperatureC},
		}
		for k, f := range floats {
			if math.Abs(f[0]-f[1]) > 1e-12 {
				t.Errorf("record %d field %d = %g, want %g", i, k, f[0], f[1])
			}
		}
	}
}

func TestClientTransferStartsFirmwareTransfer(t *testing.T) {
	ctrl, cl := startServed(t, 0.5)
	if err := cl.ChargeOneFromAnother(0, 1, 2.0, 30); err != nil {
		t.Fatal(err)
	}
	if !ctrl.TransferActive() {
		t.Error("transfer not active in firmware after wire request")
	}
}

func TestClientSetProfileReachesFirmware(t *testing.T) {
	ctrl, cl := startServed(t, 0.5)
	if err := cl.SetChargeProfile(1, "fast"); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.ExportState().ProfileSel[1]; got != "fast" {
		t.Errorf("firmware profile = %q", got)
	}
}

func TestClientConcurrentCallers(t *testing.T) {
	_, cl := startServed(t, 0.8)
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				switch g % 3 {
				case 0:
					errs <- cl.Ping()
				case 1:
					errs <- cl.Discharge([]float64{0.5, 0.5})
				default:
					_, err := cl.QueryBatteryStatus()
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent call failed: %v", err)
		}
	}
}

func TestServeSurvivesUnknownCommand(t *testing.T) {
	ctrl := newTestController(t, 1)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	// Send a garbage command directly; the firmware must answer with
	// StatusBadCmd and keep serving.
	if err := bus.WriteFrame(b, bus.Frame{Cmd: 0x6F, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := bus.ReadFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload[0] != pmic.StatusBadCmd {
		t.Errorf("status = %#02x, want BadCmd", resp.Payload[0])
	}
	// Still alive?
	cl := pmic.NewClient(b)
	if err := cl.Ping(); err != nil {
		t.Errorf("server dead after unknown command: %v", err)
	}
}

func TestServeSurvivesMalformedPayload(t *testing.T) {
	ctrl := newTestController(t, 1)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	// SetDischarge claiming 5 ratios but carrying none.
	var w bus.Writer
	w.U8(5)
	if err := bus.WriteFrame(b, bus.Frame{Cmd: pmic.CmdSetDischg, Seq: 9, Payload: w.Bytes()}); err != nil {
		t.Fatal(err)
	}
	resp, err := bus.ReadFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload[0] != pmic.StatusBadArgs {
		t.Errorf("status = %#02x, want BadArgs", resp.Payload[0])
	}
	cl := pmic.NewClient(b)
	if err := cl.Ping(); err != nil {
		t.Errorf("server dead after malformed payload: %v", err)
	}
}

func TestClientAgainstClosedTransport(t *testing.T) {
	a, b := net.Pipe()
	a.Close()
	b.Close()
	cl := pmic.NewClient(b)
	err := cl.Ping()
	if err == nil {
		t.Fatal("ping over closed pipe succeeded")
	}
	if !strings.Contains(err.Error(), "pmic") {
		t.Errorf("error %v lacks package context", err)
	}
}

// TestPolicySwapWithoutFirmwareChange demonstrates the paper's central
// architectural claim: changing policy is purely an OS-side operation.
// The same served firmware instance is driven by two different ratio
// policies with no firmware-side reconfiguration.
func TestPolicySwapWithoutFirmwareChange(t *testing.T) {
	ctrl, cl := startServed(t, 0.9)
	policies := [][]float64{{1, 0}, {0.5, 0.5}, {0.2, 0.8}}
	for _, p := range policies {
		if err := cl.Discharge(p); err != nil {
			t.Fatalf("policy %v rejected: %v", p, err)
		}
		rep, err := ctrl.Step(2.0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		total := rep.PerCellW[0] + rep.PerCellW[1]
		if total <= 0 {
			t.Fatalf("policy %v delivered nothing", p)
		}
		share := rep.PerCellW[0] / total
		if math.Abs(share-p[0]) > 0.05 {
			t.Errorf("policy %v realized share %.3f", p, share)
		}
	}
}

func TestControllerImplementsAPI(t *testing.T) {
	var _ pmic.API = newTestController(t, 1)
	var _ pmic.API = (*pmic.Client)(nil)
}

func BenchmarkMicrocontrollerRoundTrip(b *testing.B) {
	cell1 := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	cell2 := battery.MustNew(battery.MustByName("Standard-2000"))
	pack := battery.MustNewPack(cell1, cell2)
	ctrl, err := firmware.NewController(firmware.DefaultConfig(pack))
	if err != nil {
		b.Fatal(err)
	}
	p1, p2 := net.Pipe()
	go serveConn(ctrl, p1)
	defer p1.Close()
	defer p2.Close()
	cl := pmic.NewClient(p2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.QueryBatteryStatus(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClientRatiosRoundTrip(t *testing.T) {
	ctrl, cl := startServed(t, 0.8)
	if err := cl.Discharge([]float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Charge([]float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}
	dis, chg, err := cl.Ratios()
	if err != nil {
		t.Fatal(err)
	}
	wantDis, wantChg := ctrl.Ratios()
	for i := range dis {
		if dis[i] != wantDis[i] || chg[i] != wantChg[i] {
			t.Fatalf("wire ratios %v/%v != firmware %v/%v", dis, chg, wantDis, wantChg)
		}
	}
}
