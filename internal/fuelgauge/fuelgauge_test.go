package fuelgauge

import (
	"math"
	"testing"
	"testing/quick"

	"sdb/internal/battery"
)

func newGauge(t *testing.T, cfg Config) (*battery.Cell, *Gauge) {
	t.Helper()
	cell := battery.MustNew(battery.MustByName("Standard-2000"))
	g, err := New(cell, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cell, g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil cell accepted")
	}
	cell := battery.MustNew(battery.MustByName("Standard-2000"))
	if _, err := New(cell, Config{GainError: 0.5}); err == nil {
		t.Error("50% gain error accepted")
	}
	if _, err := New(cell, Config{RestThresholdA: -1}); err == nil {
		t.Error("negative rest threshold accepted")
	}
}

func TestGaugeStartsCalibrated(t *testing.T) {
	cell, g := newGauge(t, DefaultConfig())
	if g.SoC() != cell.SoC() {
		t.Errorf("fresh gauge SoC %g != cell %g", g.SoC(), cell.SoC())
	}
	if g.EstimatedCapacity() != cell.Capacity() {
		t.Error("fresh gauge capacity mismatch")
	}
}

func TestCoulombCountingTracksDischarge(t *testing.T) {
	cell, g := newGauge(t, Config{}) // perfect sensing
	for k := 0; k < 600; k++ {
		res := cell.StepCurrent(1.0, 1)
		g.Observe(res.Current, res.TerminalV, 1)
	}
	if err := g.Error(); err > 1e-6 {
		t.Errorf("perfect gauge drifted by %g", err)
	}
}

func TestGainErrorCausesDrift(t *testing.T) {
	cell, g := newGauge(t, Config{GainError: 0.01})
	for k := 0; k < 3600; k++ {
		res := cell.StepCurrent(1.0, 1)
		g.Observe(res.Current, res.TerminalV, 1)
	}
	// 1% gain error over a 50% discharge: about 0.5% SoC drift.
	if err := g.Error(); err < 0.001 || err > 0.02 {
		t.Errorf("drift = %g, want around 0.005", err)
	}
}

func TestOCVCorrectionTrimsDrift(t *testing.T) {
	cfg := Config{RestThresholdA: 0.01, RestSettleS: 30}
	cell, g := newGauge(t, cfg)
	for k := 0; k < 3600; k++ {
		res := cell.StepCurrent(1.0, 1)
		g.Observe(res.Current, res.TerminalV, 1)
	}
	// Inject a large drift, then rest the cell (zero-current steps let
	// the RC pair relax so the terminal voltage approaches OCV).
	g.estSoC = clamp01(g.estSoC - 0.15)
	drift := g.Error()
	for k := 0; k < 4000; k++ {
		res := cell.StepCurrent(0, 1)
		g.Observe(res.Current, res.TerminalV, 1)
	}
	if g.Error() >= drift/2 {
		t.Errorf("rest correction did not reduce drift: before %g after %g", drift, g.Error())
	}
}

func TestActivityResetsRestTimer(t *testing.T) {
	cfg := Config{RestThresholdA: 0.01, RestSettleS: 100}
	cell, g := newGauge(t, cfg)
	g.estSoC = 0.3 // inject drift
	for k := 0; k < 90; k++ {
		g.Observe(0, cell.TerminalVoltage(0), 1)
	}
	g.Observe(1.0, cell.TerminalVoltage(1), 1) // activity
	for k := 0; k < 90; k++ {
		g.Observe(0, cell.TerminalVoltage(0), 1)
	}
	// Neither rest window reached 100 s, so no correction: the drift
	// (minus the tiny discharge) persists.
	if g.SoC() > 0.35 {
		t.Errorf("correction engaged before settle time: SoC estimate %g", g.SoC())
	}
}

func TestGaugeCycleCounting(t *testing.T) {
	cell, g := newGauge(t, Config{})
	cap := cell.Capacity()
	cell.SetSoC(0)
	// Charge 85% of capacity at 1 A.
	secs := 0.85 * cap
	for k := 0; k < int(secs); k += 60 {
		res := cell.StepCurrent(-1.0, 60)
		g.Observe(res.Current, res.TerminalV, 60)
	}
	if g.CycleCount() != 1 {
		t.Errorf("gauge cycle count = %d, want 1 after 85%% cumulative charge", g.CycleCount())
	}
}

func TestObserveZeroDtNoOp(t *testing.T) {
	_, g := newGauge(t, Config{})
	before := g.SoC()
	g.Observe(5, 3.7, 0)
	if g.SoC() != before {
		t.Error("dt=0 observation changed estimate")
	}
}

func TestLastReadings(t *testing.T) {
	_, g := newGauge(t, Config{})
	g.Observe(1.5, 3.65, 1)
	if st := g.ExportState(); st.LastI != 1.5 || st.LastV != 3.65 {
		t.Errorf("last readings = %g A, %g V", st.LastI, st.LastV)
	}
}

func TestInvertOCVRoundTrip(t *testing.T) {
	ocv := battery.OCVCoO2()
	for _, soc := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v := ocv.At(soc)
		got, ok := InvertOCV(ocv, v)
		if !ok {
			t.Fatalf("InvertOCV at soc %g reported out of range", soc)
		}
		if math.Abs(got-soc) > 1e-6 {
			t.Errorf("InvertOCV(OCV(%g)) = %g", soc, got)
		}
	}
}

func TestInvertOCVOutOfRange(t *testing.T) {
	ocv := battery.OCVCoO2()
	if _, ok := InvertOCV(ocv, 1.0); ok {
		t.Error("voltage below curve accepted")
	}
	if _, ok := InvertOCV(ocv, 5.0); ok {
		t.Error("voltage above curve accepted")
	}
	if _, ok := InvertOCV(battery.Curve{}, 3.7); ok {
		t.Error("zero curve accepted")
	}
}

func TestInvertOCVEndpoints(t *testing.T) {
	ocv := battery.OCVCoO2()
	if soc, ok := InvertOCV(ocv, ocv.At(0)); !ok || soc != 0 {
		t.Errorf("bottom endpoint: soc=%g ok=%v", soc, ok)
	}
	if soc, ok := InvertOCV(ocv, ocv.At(1)); !ok || soc != 1 {
		t.Errorf("top endpoint: soc=%g ok=%v", soc, ok)
	}
}

// Property: InvertOCV is the inverse of OCV within tolerance for any
// in-range voltage.
func TestInvertOCVProperty(t *testing.T) {
	ocv := battery.OCVCoO2()
	f := func(raw float64) bool {
		soc := math.Mod(math.Abs(raw), 1)
		got, ok := InvertOCV(ocv, ocv.At(soc))
		return ok && math.Abs(got-soc) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the gauge estimate always stays in [0, 1].
func TestGaugeSoCBoundsProperty(t *testing.T) {
	f := func(steps []float64) bool {
		cell := battery.MustNew(battery.MustByName("Watch-200"))
		g, err := New(cell, DefaultConfig())
		if err != nil {
			return false
		}
		for _, raw := range steps {
			i := math.Mod(raw, 2)
			if math.IsNaN(i) {
				continue
			}
			res := cell.StepCurrent(i, 30)
			g.Observe(res.Current, res.TerminalV, 30)
			if g.SoC() < 0 || g.SoC() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
