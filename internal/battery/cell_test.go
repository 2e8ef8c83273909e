package battery

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// maxDischargeCurrent is the discharge counterpart of MaxChargeCurrent:
// the C-rate limit against current capacity, thermally derated.
func (c *Cell) maxDischargeCurrent() float64 {
	return c.p.MaxDischargeC * c.s.Capacity / 3600 * thermalDerate(c.p, c.s.TempC)
}

// maxChargePower is Snapshot's MaxChargeW from fresh lookups.
func (c *Cell) maxChargePower() float64 {
	ocv, r, _ := c.s.Entry(c.p)
	return c.maxChargePowerAt(ocv, r)
}

// testParams returns a 2 Ah Type 2 cell for unit tests.
func testParams() Params {
	return makeParams("test-2000", ChemType2, 2.0, 0.1)
}

func TestParamsValidate(t *testing.T) {
	mod := func(f func(*Params)) Params {
		p := testParams()
		f(&p)
		return p
	}
	tests := []struct {
		name    string
		p       Params
		wantErr string
	}{
		{"valid", testParams(), ""},
		{"no name", mod(func(p *Params) { p.Name = "" }), "Name"},
		{"zero capacity", mod(func(p *Params) { p.CapacityAh = 0 }), "CapacityAh"},
		{"no ocv", mod(func(p *Params) { p.OCV = Curve{} }), "OCV"},
		{"no dcir", mod(func(p *Params) { p.DCIR = Curve{} }), "DCIR"},
		{"negative rc", mod(func(p *Params) { p.ConcentrationR = -1 }), "RC"},
		{"zero c-rate", mod(func(p *Params) { p.MaxChargeC = 0 }), "C-rate"},
		{"zero rated cycles", mod(func(p *Params) { p.RatedCycles = 0 }), "RatedCycles"},
		{"fade too big", mod(func(p *Params) { p.FadePerCycle = 1 }), "FadePerCycle"},
		{"fade without ref", mod(func(p *Params) { p.FadeRefC = 0 }), "FadeRefC"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tt.wantErr)
			}
		})
	}
}

func TestNewStartsFull(t *testing.T) {
	c := MustNew(testParams())
	if c.SoC() != 1 {
		t.Errorf("new cell SoC = %g, want 1", c.SoC())
	}
	if !c.Full() || c.Empty() {
		t.Error("new cell should be Full and not Empty")
	}
	if got, want := c.Capacity(), 2.0*3600; got != want {
		t.Errorf("Capacity = %g, want %g", got, want)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	p := testParams()
	p.CapacityAh = -1
	if _, err := New(p); err == nil {
		t.Fatal("New with invalid params succeeded")
	}
}

func TestDischargeLowersSoC(t *testing.T) {
	c := MustNew(testParams())
	// 1 A for 360 s = 360 C out of 7200 C => SoC drops by 0.05.
	res := c.StepCurrent(1.0, 360)
	if res.Clamped {
		t.Fatal("modest discharge was clamped")
	}
	if got, want := c.SoC(), 0.95; math.Abs(got-want) > 1e-9 {
		t.Errorf("SoC after discharge = %g, want %g", got, want)
	}
	if res.ChargeMoved != 360 {
		t.Errorf("ChargeMoved = %g, want 360", res.ChargeMoved)
	}
}

func TestChargeRaisesSoC(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.5)
	res := c.StepCurrent(-1.0, 360)
	if got, want := c.SoC(), 0.55; math.Abs(got-want) > 1e-9 {
		t.Errorf("SoC after charge = %g, want %g", got, want)
	}
	if res.PowerW >= 0 {
		t.Errorf("charging PowerW = %g, want negative (absorbed)", res.PowerW)
	}
}

func TestTerminalVoltageSagsUnderLoad(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.5)
	open := c.TerminalVoltage(0)
	loaded := c.TerminalVoltage(2.0)
	if loaded >= open {
		t.Errorf("terminal voltage under load %g >= open voltage %g", loaded, open)
	}
	wantDrop := 2.0 * c.DCIR()
	if got := open - loaded; math.Abs(got-wantDrop) > 1e-9 {
		t.Errorf("IR drop = %g, want %g", got, wantDrop)
	}
}

func TestTerminalVoltageRisesWhileCharging(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.5)
	if v := c.TerminalVoltage(-1.0); v <= c.OCV() {
		t.Errorf("charging terminal voltage %g <= OCV %g", v, c.OCV())
	}
}

func TestStepPowerDeliversRequestedPower(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.7)
	res := c.StepPower(3.0, 1)
	if math.Abs(res.PowerW-3.0) > 1e-6 {
		t.Errorf("StepPower(3W) delivered %g W", res.PowerW)
	}
	if res.Current <= 0 {
		t.Errorf("discharge current = %g, want positive", res.Current)
	}
}

func TestStepPowerChargeAbsorbsRequestedPower(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.3)
	res := c.StepPower(-3.0, 1)
	if math.Abs(res.PowerW+3.0) > 1e-6 {
		t.Errorf("StepPower(-3W) absorbed %g W, want -3", res.PowerW)
	}
	if res.Current >= 0 {
		t.Errorf("charge current = %g, want negative", res.Current)
	}
}

func TestStepPowerClampsBeyondPeak(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.5)
	res := c.StepPower(1e6, 1)
	if !res.Clamped {
		t.Error("1 MW request was not clamped")
	}
	if res.PowerW > c.Params().NominalVoltage()*c.maxDischargeCurrent()+1 {
		t.Errorf("clamped power %g exceeds physical limit", res.PowerW)
	}
}

func TestDischargeClampsAtEmpty(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.001)
	res := c.StepCurrent(4.0, 3600)
	if !res.Clamped {
		t.Error("discharge past empty was not clamped")
	}
	if c.SoC() > 1e-9 {
		t.Errorf("SoC after draining = %g, want 0", c.SoC())
	}
	if !c.Empty() {
		t.Error("drained cell not Empty")
	}
}

func TestChargeClampsAtFull(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.999)
	res := c.StepCurrent(-4.0, 3600)
	if !res.Clamped {
		t.Error("charge past full was not clamped")
	}
	if c.SoC() < 1-1e-9 {
		t.Errorf("SoC after filling = %g, want 1", c.SoC())
	}
}

func TestRateLimitsClampCurrent(t *testing.T) {
	c := MustNew(testParams()) // 2 Ah, 2C discharge limit => 4 A
	c.SetSoC(0.5)
	res := c.StepCurrent(100, 1)
	if !res.Clamped {
		t.Error("over-rate discharge not clamped")
	}
	if math.Abs(res.Current-4.0) > 1e-9 {
		t.Errorf("clamped current = %g, want 4 (2C)", res.Current)
	}

	res = c.StepCurrent(-100, 1) // 0.7C charge limit => 1.4 A
	if !res.Clamped {
		t.Error("over-rate charge not clamped")
	}
	if math.Abs(res.Current+1.4) > 1e-9 {
		t.Errorf("clamped charge current = %g, want -1.4 (0.7C)", res.Current)
	}
}

func TestHeatMatchesI2R(t *testing.T) {
	p := testParams()
	p.ConcentrationR = 0 // isolate the DCIR term
	c := MustNew(p)
	c.SetSoC(0.7)
	r := c.DCIR()
	res := c.StepCurrent(2.0, 1)
	want := 4 * r
	if math.Abs(res.HeatW-want) > 1e-9 {
		t.Errorf("HeatW = %g, want I^2*R = %g", res.HeatW, want)
	}
}

func TestRCPairConvergesToSteadyState(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.8)
	rc := c.Params().ConcentrationR
	for i := 0; i < 50000; i++ {
		c.StepCurrent(1.0, 1)
		if c.SoC() < 0.3 {
			break
		}
	}
	want := 1.0 * rc
	if math.Abs(c.RCVoltage()-want) > 0.01*want {
		t.Errorf("RC voltage = %g, want steady state %g", c.RCVoltage(), want)
	}
}

func TestZeroDtIsNoOp(t *testing.T) {
	c := MustNew(testParams())
	before := c.SoC()
	res := c.StepCurrent(5, 0)
	if c.SoC() != before || res.ChargeMoved != 0 {
		t.Error("dt=0 step changed state")
	}
}

func TestEnergyConservation(t *testing.T) {
	// Chemical energy out must equal terminal energy plus heat.
	c := MustNew(testParams())
	chemBefore := c.EnergyRemainingJ()
	var delivered, heat float64
	for i := 0; i < 600; i++ {
		res := c.StepCurrent(2.0, 1)
		delivered += res.PowerW
		heat += res.HeatW
	}
	chemAfter := c.EnergyRemainingJ()
	chemOut := chemBefore - chemAfter
	// The RC pair stores a little energy (Cp*Vrc^2/2); allow 1% slack.
	if diff := math.Abs(chemOut - (delivered + heat)); diff > 0.01*chemOut {
		t.Errorf("energy imbalance: chem out %g J, terminal+heat %g J", chemOut, delivered+heat)
	}
}

func TestCycleCountingEightyPercentRule(t *testing.T) {
	c := MustNew(testParams())
	cap := c.Capacity()
	// Paper Section 5.1: charge to 50%, drain, charge 30% more => one
	// cycle at the 80% cumulative mark.
	c.SetSoC(0)
	c.StepCurrent(-1.0, 0.5*cap) // 50% of capacity in
	if c.CycleCount() != 0 {
		t.Fatalf("cycle counted at 50%% cumulative charge")
	}
	c.SetSoC(0)
	res := c.StepCurrent(-1.0, 0.3*cap/1.0+1) // 30% more
	if c.CycleCount() != 1 {
		t.Fatalf("CycleCount = %g after 80%% cumulative charge, want 1", c.CycleCount())
	}
	if !res.CycleCompleted {
		t.Error("StepResult.CycleCompleted not set on the crossing step")
	}
}

func TestAgingFadesCapacity(t *testing.T) {
	c := MustNew(testParams())
	before := c.Capacity()
	cycleCell(c, 1.0, 10)
	if c.CycleCount() < 9 {
		t.Fatalf("expected ~10 cycles, got %g", c.CycleCount())
	}
	if c.Capacity() >= before {
		t.Error("capacity did not fade after cycling")
	}
}

func TestFasterChargingAgesFaster(t *testing.T) {
	slow := MustNew(testParams())
	fast := MustNew(testParams())
	cycleCell(slow, 0.5, 30)
	cycleCell(fast, 1.4, 30)
	if fast.CapacityFraction() >= slow.CapacityFraction() {
		t.Errorf("fast charging (%.5f) should fade more than slow (%.5f)",
			fast.CapacityFraction(), slow.CapacityFraction())
	}
}

func TestAgingGrowsResistance(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.5)
	before := c.DCIR()
	cycleCell(c, 1.0, 20)
	c.SetSoC(0.5)
	if c.DCIR() <= before {
		t.Error("DCIR did not grow with cycling")
	}
}

func TestWearRatio(t *testing.T) {
	c := MustNew(testParams())
	cycleCell(c, 1.0, 8)
	want := c.CycleCount() / c.Params().RatedCycles
	if got := c.WearRatio(); math.Abs(got-want) > 1e-12 {
		t.Errorf("WearRatio = %g, want %g", got, want)
	}
}

func TestSnapshotReflectsState(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.42)
	s := c.Snapshot()
	if s.SoC != 0.42 || s.Name != "test-2000" || s.Chem != ChemType2 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
	if s.Bendable {
		t.Error("Type 2 snapshot reports Bendable")
	}
	if s.OCV != c.OCV() || s.DCIR != c.DCIR() {
		t.Error("snapshot OCV/DCIR mismatch")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := MustNew(testParams())
	dup := c.Clone()
	c.StepCurrent(2, 600)
	if dup.SoC() != 1 {
		t.Error("mutating original changed the clone")
	}
}

func TestResetRestoresFreshState(t *testing.T) {
	c := MustNew(testParams())
	cycleCell(c, 1.0, 5)
	c.Reset()
	if c.SoC() != 1 || c.CycleCount() != 0 || c.Capacity() != c.DesignCapacity() {
		t.Error("Reset did not restore fresh state")
	}
}

func TestMaxDischargePowerPositiveAndBounded(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0.5)
	p := c.MaxDischargePower()
	if p <= 0 {
		t.Fatalf("MaxDischargePower = %g, want positive", p)
	}
	v := c.OCV()
	r := c.DCIR()
	if peak := v * v / (4 * r); p > peak+1e-9 {
		t.Errorf("MaxDischargePower %g exceeds physics peak %g", p, peak)
	}
}

func TestMaxPowerZeroAtBounds(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(0)
	if c.MaxDischargePower() != 0 {
		t.Error("empty cell reports nonzero discharge power")
	}
	c.SetSoC(1)
	if c.maxChargePower() != 0 {
		t.Error("full cell reports nonzero charge power")
	}
}

func TestEnergyRemainingScalesWithSoC(t *testing.T) {
	c := MustNew(testParams())
	c.SetSoC(1)
	full := c.EnergyRemainingJ()
	c.SetSoC(0.5)
	half := c.EnergyRemainingJ()
	if half >= full || half <= 0 {
		t.Errorf("EnergyRemaining: full=%g half=%g", full, half)
	}
	c.SetSoC(0)
	if c.EnergyRemainingJ() != 0 {
		t.Error("empty cell has nonzero energy")
	}
}

func TestParamsDensityHelpers(t *testing.T) {
	p := MustByName("EnergyMax-8000")
	d := p.VolumetricDensityWhPerL(false)
	if d < 590 || d > 610 {
		t.Errorf("EnergyMax-8000 density = %g Wh/l, want ~600", d)
	}
	q := MustByName("QuickCharge-4000")
	plain := q.VolumetricDensityWhPerL(false)
	swelled := q.VolumetricDensityWhPerL(true)
	if swelled >= plain {
		t.Error("swelling did not reduce density")
	}
	if swelled < 495 || swelled > 515 {
		t.Errorf("fast-charge effective density = %g Wh/l, want 500-510", swelled)
	}
}

// Property: SoC always stays in [0,1] regardless of step inputs.
func TestSoCBoundsProperty(t *testing.T) {
	f := func(currents []float64) bool {
		c := MustNew(testParams())
		c.SetSoC(0.5)
		for _, raw := range currents {
			i := math.Mod(raw, 50)
			if math.IsNaN(i) {
				continue
			}
			c.StepCurrent(i, 60)
			if c.SoC() < 0 || c.SoC() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: discharging always dissipates heat (second law holds).
func TestHeatNonNegativeProperty(t *testing.T) {
	f := func(raw float64) bool {
		i := math.Mod(math.Abs(raw), 8)
		c := MustNew(testParams())
		c.SetSoC(0.6)
		res := c.StepCurrent(i, 1)
		return res.HeatW >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round-tripping charge (discharge X then charge X coulombs)
// returns SoC to its start, absent aging events.
func TestChargeDischargeRoundTripProperty(t *testing.T) {
	f := func(raw float64) bool {
		amt := math.Mod(math.Abs(raw), 0.3) // fraction of capacity, < 80% so no cycle fires
		c := MustNew(testParams())
		c.SetSoC(0.5)
		cap := c.Capacity()
		secs := amt * cap / 1.0
		c.StepCurrent(1.0, secs)
		c.StepCurrent(-1.0, secs)
		return math.Abs(c.SoC()-0.5) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// cycleCell runs n full charge/discharge cycles at the given charge
// current (amperes), discharging at 1C.
func cycleCell(c *Cell, chargeA float64, n int) {
	for k := 0; k < n; k++ {
		c.SetSoC(1)
		disA := c.Capacity() / 3600 // 1C
		for !c.Empty() {
			c.StepCurrent(disA, 60)
		}
		for !c.Full() {
			c.StepCurrent(-chargeA, 60)
		}
	}
}

func BenchmarkCellStepCurrent(b *testing.B) {
	c := MustNew(MustByName("Standard-2000"))
	c.SetSoC(0.6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.StepCurrent(1.0, 0.001)
	}
}

func BenchmarkCellStepPower(b *testing.B) {
	c := MustNew(MustByName("Standard-2000"))
	c.SetSoC(0.6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.StepPower(3.0, 0.001)
	}
}

// TestSnapshotMatchesAccessors: Snapshot looks OCV and DCIR up once and
// EnergyRemainingJ takes the dense-or-reference branch once, so every
// derived field must equal, bit for bit, what the accessors (and the
// per-point Curve.At integral) compute — on dense and reference curves,
// empty, full, mid-charge, polarized, hot and aged.
func TestSnapshotMatchesAccessors(t *testing.T) {
	dense := testParams()
	ref := dense
	ref.OCV = MustCurve(dense.OCV.xs, dense.OCV.ys)
	ref.DCIR = MustCurve(dense.DCIR.xs, dense.DCIR.ys)
	if !dense.OCV.IsDense() || ref.OCV.IsDense() || ref.DCIR.IsDense() {
		t.Fatal("test needs one dense and one reference cell")
	}
	perPoint := func(c *Cell) float64 {
		const steps = 50
		if c.s.SoC <= 0 {
			return 0
		}
		var sum float64
		for i := 0; i < steps; i++ {
			sum += c.p.OCV.At(c.s.SoC * (float64(i) + 0.5) / steps)
		}
		return sum / steps * c.s.SoC * c.s.Capacity
	}
	bits := math.Float64bits
	for _, p := range []Params{dense, ref} {
		for _, soc := range []float64{0, 1e-10, 0.37, 0.5, 1 - 5e-10, 1} {
			c := MustNew(p)
			c.SetSoC(soc)
			c.StepCurrent(2, 30) // polarize and warm the cell
			c.SetSoC(soc)
			c.s.VRC = 0.02
			c.s.R0Mult = 1.3
			s := c.Snapshot()
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"TerminalV", s.TerminalV, c.TerminalVoltage(0)},
				{"OCV", s.OCV, c.OCV()},
				{"DCIR", s.DCIR, c.DCIR()},
				{"MaxDischargeW", s.MaxDischargeW, c.MaxDischargePower()},
				{"MaxChargeW", s.MaxChargeW, c.maxChargePower()},
				{"EnergyRemainingJ", s.EnergyRemainingJ, perPoint(c)},
			} {
				if bits(f.got) != bits(f.want) {
					t.Errorf("dense=%v soc=%v %s = %v, want %v", p.OCV.IsDense(), soc, f.name, f.got, f.want)
				}
			}
		}
	}
}
