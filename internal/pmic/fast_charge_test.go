package pmic_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/circuit"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// chargeStep is one enforcement interval of a charge differential
// script.
type chargeStep struct{ loadW, extW float64 }

// chargeCase is a charge differential scenario: a pack at the given
// states of charge, setup applied to both twins, and segments of steps
// with an optional action (applied to both twins) before each segment.
type chargeCase struct {
	name     string
	socs     []float64
	setup    func(c *firmware.Controller) error
	segments []chargeSegment
}

type chargeSegment struct {
	before func(c *firmware.Controller) error
	steps  []chargeStep
	// fastLen is the fast segment length; the scalar twin steps the
	// same intervals one Step at a time.
	fastLen int
}

// repeat returns n copies of one step.
func repeat(n int, s chargeStep) []chargeStep {
	out := make([]chargeStep, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// testProfiles extends the standard table (every ceiling 4.2 V). In
// "low-cv" the constant-voltage ceiling sits at the pack's mid-charge
// potential, so a cell charged past it gets a zero CV current and the
// charger realizes zero. "high-cv" sits above a full cell's potential,
// so only Full stops a full cell's charge request.
func testProfiles() []circuit.ChargeProfile {
	return []circuit.ChargeProfile{
		{Name: "low-cv", CRate: 1, TrickleCRate: 0.2, ThresholdSoC: 0.95, CVVoltage: 3.9},
		{Name: "high-cv", CRate: 1, TrickleCRate: 0.5, ThresholdSoC: 0.95, CVVoltage: 4.5},
	}
}

func newChargeTwin(t *testing.T, socs []float64) *firmware.Controller {
	t.Helper()
	names := []string{"QuickCharge-2000", "Standard-2000", "EnergyMax-4000"}
	var cells []*battery.Cell
	for i, soc := range socs {
		c := battery.MustNew(battery.MustByName(names[i%len(names)]))
		c.SetSoC(soc)
		cells = append(cells, c)
	}
	cfg := firmware.DefaultConfig(battery.MustNewPack(cells...))
	cfg.Profiles = append(cfg.Profiles, testProfiles()...)
	c, err := firmware.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func gobOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameOut(a, b firmware.FastStepOut) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.DeliveredW, b.DeliveredW) && eq(a.CircuitLossW, b.CircuitLossW) &&
		eq(a.BatteryLossW, b.BatteryLossW) && eq(a.ChargedW, b.ChargedW) && a.Brownout == b.Brownout
}

// TestFastStepSuppliedMatchesStep is the charge half of the fast-path
// bit-identity contract: FastStepSupplied inside BeginFast/EndFast
// segments must reproduce Step(loadW, extW, dt) on a scalar twin — the
// same per-step outputs bit for bit, and the same ExportState (cells,
// gauges, registers, counters) after every EndFast.
func TestFastStepSuppliedMatchesStep(t *testing.T) {
	const dt = 10.0
	cases := []chargeCase{
		{
			// Constant current, then the CV taper, to within 1e-4 of
			// full.
			name: "cc-cv-to-full",
			socs: []float64{0.2, 0.35},
			segments: []chargeSegment{
				{steps: repeat(2200, chargeStep{2, 40}), fastLen: 97},
			},
		},
		{
			// A small surplus split by uneven ratios: the budget, not
			// the profile, limits each cell's charge power.
			name:  "budget-limited",
			socs:  []float64{0.4, 0.5, 0.3},
			setup: func(c *firmware.Controller) error { return c.Charge([]float64{0.6, 0.3, 0.1}) },
			segments: []chargeSegment{
				{steps: repeat(400, chargeStep{1, 2.5}), fastLen: 64},
			},
		},
		{
			// Cell 1 counts as full a hair below SoC 1, where a charge
			// request would still move charge: Full must gate it.
			name: "full-at-start",
			socs: []float64{1, 1 - 5e-10, 0.5},
			setup: func(c *firmware.Controller) error {
				for i := 0; i < 3; i++ {
					if err := c.SetChargeProfile(i, "high-cv"); err != nil {
						return err
					}
				}
				return nil
			},
			segments: []chargeSegment{
				{steps: repeat(300, chargeStep{3, 20}), fastLen: 50},
			},
		},
		{
			name:  "zero-charge-ratio",
			socs:  []float64{0.3, 0.3},
			setup: func(c *firmware.Controller) error { return c.Charge([]float64{1, 0}) },
			segments: []chargeSegment{
				{steps: repeat(300, chargeStep{2, 15}), fastLen: 33},
			},
		},
		{
			// Supply exactly covers the load: zero budget everywhere.
			name: "supply-equals-load",
			socs: []float64{0.5, 0.6},
			segments: []chargeSegment{
				{steps: repeat(120, chargeStep{4, 4}), fastLen: 40},
			},
		},
		{
			// Cell 0 sits above the low-CV ceiling: a zero CV current,
			// a realized current of zero, and a rest step. Cell 1 is
			// below it and tapers into it.
			name: "realized-zero",
			socs: []float64{0.97, 0.3},
			setup: func(c *firmware.Controller) error {
				if err := c.SetChargeProfile(0, "low-cv"); err != nil {
					return err
				}
				return c.SetChargeProfile(1, "low-cv")
			},
			segments: []chargeSegment{
				{steps: repeat(600, chargeStep{1, 30}), fastLen: 71},
			},
		},
		{
			// No commands arrive: the watchdog reverts uneven charge
			// ratios to the uniform split inside a segment.
			name: "watchdog-mid-segment",
			socs: []float64{0.3, 0.6},
			setup: func(c *firmware.Controller) error {
				c.SetWatchdog(250)
				return c.Charge([]float64{0.9, 0.1})
			},
			segments: []chargeSegment{
				{steps: repeat(200, chargeStep{1, 6}), fastLen: 64},
			},
		},
		{
			// Profiles change between segments; battery-power and
			// surplus steps mix within a segment, as the emulator
			// packs them.
			name: "profile-switch-and-mixed",
			socs: []float64{0.25, 0.45},
			segments: []chargeSegment{
				{steps: repeat(150, chargeStep{2, 20}), fastLen: 50},
				{
					before: func(c *firmware.Controller) error {
						if err := c.SetChargeProfile(0, "fast"); err != nil {
							return err
						}
						return c.SetChargeProfile(1, "gentle")
					},
					steps: func() []chargeStep {
						var s []chargeStep
						for k := 0; k < 210; k++ {
							switch k % 7 {
							case 0, 1, 2:
								s = append(s, chargeStep{3, 0})
							case 3:
								s = append(s, chargeStep{0, 0})
							default:
								s = append(s, chargeStep{2, 25})
							}
						}
						return s
					}(),
					fastLen: 45,
				},
				{
					before:  func(c *firmware.Controller) error { return c.SetChargeProfile(0, "standard") },
					steps:   repeat(100, chargeStep{0, 12}),
					fastLen: 100,
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, fast := newChargeTwin(t, tc.socs), newChargeTwin(t, tc.socs)
			if err := fast.AttachFast(batch.New()); err != nil {
				t.Fatal(err)
			}
			both := func(f func(c *firmware.Controller) error) {
				t.Helper()
				if f == nil {
					return
				}
				if err := f(ref); err != nil {
					t.Fatal(err)
				}
				if err := f(fast); err != nil {
					t.Fatal(err)
				}
			}
			both(tc.setup)
			k := 0
			for si, seg := range tc.segments {
				both(seg.before)
				for done := 0; done < len(seg.steps); {
					n := min(seg.fastLen, len(seg.steps)-done)
					want := make([]firmware.FastStepOut, n)
					for j := range want {
						s := seg.steps[done+j]
						rep, err := ref.Step(s.loadW, s.extW, dt)
						if err != nil {
							t.Fatal(err)
						}
						want[j] = firmware.FastStepOut{
							DeliveredW:   rep.DeliveredW,
							CircuitLossW: rep.CircuitLossW,
							BatteryLossW: rep.BatteryLossW,
							ChargedW:     rep.ChargedW,
							Brownout:     rep.Faults&firmware.FaultBrownout != 0,
						}
					}
					if !fast.BeginFast() {
						t.Fatal("BeginFast refused a clean controller")
					}
					for j := range want {
						s := seg.steps[done+j]
						if got := fast.FastStepSupplied(s.loadW, s.extW, dt); !sameOut(got, want[j]) {
							fast.EndFast(j)
							t.Fatalf("segment %d step %d (%+v): fast %+v != scalar %+v", si, k+j, s, got, want[j])
						}
					}
					fast.EndFast(n)
					if !bytes.Equal(gobOf(t, fast.ExportState()), gobOf(t, ref.ExportState())) {
						t.Fatalf("segment %d: ExportState differs after EndFast at step %d", si, k+n)
					}
					done += n
					k += n
				}
			}
			if tc.name == "cc-cv-to-full" {
				// The CV taper approaches full asymptotically.
				for i, cell := range fast.Pack().Cells() {
					if cell.SoC() < 0.9999 {
						t.Errorf("cell %d at SoC %v, want the end of the CV taper", i, cell.SoC())
					}
				}
			}
			if tc.name == "watchdog-mid-segment" && fast.WatchdogFires() == 0 {
				t.Error("watchdog never fired")
			}
		})
	}
}

// fuzzBytes hands a fuzz input out a byte at a time, zeros once it is
// spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// unit returns a value in [0, 1] from the next two bytes.
func (b *fuzzBytes) unit() float64 {
	return float64(uint16(b.next())<<8|uint16(b.next())) / 65535
}

// ratios returns n ratios summing to one from n weight bytes (a zero
// weight is a zero ratio; all zero is the uniform split).
func (b *fuzzBytes) ratios(n int) []float64 {
	r := make([]float64, n)
	var sum float64
	for i := range r {
		r[i] = float64(b.next())
		sum += r[i]
	}
	for i := range r {
		if sum == 0 {
			r[i] = 1 / float64(n)
		} else {
			r[i] /= sum
		}
	}
	return r
}

// FuzzFastSegment holds fuzzed fast segments to Step. A pack of two or
// three cells at fuzzed charge is stepped through segments of 1–64
// steps, each with a load of zero or more, an external supply of zero
// or at least the load, and a dt in (0, 10]; between segments come
// discharge and charge ratio writes and watchdog settings short enough
// to expire mid-segment. The fast controller's pack sits behind another
// device's pack in a shared engine, so its lanes start at a nonzero
// offset. After every EndFast each step's FastStepOut and the
// controller's ExportState must equal a twin stepped through Step, bit
// for bit.
func FuzzFastSegment(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		b := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		in := fuzzBytes(script)
		n := 2 + int(in.next()%2)
		socs := make([]float64, n)
		for i := range socs {
			socs[i] = 0.02 + 0.98*in.unit()
		}
		ref, fast := newChargeTwin(t, socs), newChargeTwin(t, socs)
		eng := batch.New()
		if err := newChargeTwin(t, []float64{0.5, 0.7}).AttachFast(eng); err != nil {
			t.Fatal(err)
		}
		if err := fast.AttachFast(eng); err != nil {
			t.Fatal(err)
		}
		type step struct{ loadW, extW, dt float64 }
		for seg := 0; seg < 8 && len(in) > 0; seg++ {
			switch in.next() % 4 {
			case 1:
				r := in.ratios(n)
				if a, b := ref.Discharge(r), fast.Discharge(r); (a == nil) != (b == nil) {
					t.Fatalf("Discharge(%v): scalar %v, fast %v", r, a, b)
				}
			case 2:
				r := in.ratios(n)
				if a, b := ref.Charge(r), fast.Charge(r); (a == nil) != (b == nil) {
					t.Fatalf("Charge(%v): scalar %v, fast %v", r, a, b)
				}
			case 3:
				w := float64(in.next() % 40)
				ref.SetWatchdog(w)
				fast.SetWatchdog(w)
			}
			steps := make([]step, 1+int(in.next()%64))
			want := make([]firmware.FastStepOut, len(steps))
			for k := range steps {
				s := &steps[k]
				switch in.next() % 4 {
				case 1:
					s.loadW = 5 * in.unit()
				case 2:
					s.loadW = 40 * in.unit()
				case 3:
					s.loadW = 400 * in.unit() // overload: caps, redistribution, brownout
				}
				switch in.next() % 3 {
				case 1:
					s.extW = s.loadW
				case 2:
					s.extW = s.loadW + 40*in.unit()
				}
				s.dt = 10 * (1 + float64(uint16(in.next())<<8|uint16(in.next()))) / 65536
				rep, err := ref.Step(s.loadW, s.extW, s.dt)
				if err != nil {
					t.Fatal(err)
				}
				want[k] = firmware.FastStepOut{
					DeliveredW:   rep.DeliveredW,
					CircuitLossW: rep.CircuitLossW,
					BatteryLossW: rep.BatteryLossW,
					ChargedW:     rep.ChargedW,
					Brownout:     rep.Faults&firmware.FaultBrownout != 0,
				}
			}
			if !fast.BeginFast() {
				t.Fatal("BeginFast refused a clean controller")
			}
			for k, s := range steps {
				if got := fast.FastStepSupplied(s.loadW, s.extW, s.dt); !sameOut(got, want[k]) {
					fast.EndFast(k)
					t.Fatalf("segment %d step %d (%+v): fast %+v != scalar %+v", seg, k, s, got, want[k])
				}
			}
			fast.EndFast(len(steps))
			if !bytes.Equal(gobOf(t, fast.ExportState()), gobOf(t, ref.ExportState())) {
				t.Fatalf("segment %d: ExportState differs after EndFast", seg)
			}
		}
	})
}

// TestQueryBatteryStatusIntoNoAllocs pins the allocation-free status
// query into a reused slice, and that it matches QueryBatteryStatus.
func TestQueryBatteryStatusIntoNoAllocs(t *testing.T) {
	c := newTestController(t, 0.6)
	want, err := c.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]pmic.BatteryStatus, 1, 4)
	buf[0].Name = "stale"
	got, err := c.QueryBatteryStatusInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || &got[0] != &buf[0] {
		t.Fatalf("Into returned %d records, reused dst = %v", len(got), &got[0] == &buf[0])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("status %d: Into %+v, QueryBatteryStatus %+v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		got, err = c.QueryBatteryStatusInto(got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("QueryBatteryStatusInto allocates %v times, want 0", allocs)
	}
}
