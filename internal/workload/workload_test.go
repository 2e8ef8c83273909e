package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceValidate(t *testing.T) {
	good := Constant("c", 1, 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for i, w := range []float64{math.Copysign(0, -1), math.MaxFloat64} {
		tr := &Trace{Name: "x", DT: 1, Load: []float64{w}, External: []float64{w}}
		if err := tr.Validate(); err != nil {
			t.Errorf("good sample %d (%g) rejected: %v", i, w, err)
		}
	}
	bad := []*Trace{
		{Name: "", DT: 1, Load: []float64{1}},
		{Name: "x", DT: 0, Load: []float64{1}},
		{Name: "x", DT: math.NaN(), Load: []float64{1}},
		{Name: "x", DT: math.Inf(1), Load: []float64{1}},
		{Name: "x", DT: math.Inf(-1), Load: []float64{1}},
		{Name: "x", DT: 1, Load: nil},
		{Name: "x", DT: 1, Load: []float64{-1}},
		{Name: "x", DT: 1, Load: []float64{math.NaN()}},
		{Name: "x", DT: 1, Load: []float64{math.Inf(1)}},
		{Name: "x", DT: 1, Load: []float64{math.Inf(-1)}},
		{Name: "x", DT: 1, Load: []float64{1, 2}, External: []float64{1}},
		{Name: "x", DT: 1, Load: []float64{1}, External: []float64{-2}},
		{Name: "x", DT: 1, Load: []float64{1}, External: []float64{math.Inf(1)}},
		{Name: "x", DT: 1, Load: []float64{1}, External: []float64{math.Inf(-1)}},
		{Name: "x", DT: 1, Load: []float64{1}, External: []float64{math.NaN()}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
	// The error names the offending sample and its value.
	tr := &Trace{Name: "x", DT: 1, Load: []float64{1, math.Inf(-1)}}
	if err := tr.Validate(); err == nil || err.Error() != "workload: trace x: bad load sample 1: -Inf" {
		t.Errorf("error = %v", err)
	}
	// The result is memoized: a later call returns the same error value.
	if a, b := tr.Validate(), tr.Validate(); a != b {
		t.Errorf("second Validate returned a fresh error %p, first %p", b, a)
	}
}

func TestConstantTrace(t *testing.T) {
	tr := Constant("five", 5, 100, 1)
	if tr.Len() != 100 || tr.Duration() != 100 {
		t.Fatalf("len=%d duration=%g", tr.Len(), tr.Duration())
	}
	if tr.EnergyJ() != 500 {
		t.Errorf("energy = %g, want 500", tr.EnergyJ())
	}
	if tr.MeanW() != 5 || tr.PeakW() != 5 {
		t.Errorf("mean=%g peak=%g", tr.MeanW(), tr.PeakW())
	}
	load, ext := tr.At(50)
	if load != 5 || ext != 0 {
		t.Errorf("At(50) = %g, %g", load, ext)
	}
}

func TestTraceAtClamps(t *testing.T) {
	tr := Constant("c", 2, 10, 1)
	if l, _ := tr.At(-5); l != 2 {
		t.Error("At before start did not clamp")
	}
	if l, _ := tr.At(1e9); l != 2 {
		t.Error("At past end did not clamp")
	}
}

func TestSquareTrace(t *testing.T) {
	tr := Square("sq", 1, 9, 10, 0.3, 100, 1)
	if math.Abs(tr.MeanW()-(9*0.3+1*0.7)) > 0.2 {
		t.Errorf("square mean = %g, want ~3.4", tr.MeanW())
	}
	if tr.PeakW() != 9 {
		t.Errorf("square peak = %g", tr.PeakW())
	}
}

func TestTraceSlice(t *testing.T) {
	tr := Constant("c", 3, 100, 1)
	s, err := tr.Slice(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Errorf("slice len = %d", s.Len())
	}
	if _, err := tr.Slice(90, 80); err == nil {
		t.Error("inverted slice accepted")
	}
	if _, err := tr.Slice(0, 1e9); err == nil {
		t.Error("out-of-range slice accepted")
	}
}

func TestTraceScaleAndConcat(t *testing.T) {
	a := Constant("a", 2, 10, 1)
	b := Constant("b", 4, 10, 1)
	double := a.Scale(2)
	if double.MeanW() != 4 {
		t.Errorf("scaled mean = %g", double.MeanW())
	}
	cat, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 20 || math.Abs(cat.MeanW()-3) > 1e-9 {
		t.Errorf("concat len=%d mean=%g", cat.Len(), cat.MeanW())
	}
	c := Constant("c", 1, 10, 2)
	if _, err := a.Concat(c); err == nil {
		t.Error("DT mismatch accepted")
	}
}

func TestConcatMixedExternal(t *testing.T) {
	a := Constant("a", 2, 10, 1)
	b := ChargeSession("b", 10, 1, 10, 1)
	cat, err := a.Concat(b)
	if err != nil {
		t.Fatal(err)
	}
	if cat.External == nil || len(cat.External) != 20 {
		t.Fatal("concat lost external channel")
	}
	if cat.External[5] != 0 || cat.External[15] != 10 {
		t.Errorf("external = %g, %g", cat.External[5], cat.External[15])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := ChargeSession("plug", 12, 2.5, 30, 0.5)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "plug")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.DT != tr.DT {
		t.Fatalf("round trip len=%d dt=%g, want %d/%g", got.Len(), got.DT, tr.Len(), tr.DT)
	}
	for i := range tr.Load {
		if got.Load[i] != tr.Load[i] || got.External[i] != tr.External[i] {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestCSVNoExternalChannelOmitted(t *testing.T) {
	tr := Constant("c", 1, 10, 1)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "c")
	if err != nil {
		t.Fatal(err)
	}
	if got.External != nil {
		t.Error("all-zero external column not elided")
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"a,b,c\n1,2,3\n2,2,3",
		"t_s,load_w,external_w\n0,nope,0\n1,1,0\n2,1,0",
		"t_s,load_w,external_w\nx,1,0\n1,1,0\n2,1,0",
		"t_s,load_w,external_w\n0,1,zz\n1,1,0\n2,1,0",
		"t_s,load_w,external_w\n0,1,0", // too short
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s), "g"); err == nil {
			t.Errorf("garbage csv %d accepted", i)
		}
	}
}

func TestSmartwatchDayShape(t *testing.T) {
	tr := SmartwatchDay(DefaultSmartwatchDay())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Duration()-24*3600) > 60 {
		t.Fatalf("duration = %g", tr.Duration())
	}
	// Run window must dominate the idle floor.
	runLoad, _ := tr.At(9.5 * 3600)
	nightLoad, _ := tr.At(3 * 3600)
	if runLoad < 5*nightLoad {
		t.Errorf("run load %g not well above night load %g", runLoad, nightLoad)
	}
	// Night must be pure idle (no message checks while asleep).
	w := Watch()
	for _, h := range []float64{0.5, 2, 4, 6} {
		if l, _ := tr.At(h * 3600); l != w.IdleW {
			t.Errorf("hour %g load %g, want idle %g", h, l, w.IdleW)
		}
	}
}

func TestSmartwatchDayRunToggle(t *testing.T) {
	with := SmartwatchDay(DefaultSmartwatchDay())
	cfg := DefaultSmartwatchDay()
	cfg.IncludeRun = false
	without := SmartwatchDay(cfg)
	if with.EnergyJ() <= without.EnergyJ() {
		t.Error("run did not add energy")
	}
}

func TestSmartwatchDayDeterministic(t *testing.T) {
	a := SmartwatchDay(DefaultSmartwatchDay())
	b := SmartwatchDay(DefaultSmartwatchDay())
	for i := range a.Load {
		if a.Load[i] != b.Load[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestTwoInOneWorkloads(t *testing.T) {
	ws := TwoInOneWorkloads()
	if len(ws) != 8 {
		t.Fatalf("workload count = %d, want 8 (Figure 14)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		tr := w.Trace(3600, 1)
		if err := tr.Validate(); err != nil {
			t.Errorf("workload %s trace invalid: %v", w.Name, err)
		}
		if math.Abs(tr.MeanW()-w.MeanW) > 0.15*w.MeanW {
			t.Errorf("workload %s mean %g, want ~%g", w.Name, tr.MeanW(), w.MeanW)
		}
	}
}

func TestChargeSession(t *testing.T) {
	tr := ChargeSession("plug", 30, 5, 100, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	load, ext := tr.At(50)
	if load != 5 || ext != 30 {
		t.Errorf("At = %g, %g", load, ext)
	}
}

func TestDiurnalShape(t *testing.T) {
	tr := Diurnal("phone-day", Phone(), 7, 60)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	evening, _ := tr.At(20 * 3600)
	night, _ := tr.At(3 * 3600)
	if evening <= night {
		t.Errorf("evening %g not above night %g", evening, night)
	}
}

func TestDeviceProfilesSane(t *testing.T) {
	for _, d := range []Device{Tablet(), Phone(), Watch()} {
		if d.IdleW <= 0 || d.CPUBaseW <= 0 || d.CPUPeakW < d.CPUBurstW || d.CPUBurstW < d.CPUBaseW {
			t.Errorf("device %s power ladder broken: %+v", d.Name, d)
		}
	}
	if Watch().GPSW <= 0 {
		t.Error("watch needs GPS power for the running scenario")
	}
	if Tablet().ChargerW <= Phone().ChargerW {
		t.Error("tablet charger should outpower phone charger")
	}
}

func TestTurboModelCalibration(t *testing.T) {
	m, err := TabletTurboModel(Tablet(), 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	compute, err := m.Sweep(ComputeTask())
	if err != nil {
		t.Fatal(err)
	}
	network, err := m.Sweep(NetworkTask())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: compute-bound scores up to 26% better.
	gain := compute[0].LatencyS/compute[2].LatencyS - 1
	if gain < 0.15 || gain > 0.35 {
		t.Errorf("compute latency gain = %.1f%%, want ~26%%", gain*100)
	}
	// Paper: network-bound energy up to 20.6% higher with no latency
	// benefit.
	eOver := network[2].EnergyJ/network[0].EnergyJ - 1
	if eOver < 0.10 || eOver > 0.30 {
		t.Errorf("network energy overhead = %.1f%%, want ~20.6%%", eOver*100)
	}
	latDelta := math.Abs(network[2].LatencyS/network[0].LatencyS - 1)
	if latDelta > 0.02 {
		t.Errorf("network latency changed by %.1f%% across levels", latDelta*100)
	}
}

func TestTurboLevelsMonotonic(t *testing.T) {
	m, err := TabletTurboModel(Tablet(), 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(m.LowCapW <= m.MediumCapW && m.MediumCapW <= m.HighCapW) {
		t.Errorf("caps not monotone: %g %g %g", m.LowCapW, m.MediumCapW, m.HighCapW)
	}
	res, err := m.Sweep(ComputeTask())
	if err != nil {
		t.Fatal(err)
	}
	if !(res[0].LatencyS >= res[1].LatencyS && res[1].LatencyS >= res[2].LatencyS) {
		t.Error("compute latency not monotone in power level")
	}
}

func TestTurboModelValidation(t *testing.T) {
	if _, err := TabletTurboModel(Tablet(), 0, 8); err == nil {
		t.Error("zero battery peak accepted")
	}
	m, _ := TabletTurboModel(Tablet(), 6, 8)
	if _, err := m.Run(Task{}, LevelLow); err == nil {
		t.Error("invalid task accepted")
	}
	if _, err := m.Run(Task{Name: "x", BaseLatencyS: -1}, LevelLow); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := m.Run(Task{Name: "x", BaseLatencyS: 1, ComputeFraction: 2}, LevelLow); err == nil {
		t.Error("compute fraction 2 accepted")
	}
}

func TestPowerLevelStrings(t *testing.T) {
	if LevelLow.String() != "low" || LevelMedium.String() != "medium" || LevelHigh.String() != "high" {
		t.Error("level names changed")
	}
	if len(Levels()) != 3 {
		t.Error("Levels() != 3 entries")
	}
}

// Property: CSV round trip preserves any generated constant trace.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(rawW, rawDT float64, n uint8) bool {
		w := math.Mod(math.Abs(rawW), 100)
		dt := 0.1 + math.Mod(math.Abs(rawDT), 10)
		dur := float64(n%50+2) * dt
		tr := Constant("p", w, dur, dt)
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, "p")
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Load {
			if got.Load[i] != tr.Load[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResampleDownPreservesEnergy(t *testing.T) {
	tr := Square("sq", 1, 9, 10, 0.3, 600, 1)
	down, err := tr.Resample(10)
	if err != nil {
		t.Fatal(err)
	}
	if down.Len() != 60 {
		t.Fatalf("resampled len = %d, want 60", down.Len())
	}
	if math.Abs(down.EnergyJ()-tr.EnergyJ()) > 0.01*tr.EnergyJ() {
		t.Errorf("energy changed: %g -> %g", tr.EnergyJ(), down.EnergyJ())
	}
}

func TestResampleUpHoldsValues(t *testing.T) {
	tr := Constant("c", 5, 60, 10)
	up, err := tr.Resample(1)
	if err != nil {
		t.Fatal(err)
	}
	if up.Len() != 60 {
		t.Fatalf("upsampled len = %d", up.Len())
	}
	for i, w := range up.Load {
		if w != 5 {
			t.Fatalf("sample %d = %g", i, w)
		}
	}
}

func TestResamplePreservesExternalChannel(t *testing.T) {
	tr := ChargeSession("plug", 12, 2, 120, 1)
	down, err := tr.Resample(30)
	if err != nil {
		t.Fatal(err)
	}
	if down.External == nil || down.External[0] != 12 {
		t.Error("external channel lost in resampling")
	}
}

func TestResampleValidation(t *testing.T) {
	tr := Constant("c", 1, 10, 1)
	if _, err := tr.Resample(0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := tr.Resample(1e6); err == nil {
		t.Error("collapsing resample accepted")
	}
}

// TestTraceHash: Hash(stride) is a function of DT, Load, External and
// the stride alone: an equal trace built apart hashes alike, and a
// change to any one of them, External's presence included, changes the
// hash.
func TestTraceHash(t *testing.T) {
	build := func(edit func(*Trace)) *Trace {
		tr := Square("sq", 1, 3, 10, 0.5, 100, 0.25) // 400 samples
		tr.External = make([]float64, tr.Len())
		tr.External[17] = 2
		if edit != nil {
			edit(tr)
		}
		return tr
	}
	base := build(nil)
	want := base.Hash(7)
	if got := base.Hash(7); got != want {
		t.Fatalf("second Hash(7) = %#x, first %#x", got, want)
	}
	if got := build(func(tr *Trace) { tr.Name = "renamed" }).Hash(7); got != want {
		t.Errorf("an equal trace under another name hashes to %#x, want %#x", got, want)
	}
	for name, h := range map[string]uint64{
		"stride":            base.Hash(1),
		"one load sample":   build(func(tr *Trace) { tr.Load[399] = math.Nextafter(tr.Load[399], 10) }).Hash(7),
		"one supply sample": build(func(tr *Trace) { tr.External[17] = 2.5 }).Hash(7),
		"supply presence":   build(func(tr *Trace) { tr.External = nil }).Hash(7),
		"dt":                build(func(tr *Trace) { tr.DT = 0.5 }).Hash(7),
		"length":            build(func(tr *Trace) { tr.Load, tr.External = tr.Load[:399], tr.External[:399] }).Hash(7),
	} {
		if h == want {
			t.Errorf("changing the %s left the hash at %#x", name, h)
		}
	}
}
