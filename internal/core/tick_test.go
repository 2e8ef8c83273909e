package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sdb/internal/pmic"
)

// TestNaNDirectiveMapsToZero: a NaN directive, from SetDirectives or
// from Options, is stored as 0, the zero-value directive. Stored as NaN
// it poisoned every blended vector, each tick failed with "invalid
// ratio NaN", and the runtime reached Failed on its 25th Update.
func TestNaNDirectiveMapsToZero(t *testing.T) {
	nan := math.NaN()
	_, rt := newStack(t, 0.6, Options{ChargingDirective: nan, DischargingDirective: nan})
	if chg, dis := rt.Directives(); chg != 0 || dis != 0 {
		t.Fatalf("Options directives NaN stored as %g, %g; want 0, 0", chg, dis)
	}
	rt.SetDirectives(0.4, 0.6)
	rt.SetDirectives(nan, nan)
	if chg, dis := rt.Directives(); chg != 0 || dis != 0 {
		t.Fatalf("SetDirectives(NaN, NaN) stored %g, %g; want 0, 0", chg, dis)
	}
	for i := 0; i < 30; i++ {
		if _, err := rt.Update(2, 3); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if h := rt.Health(); h != Healthy {
		t.Fatalf("health after 30 NaN-directive ticks = %v, want Healthy", h)
	}
	// The clamp itself: NaN and the edges.
	for _, c := range []struct{ in, want float64 }{
		{nan, 0}, {math.Inf(-1), 0}, {-0.5, 0}, {0, 0}, {0.25, 0.25}, {1, 1}, {7, 1}, {math.Inf(1), 1},
	} {
		if got := clamp01(c.in); got != c.want || math.Signbit(got) {
			t.Errorf("clamp01(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestUpdateNoAllocs pins the allocation-free policy tick: the default
// Blended stack over the in-process controller, on a discharge tick and
// on a charge tick, allocates nothing once the pooled scratch is warm.
func TestUpdateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, rt := newStack(t, 0.6, Options{ChargingDirective: 0.3, DischargingDirective: 0.7})
	for _, tc := range []struct {
		name           string
		loadW, chargeW float64
	}{
		{"discharge", 2, 0},
		{"charge", 0.5, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := rt.Update(tc.loadW, tc.chargeW); err != nil {
				t.Fatal(err)
			}
			var err error
			allocs := testing.AllocsPerRun(200, func() {
				if _, e := rt.Update(tc.loadW, tc.chargeW); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("policy tick allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestLastRatiosDistinctAfterSafeMode: SafeMode pushes one uniform
// slice as both vectors. The latched vectors must be stored as copies,
// or the next healthy tick, which refills them in place, writes the
// charge vector over the discharge one.
func TestLastRatiosDistinctAfterSafeMode(t *testing.T) {
	api := newScriptAPI()
	rt, err := NewRuntime(api, Options{
		DischargePolicy: FixedRatios{Ratios: []float64{0.9, 0.1}},
		ChargePolicy:    FixedRatios{Ratios: []float64{0.3, 0.7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	api.fail = true
	for rt.Health() != SafeMode {
		if _, err := rt.Update(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	api.fail = false
	res, err := rt.Update(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dis, chg := rt.LastRatios()
	if !slices.Equal(dis, []float64{0.9, 0.1}) || !slices.Equal(chg, []float64{0.3, 0.7}) {
		t.Fatalf("LastRatios after SafeMode then a healthy tick = %v / %v, want [0.9 0.1] / [0.3 0.7]", dis, chg)
	}
	if !slices.Equal(res.Discharge, dis) || !slices.Equal(res.Charge, chg) {
		t.Fatalf("UpdateResult = %v / %v, want %v / %v", res.Discharge, res.Charge, dis, chg)
	}
}

// TestUpdateConcurrentRuntimes: runtimes ticking on several goroutines
// at once share the pooled tick scratch and must not see each other's
// statuses or ratios. Each concurrent runtime must end with the
// vectors of a twin ticked alone.
func TestUpdateConcurrentRuntimes(t *testing.T) {
	const workers, ticks = 4, 200
	tick := func(rt *Runtime, w, k int) error {
		_, err := rt.Update(float64(1+w)+0.01*float64(k%7), float64(k%3)*float64(w))
		return err
	}
	want := make([][2][]float64, workers)
	for w := range want {
		_, rt := newStack(t, 0.3+0.1*float64(w), Options{ChargingDirective: 0.2 * float64(w), DischargingDirective: 0.9})
		for k := 0; k < ticks; k++ {
			if err := tick(rt, w, k); err != nil {
				t.Fatal(err)
			}
		}
		want[w][0], want[w][1] = rt.LastRatios()
	}
	rts := make([]*Runtime, workers)
	for w := range rts {
		_, rts[w] = newStack(t, 0.3+0.1*float64(w), Options{ChargingDirective: 0.2 * float64(w), DischargingDirective: 0.9})
	}
	errs := make(chan error, workers)
	for w := range rts {
		go func(w int) {
			for k := 0; k < ticks; k++ {
				if err := tick(rts[w], w, k); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for range rts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w, rt := range rts {
		dis, chg := rt.LastRatios()
		if !slices.Equal(dis, want[w][0]) || !slices.Equal(chg, want[w][1]) {
			t.Errorf("runtime %d: concurrent %v / %v, alone %v / %v", w, dis, chg, want[w][0], want[w][1])
		}
	}
}

// shortPolicy breaks the append contract: it appends one ratio too
// few.
type shortPolicy struct{}

func (shortPolicy) Name() string { return "short" }
func (shortPolicy) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, _ float64) ([]float64, error) {
	return appendUniform(dst, len(sts)-1), nil
}

// TestUpdateRejectsMiscountedPolicy: a policy that appends the wrong
// number of ratios fails the tick (and walks the ladder) instead of
// shifting the charge vector into the discharge one.
func TestUpdateRejectsMiscountedPolicy(t *testing.T) {
	ctrl, rt := newStack(t, 0.6, Options{DischargePolicy: shortPolicy{}})
	before, _ := ctrl.Ratios()
	if _, err := rt.Update(2, 0); err != nil {
		t.Fatal(err)
	}
	if rt.Health() != Degraded {
		t.Fatalf("health = %v, want Degraded", rt.Health())
	}
	if err := rt.LastError(); err == nil || !strings.Contains(err.Error(), "returned 1 ratios for 2 batteries") {
		t.Fatalf("last error = %v", err)
	}
	if after, _ := ctrl.Ratios(); !slices.Equal(after, before) {
		t.Fatalf("firmware ratios moved to %v", after)
	}
}

// fuzzSrc hands out fuzz bytes; an exhausted source reads zeros.
type fuzzSrc []byte

func (s *fuzzSrc) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// val returns one of the edge values or a value in [lo, hi].
func (s *fuzzSrc) val(lo, hi float64, edges ...float64) float64 {
	b := s.byte()
	if len(edges) > 0 && b%2 == 0 {
		return edges[int(b/2)%len(edges)]
	}
	return lo + (hi-lo)*float64(s.byte())/255
}

// fuzzStatuses decodes 1-8 battery statuses, with SoC at and around
// the policies' 0/1 thresholds, zero resistance, zero caps, and faulted
// cells reporting zero capability as the firmware does.
func fuzzStatuses(src *fuzzSrc) []pmic.BatteryStatus {
	n := 1 + int(src.byte()%8)
	sts := make([]pmic.BatteryStatus, n)
	for i := range sts {
		s := &sts[i]
		s.Index = i
		s.SoC = src.val(0, 1, 0, 1e-6, 1e-6+1e-12, 0.5, 1-1e-6, 1-1e-6-1e-12, 1, 1e-9)
		s.TerminalV = src.val(0.5, 4.4, 0, 3.7)
		s.DCIR = src.val(0.005, 0.5, 0, 0.05)
		s.DCIRSlope = src.val(-1, 1, 0)
		s.CapacityCoulombs = src.val(100, 20000, 0, 7200)
		s.WearRatio = src.val(0, 1.5, 0, 1)
		s.RatedCycles = src.val(300, 3000, 0, 1000)
		s.MaxDischargeW = src.val(0, 50, 0)
		s.MaxChargeW = src.val(0, 50, 0)
		s.TemperatureC = src.val(20, 70, 25)
		if src.byte()%5 == 0 {
			s.Faulted = true
			s.MaxDischargeW, s.MaxChargeW = 0, 0
		}
	}
	return sts
}

// FuzzPolicies runs every built-in policy in its append form against
// the allocating reference implementation it replaced
// (policy_ref_test.go) and requires bit-equal vectors and equal
// errors. dst carries a prefix, which must survive, and spare capacity
// filled with NaN, so a policy that reads scratch it did not write
// (relying on make's zeroing) fails.
func FuzzPolicies(f *testing.F) {
	f.Add([]byte{}, 2.0, 0.5)
	f.Add([]byte{1, 0, 0, 2, 1, 4, 9}, 0.0, 0.0)
	f.Add([]byte{7, 3, 12, 1, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 35.0, 1.0)
	f.Add([]byte{2, 1, 9, 0, 0, 1, 3, 5, 77, 12, 8, 0, 1, 2, 9, 9, 9, 4, 0}, 6.5, 0.25)
	f.Add([]byte{5, 12, 3, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, 500.0, 0.9)
	f.Add([]byte{3, 2, 5, 255, 254, 1, 0, 3, 3, 3, 0, 0, 6, 6, 6, 6, 6, 6, 6, 6, 6, 1, 13, 11}, -1.0, 2.0)
	// Reserve with every cell empty: its ratios must be zeroed, not
	// read from NaN scratch (found by the fuzzer against a mutant that
	// skipped the zeroing).
	f.Add([]byte("02000000000000000000000000000000000000000"), 417.0, 0.09)
	f.Fuzz(func(t *testing.T, data []byte, totalW, d float64) {
		if math.IsNaN(d) {
			// The one intended difference: a NaN directive now counts as
			// 0 (TestNaNDirectiveMapsToZero) where the reference failed.
			d = 0
		}
		src := fuzzSrc(data)
		prefix := int(src.byte() % 4)
		sts := fuzzStatuses(&src)
		n := len(sts)
		spare := int(src.byte()) % (4*n + 2)
		fixed := make([]float64, n+int(src.byte()%3)-1)
		for i := range fixed {
			fixed[i] = src.val(-0.1, 1, 0)
		}
		reserve := Reserve{
			ReserveIdx: int(src.byte()%uint8(n+2)) - 1,
			SpillW:     src.val(0, 20, 0),
			HighPowerW: src.val(0, 40, 0),
		}
		guard := ThermalGuard{
			Inner:      RBLDischarge{DerivativeAware: true},
			SoftLimitC: src.val(30, 50, 0, 40),
			HardLimitC: src.val(40, 70, 45),
		}
		blended := NewBlended(func() (float64, float64) { return d, d })
		orig := slices.Clone(sts)

		type pair struct {
			name string
			got  func(dst []float64) ([]float64, error)
			want refPolicy
		}
		dis := func(p DischargePolicy) func([]float64) ([]float64, error) {
			return func(dst []float64) ([]float64, error) { return p.DischargeRatios(dst, sts, totalW) }
		}
		chg := func(p ChargePolicy) func([]float64) ([]float64, error) {
			return func(dst []float64) ([]float64, error) { return p.ChargeRatios(dst, sts, totalW) }
		}
		rblDeriv := refRBLDischarge(RBLDischarge{DerivativeAware: true})
		for _, c := range []pair{
			{"rbl-discharge", dis(RBLDischarge{}), refRBLDischarge(RBLDischarge{})},
			{"rbl-discharge-derivative", dis(RBLDischarge{DerivativeAware: true}), rblDeriv},
			{"rbl-charge", chg(RBLCharge{}), refRBLCharge},
			{"ccb-discharge", dis(CCBDischarge{}), refCCBDischarge},
			{"ccb-charge", chg(CCBCharge{}), refCCBCharge},
			{"blended-discharge", dis(blended), refBlended(refCCBDischarge, rblDeriv, d)},
			{"blended-charge", chg(blended), refBlended(refCCBCharge, refRBLCharge, d)},
			{"reserve", dis(reserve), refReserve(reserve)},
			{"proportional-discharge", dis(Proportional{}), refProportionalDischarge},
			{"proportional-charge", chg(Proportional{}), refProportionalCharge},
			{"fixed-discharge", dis(FixedRatios{Ratios: fixed}), refFixed(FixedRatios{Ratios: fixed})},
			{"fixed-charge", chg(FixedRatios{Ratios: fixed}), refFixed(FixedRatios{Ratios: fixed})},
			{"thermal-guard", dis(guard), refThermalGuard(guard, rblDeriv)},
		} {
			dst := make([]float64, prefix, prefix+n+spare)
			for i := range dst {
				dst[i] = float64(100 + i)
			}
			spareBuf := dst[prefix:cap(dst)]
			for i := range spareBuf {
				spareBuf[i] = math.NaN()
			}
			got, gerr := c.got(dst)
			want, werr := c.want(sts, totalW)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s: error %v, reference %v", c.name, gerr, werr)
			}
			if !slices.Equal(sts, orig) {
				t.Fatalf("%s modified its statuses", c.name)
			}
			if gerr != nil {
				if got != nil {
					t.Fatalf("%s: error %v with a non-nil slice", c.name, gerr)
				}
				continue
			}
			if len(got) != prefix+len(want) {
				t.Fatalf("%s: returned %d elements, want prefix %d + %d ratios", c.name, len(got), prefix, len(want))
			}
			for i := 0; i < prefix; i++ {
				if got[i] != float64(100+i) {
					t.Fatalf("%s: prefix element %d = %g, want %d", c.name, i, got[i], 100+i)
				}
			}
			for i, w := range want {
				if g := got[prefix+i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: ratio %d = %v (%#x), reference %v (%#x)\nstatuses %+v",
						c.name, i, g, math.Float64bits(g), w, math.Float64bits(w), sts)
				}
			}
		}
	})
}
