package battery

import (
	"math"
	"math/rand"
	"testing"
)

// TestDenseLibraryEquivalence checks, for every library cell, that both
// electrical curves carry the dense O(1) form and that it reproduces
// the piecewise-linear reference across the whole state-of-charge
// domain: the library knots all sit on the dense grid, so the two forms
// must agree within floating-point rounding.
func TestDenseLibraryEquivalence(t *testing.T) {
	for _, p := range Library() {
		for _, tc := range []struct {
			name  string
			curve Curve
		}{
			{"OCV", p.OCV},
			{"DCIR", p.DCIR},
		} {
			c := tc.curve
			if !c.IsDense() {
				t.Errorf("%s %s: library curve is not dense", p.Name, tc.name)
				continue
			}
			if got := c.DenseResolution(); got != LibraryDenseCells {
				t.Errorf("%s %s: DenseResolution = %d, want %d", p.Name, tc.name, got, LibraryDenseCells)
			}
			if e := c.DenseError(); e > 1e-12 {
				t.Errorf("%s %s: DenseError = %g, want <= 1e-12 (knots on grid)", p.Name, tc.name, e)
			}

			// Value sweep across and beyond the domain, including the
			// clamped regions.
			const n = 11000
			for i := 0; i <= n; i++ {
				x := -0.05 + 1.10*float64(i)/n
				got, want := c.At(x), c.refAt(x)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s %s: At(%g) = %.17g, reference %.17g", p.Name, tc.name, x, got, want)
				}
			}

			// Slope check at grid-cell midpoints (away from knots, where
			// one-ULP coordinate rounding could legitimately select
			// adjacent segments).
			lo, hi := c.Domain()
			h := (hi - lo) / LibraryDenseCells
			for i := 0; i < LibraryDenseCells; i++ {
				x := lo + (float64(i)+0.5)*h
				got, want := c.Slope(x), c.refSlope(x)
				if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s %s: Slope(%g) = %g, reference %g", p.Name, tc.name, x, got, want)
				}
			}
		}
	}
}

// TestDenseScalePreservesForm pins the Scale fast path the library's
// per-cell DCIR curves rely on: scaling a dense curve must keep the
// dense table, scale it exactly, and scale the recorded error bound.
func TestDenseScalePreservesForm(t *testing.T) {
	base := MustCurve([]float64{0, 0.25, 0.5, 1}, []float64{4, 2, 1.5, 1}).MustDense(64)
	scaled := base.Scale(0.036)
	if !scaled.IsDense() {
		t.Fatal("Scale dropped the dense form")
	}
	if got, want := scaled.DenseError(), base.DenseError()*0.036; got != want {
		t.Errorf("scaled DenseError = %g, want %g", got, want)
	}
	for i := 0; i <= 1000; i++ {
		x := float64(i) / 1000
		if got, want := scaled.At(x), base.At(x)*0.036; math.Abs(got-want) > 1e-12 {
			t.Fatalf("scaled At(%g) = %g, want %g", x, got, want)
		}
	}
}

// TestDenseRejectsBadInput covers the constructor error paths.
func TestDenseRejectsBadInput(t *testing.T) {
	if _, err := (Curve{}).Dense(10); err == nil {
		t.Error("Dense on the zero curve should fail")
	}
	c := MustCurve([]float64{0, 1}, []float64{1, 2})
	if _, err := c.Dense(0); err == nil {
		t.Error("Dense with 0 cells should fail")
	}
	if _, err := c.Dense(-3); err == nil {
		t.Error("Dense with negative cells should fail")
	}
}

// randomCurve derives a valid curve and grid size deterministically
// from fuzz inputs.
func randomCurve(seed uint64, knotCount, cellCount uint16) (Curve, int) {
	r := rand.New(rand.NewSource(int64(seed)))
	n := 2 + int(knotCount)%30
	cells := 1 + int(cellCount)%512
	xs := make([]float64, n)
	ys := make([]float64, n)
	x := (r.Float64() - 0.5) * 100
	for i := 0; i < n; i++ {
		x += 1e-3 + r.Float64()*10
		xs[i] = x
		ys[i] = (r.Float64() - 0.5) * 1000
	}
	return MustCurve(xs, ys), cells
}

// FuzzDenseResample resamples arbitrary valid curves onto arbitrary
// grids and checks the dense-form contract: exactness at grid points,
// clamping outside the domain, the realized deviation staying within
// DenseError, and DenseError itself staying within the analytic
// (maxSlope-minSlope)*h/4 chord bound.
func FuzzDenseResample(f *testing.F) {
	f.Add(uint64(1), uint16(5), uint16(10))
	f.Add(uint64(42), uint16(0), uint16(0))     // minimum: 2 knots, 1 cell
	f.Add(uint64(7), uint16(11), uint16(19))    // knots incommensurate with grid
	f.Add(uint64(99), uint16(29), uint16(511))  // fine grid over many knots
	f.Add(uint64(1234), uint16(2), uint16(300)) // coarse curve, fine grid

	f.Fuzz(func(t *testing.T, seed uint64, knotCount, cellCount uint16) {
		ref, cells := randomCurve(seed, knotCount, cellCount)
		dense, err := ref.Dense(cells)
		if err != nil {
			t.Fatalf("Dense(%d): %v", cells, err)
		}
		if !dense.IsDense() || dense.DenseResolution() != cells {
			t.Fatalf("dense form missing or wrong resolution: %d", dense.DenseResolution())
		}

		lo, hi := ref.Domain()
		scale := math.Max(math.Abs(ref.Min()), math.Abs(ref.Max())) + 1
		slack := 1e-9 * scale

		// Exact at grid points, clamped outside the domain.
		for i := 0; i <= cells; i++ {
			x := lo + (hi-lo)*(float64(i)/float64(cells))
			if d := math.Abs(dense.At(x) - ref.At(x)); d > slack {
				t.Fatalf("grid point %d (x=%g): dense %g vs ref %g", i, x, dense.At(x), ref.At(x))
			}
		}
		span := hi - lo
		if got, want := dense.At(lo-span-1), ref.At(lo); got != want {
			t.Fatalf("left clamp: %g, want %g", got, want)
		}
		if got, want := dense.At(hi+span+1), ref.At(hi); got != want {
			t.Fatalf("right clamp: %g, want %g", got, want)
		}

		// The realized deviation anywhere must stay within the measured
		// DenseError, and DenseError within the analytic chord bound.
		maxErr := dense.DenseError()
		var minSlope, maxSlope float64 = math.Inf(1), math.Inf(-1)
		xs, ys := ref.Points()
		for i := 1; i < len(xs); i++ {
			s := (ys[i] - ys[i-1]) / (xs[i] - xs[i-1])
			minSlope = math.Min(minSlope, s)
			maxSlope = math.Max(maxSlope, s)
		}
		h := span / float64(cells)
		bound := (maxSlope - minSlope) * h / 4
		if maxErr > bound*(1+1e-9)+slack {
			t.Fatalf("DenseError %g exceeds chord bound %g", maxErr, bound)
		}
		r := rand.New(rand.NewSource(int64(seed) + 1))
		for k := 0; k < 200; k++ {
			x := lo - 0.1*span + 1.2*span*r.Float64()
			if d := math.Abs(dense.At(x) - ref.At(x)); d > maxErr+slack {
				t.Fatalf("At(%g): deviation %g exceeds DenseError %g", x, d, maxErr)
			}
		}
	})
}

// bisect52 is what BisectBracket stands in for: BracketRounds rounds
// of bisection of At(x) < v from [0, 1].
func bisect52(c Curve, v float64) (lo, hi float64) {
	lo, hi = 0, 1
	for k := 0; k < BracketRounds; k++ {
		mid := (lo + hi) / 2
		if c.At(mid) < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// ulpProbes returns every value within n ulps of each of vs.
func ulpProbes(vs []float64, n int) []float64 {
	var out []float64
	for _, v := range vs {
		up, down := v, v
		out = append(out, v)
		for k := 0; k < n; k++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			out = append(out, up, down)
		}
	}
	return out
}

// TestBisectBracketExact pins the O(log n) bracket to the bisection it
// replaces, bit for bit, on both library OCV tables: random voltages
// across the whole range, and ±20 ulps around every grid value and
// knot, where a one-ulp slip in the crossing would show. Voltages the
// bracket does not cover (at or below At(0), above At(1)) must be
// refused.
func TestBisectBracketExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Curve
	}{{"CoO2", OCVCoO2()}, {"LiFePO4", OCVLiFePO4()}} {
		c := tc.c
		if !c.dense.monotone {
			t.Fatalf("%s: library OCV table not flagged monotone", tc.name)
		}
		_, knots := c.Points()
		probes := ulpProbes(append(append([]float64(nil), c.dense.ys...), knots...), 20)
		v0, v1 := c.At(0), c.At(1)
		r := rand.New(rand.NewSource(3))
		for k := 0; k < 50000; k++ {
			probes = append(probes, v0-0.01+(v1-v0+0.02)*r.Float64())
		}
		for _, v := range probes {
			lo, hi, ok := c.BisectBracket(v)
			if want := v0 < v && v <= v1; ok != want {
				t.Fatalf("%s: BisectBracket(%.17g) ok = %v, want %v", tc.name, v, ok, want)
			}
			if !ok {
				continue
			}
			if wlo, whi := bisect52(c, v); lo != wlo || hi != whi {
				t.Fatalf("%s: BisectBracket(%.17g) = [%.17g, %.17g], bisection [%.17g, %.17g]",
					tc.name, v, lo, hi, wlo, whi)
			}
		}
	}
}

// TestDenseMonotoneFlag pins which tables take the bracket: the
// floating-point monotonicity argument needs non-decreasing, positive
// samples with neighbours within a factor of 2, and Scale re-derives
// the flag for the scaled samples.
func TestDenseMonotoneFlag(t *testing.T) {
	xs := []float64{0, 0.5, 1}
	for _, tc := range []struct {
		name string
		c    Curve
		want bool
	}{
		{"library CoO2", OCVCoO2(), true},
		{"library LiFePO4", OCVLiFePO4(), true},
		{"library DCIR (decreasing)", DCIRCurve(0.05), false},
		{"flat", MustCurve(xs, []float64{3, 3, 3}).MustDense(4), true},
		{"dip", MustCurve(xs, []float64{3, 2.9, 4}).MustDense(4), false},
		{"zero start", MustCurve(xs, []float64{0, 1, 2}).MustDense(4), false},
		{"negative", MustCurve(xs, []float64{-2, -1, -0.5}).MustDense(4), false},
		{"doubling step", MustCurve([]float64{0, 1}, []float64{1, 2}).MustDense(1), true},
		{"jump past 2x", MustCurve([]float64{0, 1}, []float64{1, 2.5}).MustDense(1), false},
		{"scaled up", OCVCoO2().Scale(2), true},
		{"scaled negative", OCVCoO2().Scale(-1), false},
		{"reference", MustCurve(xs, []float64{3, 3.5, 4}), false},
	} {
		got := tc.c.dense != nil && tc.c.dense.monotone
		if got != tc.want {
			t.Errorf("%s: monotone = %v, want %v", tc.name, got, tc.want)
		}
		if _, _, ok := tc.c.BisectBracket((tc.c.At(0) + tc.c.At(1)) / 2); ok && !got {
			t.Errorf("%s: BisectBracket answered for a table not flagged monotone", tc.name)
		}
	}
}

// BenchmarkCurveAt compares the dense O(1) lookup against the
// binary-search reference on the library OCV shape — the innermost call
// of the emulator's step loop.
func BenchmarkCurveAt(b *testing.B) {
	dense := OCVCoO2()
	reference := MustCurve(socKnots, ocvCoO2Shape)
	// Deterministic pseudo-random probe points spanning the domain.
	probes := make([]float64, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range probes {
		probes[i] = r.Float64()
	}
	run := func(c Curve) func(*testing.B) {
		return func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += c.At(probes[i&1023])
			}
			benchSink = sink
		}
	}
	b.Run("dense", run(dense))
	b.Run("reference", run(reference))
}

// BenchmarkCurveSlope mirrors BenchmarkCurveAt for the derivative
// lookup the runtime's ratio solver uses.
func BenchmarkCurveSlope(b *testing.B) {
	dense := DCIRCurve(0.06)
	reference := MustCurve(socKnots, dcirShape).Scale(0.06)
	probes := make([]float64, 1024)
	r := rand.New(rand.NewSource(2))
	for i := range probes {
		probes[i] = r.Float64()
	}
	run := func(c Curve) func(*testing.B) {
		return func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += c.Slope(probes[i&1023])
			}
			benchSink = sink
		}
	}
	b.Run("dense", run(dense))
	b.Run("reference", run(reference))
}

// benchSink defeats dead-code elimination in the curve benchmarks.
var benchSink float64
