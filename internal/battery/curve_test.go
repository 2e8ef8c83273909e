package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewCurveValidation(t *testing.T) {
	tests := []struct {
		name    string
		xs, ys  []float64
		wantErr bool
	}{
		{"valid", []float64{0, 1}, []float64{1, 2}, false},
		{"mismatched lengths", []float64{0, 1}, []float64{1}, true},
		{"too short", []float64{0}, []float64{1}, true},
		{"non-increasing x", []float64{0, 0}, []float64{1, 2}, true},
		{"decreasing x", []float64{1, 0}, []float64{1, 2}, true},
		{"nan y", []float64{0, 1}, []float64{1, math.NaN()}, true},
		{"inf x", []float64{0, math.Inf(1)}, []float64{1, 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCurve(tt.xs, tt.ys)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewCurve(%v, %v) err = %v, wantErr = %v", tt.xs, tt.ys, err, tt.wantErr)
			}
		})
	}
}

func TestMustCurvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCurve with bad input did not panic")
		}
	}()
	MustCurve([]float64{0}, []float64{1})
}

func TestCurveAtInterpolates(t *testing.T) {
	c := MustCurve([]float64{0, 1, 3}, []float64{0, 10, 30})
	tests := []struct{ x, want float64 }{
		{0, 0}, {0.5, 5}, {1, 10}, {2, 20}, {3, 30},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
}

func TestCurveAtClampsOutsideDomain(t *testing.T) {
	c := MustCurve([]float64{0, 1}, []float64{3, 7})
	if got := c.At(-5); got != 3 {
		t.Errorf("At(-5) = %g, want clamp to 3", got)
	}
	if got := c.At(99); got != 7 {
		t.Errorf("At(99) = %g, want clamp to 7", got)
	}
}

func TestCurveAtExactKnot(t *testing.T) {
	c := MustCurve([]float64{0, 0.5, 1}, []float64{1, 4, 9})
	if got := c.At(0.5); got != 4 {
		t.Errorf("At(knot 0.5) = %g, want 4", got)
	}
}

func TestCurveSlope(t *testing.T) {
	c := MustCurve([]float64{0, 1, 3}, []float64{0, 10, 30})
	if got := c.Slope(0.5); math.Abs(got-10) > 1e-12 {
		t.Errorf("Slope(0.5) = %g, want 10", got)
	}
	if got := c.Slope(2); math.Abs(got-10) > 1e-12 {
		t.Errorf("Slope(2) = %g, want 10", got)
	}
	if got := c.Slope(-1); got != 0 {
		t.Errorf("Slope outside domain = %g, want 0", got)
	}
}

func TestCurveSlopeAtKnotUsesRightSegment(t *testing.T) {
	c := MustCurve([]float64{0, 1, 2}, []float64{0, 1, 5})
	if got := c.Slope(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("Slope at knot 1 = %g, want right-hand slope 4", got)
	}
}

func TestCurveScale(t *testing.T) {
	c := MustCurve([]float64{0, 1}, []float64{2, 4}).Scale(2.5)
	if got := c.At(1); got != 10 {
		t.Errorf("scaled At(1) = %g, want 10", got)
	}
}

// TestCurveMinMax also scales the curve: Min is cached when a curve is
// built, so Scale must recompute it from the scaled values, and a
// negative factor swaps min and max, on reference and dense curves.
func TestCurveMinMax(t *testing.T) {
	c := MustCurve([]float64{0, 1, 2}, []float64{5, 1, 3})
	if c.Min() != 1 || c.Max() != 5 {
		t.Errorf("Min/Max = %g/%g, want 1/5", c.Min(), c.Max())
	}
	for _, c := range []Curve{c, c.MustDense(8)} {
		for _, tc := range []struct{ k, min, max float64 }{{2, 2, 10}, {-2, -10, -2}, {0, 0, 0}} {
			s := c.Scale(tc.k)
			if s.Min() != tc.min || s.Max() != tc.max {
				t.Errorf("dense=%v Scale(%g): Min/Max = %g/%g, want %g/%g",
					c.IsDense(), tc.k, s.Min(), s.Max(), tc.min, tc.max)
			}
		}
	}
}

func TestCurveDomain(t *testing.T) {
	c := MustCurve([]float64{-1, 2}, []float64{0, 0})
	lo, hi := c.Domain()
	if lo != -1 || hi != 2 {
		t.Errorf("Domain = (%g, %g), want (-1, 2)", lo, hi)
	}
}

func TestZeroCurve(t *testing.T) {
	var c Curve
	if !c.IsZero() {
		t.Error("zero value IsZero() = false")
	}
	if c.At(5) != 0 || c.Slope(5) != 0 || c.Min() != 0 || c.Max() != 0 {
		t.Error("zero curve should evaluate to 0 everywhere")
	}
}

func TestCurvePointsReturnsCopies(t *testing.T) {
	c := MustCurve([]float64{0, 1}, []float64{2, 3})
	xs, ys := c.Points()
	xs[0], ys[0] = 99, 99
	if c.At(0) != 2 {
		t.Error("mutating Points() result changed the curve")
	}
}

// Property: evaluation is always within the y-range of the samples
// (piecewise-linear interpolation cannot overshoot).
func TestCurveAtWithinRangeProperty(t *testing.T) {
	c := MustCurve(socKnots, ocvCoO2Shape)
	f := func(x float64) bool {
		y := c.At(math.Mod(math.Abs(x), 2))
		return y >= c.Min()-1e-12 && y <= c.Max()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: curves built from monotonically increasing samples are
// monotonic under evaluation.
func TestCurveMonotonicProperty(t *testing.T) {
	c := OCVCoO2()
	f := func(a, b float64) bool {
		x1 := math.Mod(math.Abs(a), 1)
		x2 := math.Mod(math.Abs(b), 1)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return c.At(x1) <= c.At(x2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
