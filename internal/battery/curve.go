// Package battery implements an electrochemical cell model based on the
// Thevenin equivalent circuit used by the SDB paper's emulator: an open
// circuit potential in series with an internal (DC) resistance and a
// parallel RC pair (concentration resistance and plate capacitance).
// It also implements rate-dependent aging calibrated to the paper's
// Figure 1(b) longevity measurements, chemistry definitions for the four
// Li-ion cell types the paper compares, and a library of 15 modeled
// cells mirroring the paper's modeled battery set.
//
// Sign convention: positive current discharges the cell; negative
// current charges it. All quantities are SI (volts, amperes, ohms,
// farads, coulombs, joules, seconds) unless a name says otherwise.
package battery

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Curve is a piecewise-linear function y = f(x) defined by sample
// points with strictly increasing X. Evaluation outside the sampled
// range clamps to the end values, which matches how OCV and DCIR tables
// from battery characterization are used in practice.
//
// A curve may additionally carry a dense uniform-grid form (see Dense):
// At and Slope then run in O(1) by index arithmetic instead of binary
// search, which is what keeps the emulator's per-step loop cheap.
type Curve struct {
	xs []float64
	ys []float64
	// min is the smallest of ys, cached at construction: the firmware
	// reads it every step through EnergyRemainingLowerBoundJ.
	min float64
	// dense, when non-nil, is the uniform-grid acceleration table. It
	// is immutable after construction, so sharing it across copies of
	// the Curve value (and across goroutines) is safe.
	dense *denseTable
}

// denseTable is the uniform resampling of a curve: ys[i] is the curve
// evaluated at lo + i*(hi-lo)/cells for i in [0, cells]. Between grid
// points the dense form interpolates linearly, so it is exact wherever
// a grid cell lies inside one original segment and deviates only in
// cells that straddle an original knot.
type denseTable struct {
	ys      []float64
	lo, hi  float64
	invStep float64 // cells / (hi - lo)
	maxErr  float64 // max |dense - reference| over the domain
	// monotone reports that at is non-decreasing in floating point,
	// not just in exact arithmetic (see isMonotone): the precondition
	// of the O(log) bisection bracket.
	monotone bool
}

func (d *denseTable) at(x float64) float64 {
	if x <= d.lo {
		return d.ys[0]
	}
	if x >= d.hi {
		return d.ys[len(d.ys)-1]
	}
	f := (x - d.lo) * d.invStep
	i := int(f)
	if i > len(d.ys)-2 {
		i = len(d.ys) - 2
	}
	y0 := d.ys[i]
	return y0 + (f-float64(i))*(d.ys[i+1]-y0)
}

// isMonotone reports whether at is non-decreasing in x as evaluated in
// floating point. It holds when ys is non-decreasing and positive with
// every neighbouring pair within a factor of 2, and the top of the
// domain maps to at most the last cell:
//
//   - f = (x-lo)*invStep and i = int(f) are non-decreasing in x, and
//     f <= (hi-lo)*invStep <= cells, so f-i lies in [0, 1];
//   - f-i is exact by Sterbenz's lemma (i <= f <= 2i for i >= 1), and
//     so is y1-y0 (y0 <= y1 <= 2*y0), so within a cell at is a rounded
//     product and sum of non-decreasing terms;
//   - at a cell's top, t <= 1 gives t*(y1-y0) <= y1-y0, and
//     y0+(y1-y0) is exactly y1, the next cell's bottom, so at never
//     drops across a boundary; the clamps return the end values.
func (d *denseTable) isMonotone() bool {
	cells := float64(len(d.ys) - 1)
	if !((d.hi-d.lo)*d.invStep <= cells) || !(d.ys[0] > 0) {
		return false
	}
	for i := 1; i < len(d.ys); i++ {
		if y0, y1 := d.ys[i-1], d.ys[i]; !(y0 <= y1 && y1 <= 2*y0) {
			return false
		}
	}
	return true
}

// BracketRounds is how many rounds of bisection on [0, 1]
// Curve.BisectBracket stands in for: the rounds whose midpoints are
// exact dyadics, leaving a bracket [k, k+1]*bracketScale.
const (
	BracketRounds = 52
	bracketScale  = 0x1p-52
	bracketCells  = 1 << BracketRounds
)

// bracket returns the largest k in [0, 2^52) with at(k*2^-52) < v,
// given at(0) < v and at(1) >= v and a monotone table. Those are
// exactly the bracket [k, k+1]*2^-52 that 52 rounds of bisection of
// at(x) < v on [0, 1] reach: each of those midpoints is a dyadic with
// a numerator below 2^53, so it is computed exactly, and the
// monotone predicate has one crossing on the grid. The search guesses
// k by inverting the linear segment of the grid cell v crosses, then
// corrects the guess by an exponential and a binary search on the
// predicate itself, evaluated with at, so the answer does not depend
// on how accurate the guess was.
func (d *denseTable) bracket(v float64) int64 {
	below := func(k int64) bool { return d.at(float64(k)*bracketScale) < v }
	// ys[0] <= at(0) < v <= at(1) <= ys[last], so v lies in
	// (ys[j-1], ys[j]] for the first j with ys[j] >= v.
	j := sort.SearchFloat64s(d.ys, v)
	y0, y1 := d.ys[j-1], d.ys[j]
	x := d.lo + (float64(j-1)+(v-y0)/(y1-y0))/d.invStep
	var guess int64
	switch {
	case x >= 1:
		guess = bracketCells - 1
	case x > 0:
		guess = int64(x / bracketScale)
	}

	var lo, hi int64 // below(lo) holds, below(hi) does not
	if below(guess) {
		lo, hi = guess, guess+1
		for step := int64(1); hi < bracketCells && below(hi); step *= 2 {
			lo, hi = hi, min(hi+2*step, bracketCells)
		}
	} else {
		lo, hi = guess-1, guess
		for step := int64(1); lo > 0 && !below(lo); step *= 2 {
			lo, hi = max(lo-2*step, 0), lo
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (d *denseTable) slope(x float64) float64 {
	if x < d.lo || x > d.hi {
		return 0
	}
	f := (x - d.lo) * d.invStep
	i := int(f)
	if i > len(d.ys)-2 {
		i = len(d.ys) - 2
	}
	return (d.ys[i+1] - d.ys[i]) * d.invStep
}

// NewCurve builds a curve from parallel slices of sample coordinates.
// It returns an error unless len(xs) == len(ys) >= 2 and xs is strictly
// increasing and every value is finite.
func NewCurve(xs, ys []float64) (Curve, error) {
	if len(xs) != len(ys) {
		return Curve{}, fmt.Errorf("battery: curve has %d x values but %d y values", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Curve{}, errors.New("battery: curve needs at least two points")
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return Curve{}, fmt.Errorf("battery: curve point %d is not finite", i)
		}
		if i > 0 && xs[i] <= xs[i-1] {
			return Curve{}, fmt.Errorf("battery: curve x values not strictly increasing at index %d", i)
		}
	}
	return Curve{
		xs:  append([]float64(nil), xs...),
		ys:  append([]float64(nil), ys...),
		min: minOf(ys),
	}, nil
}

// MustCurve is like NewCurve but panics on invalid input. It is
// intended for the package-level cell library, where the tables are
// constants validated by tests.
func MustCurve(xs, ys []float64) Curve {
	c, err := NewCurve(xs, ys)
	if err != nil {
		panic(err)
	}
	return c
}

// IsZero reports whether the curve has no points (the zero value).
func (c Curve) IsZero() bool { return len(c.xs) == 0 }

// Len returns the number of sample points.
func (c Curve) Len() int { return len(c.xs) }

// Domain returns the sampled x range.
func (c Curve) Domain() (lo, hi float64) {
	if c.IsZero() {
		return 0, 0
	}
	return c.xs[0], c.xs[len(c.xs)-1]
}

// At evaluates the curve at x, clamping outside the sampled domain.
// Dense curves evaluate in O(1); reference curves binary-search the
// knot table.
func (c Curve) At(x float64) float64 {
	if c.dense != nil {
		return c.dense.at(x)
	}
	return c.refAt(x)
}

// refAt is the piecewise-linear reference evaluation over the original
// knots, regardless of any dense table.
func (c Curve) refAt(x float64) float64 {
	n := len(c.xs)
	if n == 0 {
		return 0
	}
	if x <= c.xs[0] {
		return c.ys[0]
	}
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	// sort.SearchFloat64s returns the first index with xs[i] >= x.
	i := sort.SearchFloat64s(c.xs, x)
	if c.xs[i] == x {
		return c.ys[i]
	}
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// Slope returns the derivative dy/dx of the segment containing x. At a
// knot it returns the slope of the right-hand segment; outside the
// domain it returns 0 (the curve is clamped there). Dense curves
// return the slope of the grid cell containing x in O(1).
func (c Curve) Slope(x float64) float64 {
	if c.dense != nil {
		return c.dense.slope(x)
	}
	return c.refSlope(x)
}

// refSlope is the piecewise-linear reference slope over the original
// knots.
func (c Curve) refSlope(x float64) float64 {
	n := len(c.xs)
	if n < 2 || x < c.xs[0] || x > c.xs[n-1] {
		return 0
	}
	i := sort.SearchFloat64s(c.xs, x)
	switch {
	case i == 0:
		i = 1
	case i == n:
		i = n - 1
	case c.xs[i] == x && i+1 < n:
		i++
	}
	return (c.ys[i] - c.ys[i-1]) / (c.xs[i] - c.xs[i-1])
}

// Dense returns a copy of the curve carrying a uniform-grid dense form
// with the given number of grid cells, making At and Slope O(1). The
// grid spans the curve's domain; ys are resampled from the reference
// piecewise-linear form at construction.
//
// Error bound: the dense form is exact (up to floating-point rounding,
// a few ULPs) on every grid cell that lies inside one original
// segment. A cell that straddles an original knot deviates by at most
// |Δslope|·h/4 at the knot, where Δslope is the slope change across
// the knot and h the grid-cell width. When every original knot lands
// exactly on a grid point — true for the battery library, whose knots
// are multiples of 1/20 resampled on a multiple-of-20 grid — the dense
// form reproduces the reference within rounding everywhere. The exact
// realized bound is measured at construction and reported by
// DenseError.
func (c Curve) Dense(cells int) (Curve, error) {
	if c.IsZero() {
		return Curve{}, errors.New("battery: cannot densify the zero curve")
	}
	if cells < 1 {
		return Curve{}, fmt.Errorf("battery: dense grid needs at least one cell, got %d", cells)
	}
	lo, hi := c.Domain()
	d := &denseTable{
		ys:      make([]float64, cells+1),
		lo:      lo,
		hi:      hi,
		invStep: float64(cells) / (hi - lo),
	}
	for i := 0; i <= cells; i++ {
		x := lo + (hi-lo)*(float64(i)/float64(cells))
		if i == cells {
			x = hi
		}
		d.ys[i] = c.refAt(x)
	}
	d.monotone = d.isMonotone()
	// The difference dense-reference is piecewise linear with
	// breakpoints only at original knots and grid points, and the dense
	// form is exact at grid points by construction, so the maximum
	// deviation is attained at an original knot.
	for i, x := range c.xs {
		if err := math.Abs(d.at(x) - c.ys[i]); err > d.maxErr {
			d.maxErr = err
		}
	}
	out := c.clone()
	out.dense = d
	return out, nil
}

// MustDense is Dense, panicking on error. For the static cell library.
func (c Curve) MustDense(cells int) Curve {
	out, err := c.Dense(cells)
	if err != nil {
		panic(err)
	}
	return out
}

// IsDense reports whether the curve carries a dense O(1) form.
func (c Curve) IsDense() bool { return c.dense != nil }

// DenseResolution returns the number of uniform grid cells of the
// dense form, or 0 for a reference curve.
func (c Curve) DenseResolution() int {
	if c.dense == nil {
		return 0
	}
	return len(c.dense.ys) - 1
}

// DenseTable exposes the dense uniform-grid form for read-only use by
// the batch execution engine: the grid samples plus the parameters of
// the index mapping (clamp below lo / above hi, else interpolate cell
// int((x-lo)*invStep)). The returned slice is the curve's own table —
// immutable by construction — so batch engines may alias it across
// thousands of packs without copying; callers must not write to it.
// Reference curves (no dense form) return a nil slice.
func (c Curve) DenseTable() (ys []float64, lo, hi, invStep float64) {
	if c.dense == nil {
		return nil, 0, 0, 0
	}
	return c.dense.ys, c.dense.lo, c.dense.hi, c.dense.invStep
}

// BisectBracket returns the bracket [lo, hi] that BracketRounds rounds
// of bisection of At(x) < v on [0, 1] reach (lo = mid while
// At(mid) < v, else hi = mid, from lo = 0 and hi = 1), bit for bit, in
// O(log n) dense evaluations instead of 52. ok is false, and the
// caller must bisect itself, unless the curve is dense with a monotone
// table (see isMonotone) and At(0) < v <= At(1).
func (c Curve) BisectBracket(v float64) (lo, hi float64, ok bool) {
	d := c.dense
	if d == nil || !d.monotone || !(d.at(0) < v && v <= d.at(1)) {
		return 0, 0, false
	}
	k := d.bracket(v)
	return float64(k) * bracketScale, float64(k+1) * bracketScale, true
}

// DenseError returns the maximum absolute deviation of the dense form
// from the piecewise-linear reference over the domain, measured at
// construction. It is 0 for reference curves.
func (c Curve) DenseError() float64 {
	if c.dense == nil {
		return 0
	}
	return c.dense.maxErr
}

// clone copies the knot slices (but shares any dense table, which is
// immutable).
func (c Curve) clone() Curve {
	return Curve{
		xs:    append([]float64(nil), c.xs...),
		ys:    append([]float64(nil), c.ys...),
		min:   c.min,
		dense: c.dense,
	}
}

// Scale returns a new curve with every y multiplied by k. A dense
// curve stays dense: the grid is scaled alongside the knots, so the
// library's per-cell DCIR curves keep their O(1) form.
func (c Curve) Scale(k float64) Curve {
	out := Curve{xs: append([]float64(nil), c.xs...), ys: make([]float64, len(c.ys))}
	for i, y := range c.ys {
		out.ys[i] = y * k
	}
	out.min = minOf(out.ys)
	if c.dense != nil {
		d := &denseTable{
			ys:      make([]float64, len(c.dense.ys)),
			lo:      c.dense.lo,
			hi:      c.dense.hi,
			invStep: c.dense.invStep,
			maxErr:  c.dense.maxErr * math.Abs(k),
		}
		for i, y := range c.dense.ys {
			d.ys[i] = y * k
		}
		d.monotone = d.isMonotone()
		out.dense = d
	}
	return out
}

// Min returns the minimum sampled y value (0 for the zero curve).
func (c Curve) Min() float64 { return c.min }

func minOf(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	m := ys[0]
	for _, y := range ys[1:] {
		if y < m {
			m = y
		}
	}
	return m
}

// Max returns the maximum sampled y value.
func (c Curve) Max() float64 {
	if c.IsZero() {
		return 0
	}
	m := c.ys[0]
	for _, y := range c.ys[1:] {
		if y > m {
			m = y
		}
	}
	return m
}

// Points returns copies of the sample coordinates.
func (c Curve) Points() (xs, ys []float64) {
	return append([]float64(nil), c.xs...), append([]float64(nil), c.ys...)
}
