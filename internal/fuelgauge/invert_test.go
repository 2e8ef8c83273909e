package fuelgauge

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdb/internal/battery"
)

// refInvertOCV is the full 60-round bisection every curve ran before
// the dense bracket, with the NaN guard: the reference the fast path
// must match bit for bit.
func refInvertOCV(ocv battery.Curve, v float64) (float64, bool) {
	if ocv.IsZero() || math.IsNaN(v) {
		return 0, false
	}
	lo, hi := 0.0, 1.0
	vlo, vhi := ocv.At(lo), ocv.At(hi)
	if v <= vlo {
		return 0, v >= vlo-1e-9
	}
	if v >= vhi {
		return 1, v <= vhi+1e-9
	}
	for k := 0; k < 60; k++ {
		mid := (lo + hi) / 2
		if ocv.At(mid) < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}

// sameInversion fails the test unless InvertOCV and the reference
// agree bit for bit at v.
func sameInversion(t *testing.T, name string, ocv battery.Curve, v float64) {
	t.Helper()
	got, gotOK := InvertOCV(ocv, v)
	want, wantOK := refInvertOCV(ocv, v)
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: InvertOCV(%.17g) = (%.17g, %v), reference (%.17g, %v)",
			name, v, got, gotOK, want, wantOK)
	}
}

// libraryOCVs returns each distinct OCV table of the library, dense,
// and the same knots without the dense form.
func libraryOCVs() map[string]battery.Curve {
	out := map[string]battery.Curve{}
	var seen [][]float64
	for _, p := range battery.Library() {
		_, ys := p.OCV.Points()
		if slices.ContainsFunc(seen, func(s []float64) bool { return slices.Equal(s, ys) }) {
			continue
		}
		seen = append(seen, ys)
		out[p.Name] = p.OCV
		out[p.Name+"/reference"] = battery.MustCurve(p.OCV.Points())
	}
	return out
}

// nearTable returns v, and n ulps either side of v, for every grid
// sample and knot of the curve.
func nearTable(c battery.Curve, n int) []float64 {
	ys, _, _, _ := c.DenseTable()
	_, knots := c.Points()
	var out []float64
	for _, v := range append(append([]float64(nil), ys...), knots...) {
		up, down := v, v
		out = append(out, v)
		for k := 0; k < n; k++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			out = append(out, up, down)
		}
	}
	return out
}

// TestInvertOCVNonFinite pins non-finite voltages as out of range. A
// NaN compares false against every table value, so the bisection used
// to collapse toward 0 and report (4.3e-19, true), and a resting gauge
// then pulled its estimate 20% of the way to empty.
func TestInvertOCVNonFinite(t *testing.T) {
	for name, ocv := range libraryOCVs() {
		if soc, ok := InvertOCV(ocv, math.NaN()); ok || soc != 0 {
			t.Errorf("%s: InvertOCV(NaN) = (%g, %v), want (0, false)", name, soc, ok)
		}
		if soc, ok := InvertOCV(ocv, math.Inf(-1)); ok || soc != 0 {
			t.Errorf("%s: InvertOCV(-Inf) = (%g, %v), want (0, false)", name, soc, ok)
		}
		if soc, ok := InvertOCV(ocv, math.Inf(1)); ok || soc != 1 {
			t.Errorf("%s: InvertOCV(+Inf) = (%g, %v), want (1, false)", name, soc, ok)
		}
	}

	cell, g := newGauge(t, Config{})
	before := g.SoC()
	g.Observe(0, math.NaN(), 1) // at rest, settled: OCV correction runs
	if g.SoC() != before {
		t.Errorf("a NaN rest voltage moved the estimate %g -> %g (cell %g)", before, g.SoC(), cell.SoC())
	}
}

// TestInvertOCVExact holds the dense fast path to the 60-round
// reference, bit for bit, on every library OCV table: random voltages
// across and beyond the range, and ±20 ulps around every grid sample
// and knot.
func TestInvertOCVExact(t *testing.T) {
	for name, ocv := range libraryOCVs() {
		probes := nearTable(ocv, 20)
		lo, hi := ocv.At(0), ocv.At(1)
		r := rand.New(rand.NewSource(1))
		for k := 0; k < 20000; k++ {
			probes = append(probes, lo-0.05+(hi-lo+0.1)*r.Float64())
		}
		for _, v := range probes {
			sameInversion(t, name, ocv, v)
		}
	}
}

// TestInvertOCVNoAllocs pins the dense path at zero allocations: a
// resting gauge inverts its OCV table on every step.
func TestInvertOCVNoAllocs(t *testing.T) {
	ocv := battery.OCVCoO2()
	v := ocv.At(0.37)
	if n := testing.AllocsPerRun(1000, func() { InvertOCV(ocv, v) }); n != 0 {
		t.Errorf("InvertOCV allocates %g times per call", n)
	}
}

// fuzzCurve builds a small OCV-shaped table from fuzz bytes. mode bit 0
// accumulates the bytes into a non-decreasing positive table (the
// shape the fast path takes); otherwise each byte is a signed sample,
// so dips, zeros, negatives and jumps past 2x send the inversion down
// the 60-round fallback. Bit 1 widens the domain past [0, 1], and the
// rest picks the dense grid size.
func fuzzCurve(raw []byte, mode uint16) battery.Curve {
	n := min(len(raw), 16)
	xs, ys := make([]float64, n), make([]float64, n)
	acc := 2.0
	for i := 0; i < n; i++ {
		xs[i] = float64(i) / float64(n-1)
		if mode&2 != 0 {
			xs[i] = -0.25 + 1.5*xs[i]
		}
		if mode&1 != 0 {
			acc += float64(raw[i]) / 256
			ys[i] = acc
		} else {
			ys[i] = float64(int8(raw[i])) / 16
		}
	}
	return battery.MustCurve(xs, ys).MustDense(1 + int(mode>>2)%200)
}

// FuzzInvertOCV compares InvertOCV with the 60-round reference on any
// voltage against the library tables (raw shorter than 2 bytes) and
// against small arbitrary dense tables, monotone and not.
func FuzzInvertOCV(f *testing.F) {
	for _, c := range []battery.Curve{battery.OCVCoO2(), battery.OCVLiFePO4()} {
		_, knots := c.Points()
		for _, v := range knots {
			f.Add(v, []byte(nil), uint16(0))
			f.Add(math.Nextafter(v, 0), []byte(nil), uint16(0))
			f.Add(math.Nextafter(v, 5), []byte(nil), uint16(0))
		}
	}
	f.Add(math.NaN(), []byte(nil), uint16(0))
	f.Add(3.0, []byte{0, 10, 10, 200, 255}, uint16(1))      // monotone, plateau
	f.Add(2.5, []byte{0, 10, 10, 200, 255}, uint16(3|8<<2)) // monotone, wide domain
	f.Add(0.3, []byte{4, 2, 9, 1, 120, 7}, uint16(0))       // dips
	f.Add(2.8, []byte{0xdc, 'A', ' ', 'A'}, uint16(2|4<<2)) // dip with two crossings of v
	f.Add(0.1, []byte{0, 1, 2, 3}, uint16(40<<2))           // starts at zero
	f.Add(-1.0, []byte{200, 220, 240, 250}, uint16(2))      // negative

	f.Fuzz(func(t *testing.T, v float64, raw []byte, mode uint16) {
		if len(raw) < 2 {
			ocv := battery.OCVCoO2()
			if mode&1 != 0 {
				ocv = battery.OCVLiFePO4()
			}
			sameInversion(t, "library", ocv, v)
			return
		}
		sameInversion(t, "table", fuzzCurve(raw, mode), v)
	})
}

// BenchmarkInvertOCV times the rest-time OCV correction's inversion on
// a library dense table, and on the same knots without the dense form
// (the 60-round loop over a binary-searched reference curve).
// dense/bisect60 is the full 60-round loop on the dense table, which
// the dense path replaced.
func BenchmarkInvertOCV(b *testing.B) {
	dense := battery.OCVCoO2()
	reference := battery.MustCurve(dense.Points())
	lo, hi := dense.At(0), dense.At(1)
	probes := make([]float64, 1024)
	r := rand.New(rand.NewSource(2))
	for i := range probes {
		probes[i] = lo + (hi-lo)*r.Float64()
	}
	run := func(c battery.Curve) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				soc, _ := InvertOCV(c, probes[i&1023])
				sink += soc
			}
			benchSink = sink
		}
	}
	b.Run("dense", run(dense))
	b.Run("reference", run(reference))
	b.Run("dense/bisect60", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += bisect(dense, probes[i&1023], 0, 1, invertRounds)
		}
		benchSink = sink
	})
}

// benchSink defeats dead-code elimination in the benchmarks.
var benchSink float64
