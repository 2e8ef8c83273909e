package battery

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// TestKeyCurveIdentity pins how Key compares curves and floats: copies
// of one Params share a Key, while a curve that differs only in one of
// its sample arrays, its cached minimum or its dense table, and a float
// that differs only in the sign of zero, each give another Key.
func TestKeyCurveIdentity(t *testing.T) {
	p := testParams()
	q := p
	if p.Key() != q.Key() {
		t.Fatal("a copy of Params has another Key")
	}
	cases := map[string]func(*Params){
		"xs":    func(p *Params) { p.OCV.xs = slices.Clone(p.OCV.xs) },
		"ys":    func(p *Params) { p.DCIR.ys = slices.Clone(p.DCIR.ys) },
		"min":   func(p *Params) { p.OCV.min = math.Nextafter(p.OCV.min, 0) },
		"dense": func(p *Params) { p.DCIR.dense = p.DCIR.MustDense(LibraryDenseCells).dense },
		"-0":    func(p *Params) { p.BendRadiusMM = math.Copysign(0, -1) },
	}
	for name, f := range cases {
		q := p
		f(&q)
		if q.Key() == p.Key() {
			t.Errorf("Params that differ in %s share a Key", name)
		}
	}
}

// TestShareRefusesAnotherModel: Share rebinds a cell only to a copy of
// its own model, and a copy it accepts changes nothing the cell reads.
func TestShareRefusesAnotherModel(t *testing.T) {
	c := MustNew(testParams())
	same := c.Params()
	c.Share(&same)
	if c.Model() != &same {
		t.Fatal("Share did not rebind the cell to an equal model")
	}
	other := c.Params()
	other.CapacityAh *= 2
	defer func() {
		if recover() == nil {
			t.Error("Share accepted the parameters of another model")
		}
		if c.Model() != &same {
			t.Error("a refused Share rebound the cell")
		}
	}()
	c.Share(&other)
}

// TestCellFillsWholeCacheLines holds Cell to a multiple of 64 B (see
// its padding): a field added to Cell or CellState must resize the pad.
func TestCellFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Cell{}); n%64 != 0 {
		t.Errorf("Cell is %d B, not a whole number of 64 B cache lines", n)
	}
}
