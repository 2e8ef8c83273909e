package batch_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/firmware"
)

// perturbed returns one copy of p per field of Params, each differing
// from p in that field alone: floats by one ulp, the name and the
// chemistry, and each curve twice, once with one point moved by one
// ulp and once rebuilt from its own points with a dense table of its
// own. A field of a kind it cannot perturb fails the test, so a field
// added to Params is perturbed here or named in the failure.
func perturbed(t *testing.T, p battery.Params) (names []string, out []battery.Params) {
	t.Helper()
	add := func(name string, f func(*battery.Params)) {
		q := p
		f(&q)
		names, out = append(names, name), append(out, q)
	}
	curveType := reflect.TypeOf(battery.Curve{})
	rt := reflect.TypeOf(p)
	for i := 0; i < rt.NumField(); i++ {
		fld := rt.Field(i)
		switch {
		case fld.Type == curveType:
			add(fld.Name+" points", func(q *battery.Params) {
				c := reflect.ValueOf(q).Elem().Field(i)
				xs, ys := c.Interface().(battery.Curve).Points()
				ys[len(ys)/2] = math.Nextafter(ys[len(ys)/2], math.Inf(1))
				c.Set(reflect.ValueOf(battery.MustCurve(xs, ys).MustDense(battery.LibraryDenseCells)))
			})
			add(fld.Name+" dense table", func(q *battery.Params) {
				c := reflect.ValueOf(q).Elem().Field(i)
				xs, ys := c.Interface().(battery.Curve).Points()
				c.Set(reflect.ValueOf(battery.MustCurve(xs, ys).MustDense(battery.LibraryDenseCells)))
			})
		case fld.Type.Kind() == reflect.Float64:
			add(fld.Name, func(q *battery.Params) {
				v := reflect.ValueOf(q).Elem().Field(i)
				v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
			})
		case fld.Type.Kind() == reflect.String:
			add(fld.Name, func(q *battery.Params) {
				v := reflect.ValueOf(q).Elem().Field(i)
				v.SetString(v.String() + "-b")
			})
		case fld.Type.Kind() == reflect.Int:
			add(fld.Name, func(q *battery.Params) {
				v := reflect.ValueOf(q).Elem().Field(i)
				v.SetInt(v.Int() + 1)
			})
		default:
			t.Fatalf("Params.%s: no perturbation for a field of type %s", fld.Name, fld.Type)
		}
	}
	return names, out
}

// TestCheckoutSharesEqualModelsOnly holds Checkout's interning to
// battery.Key: cells of equal Params on one engine end up sharing one
// Params, and a cell whose Params differ from them in any one field
// keeps its own, with its own values.
func TestCheckoutSharesEqualModelsOnly(t *testing.T) {
	base := battery.MustByName("Standard-2000")
	names, variants := perturbed(t, base)
	a, b := battery.MustNew(base), battery.MustNew(base)
	cells := []*battery.Cell{a, b}
	for i, p := range variants {
		c, err := battery.New(p)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		cells = append(cells, c)
	}
	if a.Model() == b.Model() {
		t.Fatal("two cells share parameters before Checkout")
	}
	eng := batch.New()
	pk, err := eng.Checkout(cells)
	if err != nil {
		t.Fatal(err)
	}
	if a.Model() != b.Model() {
		t.Error("cells with equal Params do not share one Params after Checkout")
	}
	params, _ := eng.Lanes(pk)
	if params[0] != a.Model() || params[1] != a.Model() {
		t.Error("the lanes of equal cells do not hold their cells' shared Params")
	}
	for i, c := range cells[2:] {
		if c.Model() == a.Model() || params[2+i] == a.Model() {
			t.Errorf("a cell that differs in %s shares the unperturbed model: battery.Key misses the field", names[i])
		}
		if got := c.Params(); !reflect.DeepEqual(got, variants[i]) {
			t.Errorf("a cell that differs in %s lost its own Params after Checkout", names[i])
		}
	}

	// A second checkout on the engine reuses the interned models.
	late := battery.MustNew(base)
	if _, err := eng.Checkout([]*battery.Cell{late}); err != nil {
		t.Fatal(err)
	}
	if late.Model() != a.Model() {
		t.Error("a later Checkout of an equal cell does not share the engine's Params")
	}
	// Interning is per engine: another engine keeps its own copy.
	other := battery.MustNew(base)
	if _, err := batch.New().Checkout([]*battery.Cell{other}); err != nil {
		t.Fatal(err)
	}
	if other.Model() == a.Model() {
		t.Error("two engines share one interned Params")
	}
}

// TestSharedModelReportsOwnName runs two packs on one engine whose
// cells differ only in name, and requires each controller's
// QueryBatteryStatus to report its own cells' names.
func TestSharedModelReportsOwnName(t *testing.T) {
	eng := batch.New()
	renamed := battery.MustByName("Standard-2000")
	renamed.Name += "-b"
	packs := [][]battery.Params{
		{battery.MustByName("QuickCharge-2000"), battery.MustByName("Standard-2000")},
		{battery.MustByName("Standard-2000"), renamed},
	}
	want := [][]string{{"QuickCharge-2000", "Standard-2000"}, {"Standard-2000", "Standard-2000-b"}}
	var ctrls []*firmware.Controller
	for _, ps := range packs {
		var cells []*battery.Cell
		for _, p := range ps {
			cells = append(cells, battery.MustNew(p))
		}
		ctrl, err := firmware.NewController(firmware.DefaultConfig(battery.MustNewPack(cells...)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.AttachFast(eng); err != nil {
			t.Fatal(err)
		}
		ctrls = append(ctrls, ctrl)
	}
	std0, std1, renamedCell := ctrls[0].Pack().Cell(1), ctrls[1].Pack().Cell(0), ctrls[1].Pack().Cell(1)
	if std0.Model() != std1.Model() || renamedCell.Model() == std0.Model() {
		t.Fatal("Checkout did not share Standard-2000 across packs, or shared it with the renamed cell")
	}
	for i, ctrl := range ctrls {
		sts, err := ctrl.QueryBatteryStatus()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range sts {
			got = append(got, s.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("pack %d reports cells %v, want %v", i, got, want[i])
		}
	}
}
