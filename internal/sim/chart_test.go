package sim

import (
	"strings"
	"testing"
)

func chartTable() *Table {
	t := &Table{
		ID:      "demo",
		Title:   "demo series",
		Columns: []string{"x", "a", "b"},
	}
	for x := 0; x <= 10; x++ {
		t.AddRowf(float64(x), float64(x*x), float64(100-10*x))
	}
	return t
}

func TestChartRenderBasics(t *testing.T) {
	out, err := DefaultChart().Render(chartTable(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demo — demo series") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing plotted glyphs")
	}
	// Axis labels show the data range.
	if !strings.Contains(out, "100") || !strings.Contains(out, "0") {
		t.Errorf("missing y labels:\n%s", out)
	}
}

func TestChartSelectedColumns(t *testing.T) {
	out, err := DefaultChart().Render(chartTable(), []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "* a") {
		t.Error("unselected column appeared in legend")
	}
	if !strings.Contains(out, "* b") {
		t.Error("selected column missing from legend")
	}
}

func TestChartValidation(t *testing.T) {
	if _, err := (Chart{Width: 5, Height: 2}).Render(chartTable(), nil); err == nil {
		t.Error("tiny chart accepted")
	}
	if _, err := DefaultChart().Render(chartTable(), []string{"nope"}); err == nil {
		t.Error("unknown column accepted")
	}
	empty := &Table{ID: "e", Columns: []string{"x", "y"}}
	if _, err := DefaultChart().Render(empty, nil); err == nil {
		t.Error("empty table accepted")
	}
	oneCol := &Table{ID: "o", Columns: []string{"x"}}
	if _, err := DefaultChart().Render(oneCol, nil); err == nil {
		t.Error("single-column table accepted")
	}
}

func TestChartSkipsNonNumericRows(t *testing.T) {
	tab := &Table{ID: "m", Title: "mixed", Columns: []string{"x", "y"}}
	tab.AddRow("not-a-number", "5")
	tab.AddRowf(1.0, 5.0)
	tab.AddRowf(2.0, 7.0)
	out, err := DefaultChart().Render(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Error("numeric rows not plotted")
	}
}

func TestChartConstantSeries(t *testing.T) {
	tab := &Table{ID: "c", Title: "flat", Columns: []string{"x", "y"}}
	tab.AddRowf(0.0, 5.0)
	tab.AddRowf(1.0, 5.0)
	if _, err := DefaultChart().Render(tab, nil); err != nil {
		t.Fatalf("flat series failed: %v", err)
	}
}

func TestChartOnRealFigure(t *testing.T) {
	out, err := DefaultChart().Render(sharedTable(t, "figure-6a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "figure-6a") {
		t.Error("real figure failed to render")
	}
}
