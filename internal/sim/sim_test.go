package sim

import (
	"strings"
	"testing"

	"sdb/internal/core"
)

// One test per table and figure, in registry order, each holding its
// experiments to their claims (claims_test.go); slow ones skip under -short.
func TestTable1Driver(t *testing.T)  { checkClaims(t, "table-1") }
func TestTable2Driver(t *testing.T)  { checkClaims(t, "table-2") }
func TestFigure1aShape(t *testing.T) { checkClaims(t, "figure-1a") }
func TestFigure1bShape(t *testing.T) { checkClaims(t, "figure-1b") }
func TestFigure1cShape(t *testing.T) { checkClaims(t, "figure-1c") }
func TestFigure6Shapes(t *testing.T) {
	checkClaims(t, "figure-6a", "figure-6b", "figure-6c", "figure-6d")
}
func TestFigure8Shapes(t *testing.T)          { checkClaims(t, "figure-8b", "figure-8c") }
func TestFigure10Shape(t *testing.T)          { checkClaims(t, "figure-10") }
func TestFigure11aShape(t *testing.T)         { checkClaims(t, "figure-11a") }
func TestFigure11bShape(t *testing.T)         { checkClaims(t, "figure-11b") }
func TestFigure11cShape(t *testing.T)         { checkClaims(t, "figure-11c") }
func TestFigure12Shape(t *testing.T)          { checkClaims(t, "figure-12") }
func TestFigure13Shape(t *testing.T)          { checkClaims(t, "figure-13") }
func TestFigure14Shape(t *testing.T)          { checkClaims(t, "figure-14") }
func TestExtPredictorShape(t *testing.T)      { checkClaims(t, "ext-predictor") }
func TestExtThermalShape(t *testing.T)        { checkClaims(t, "ext-thermal") }
func TestExtDeadlineShape(t *testing.T)       { checkClaims(t, "ext-deadline") }
func TestExtEVShape(t *testing.T)             { checkClaims(t, "ext-ev") }
func TestExtYearShape(t *testing.T)           { checkClaims(t, "ext-year") }
func TestExtQuadShape(t *testing.T)           { checkClaims(t, "ext-quad") }
func TestSpiceBuckShape(t *testing.T)         { checkClaims(t, "spice-buck") }
func TestAblationSplitShape(t *testing.T)     { checkClaims(t, "ablation-split") }
func TestAblationDirectiveShape(t *testing.T) { checkClaims(t, "ablation-directive") }
func TestSpiceRippleShape(t *testing.T)       { checkClaims(t, "spice-ripple") }

// TestFigure13NoRunFlipsRanking runs the Figure 13 day without the
// evening run, which no registry experiment does.
func TestFigure13NoRunFlipsRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("daylong emulation")
	}
	// Paper: "if the user had not gone for a run then the first policy
	// would have given better battery life".
	p1, err := RunFig13("policy1", core.RBLDischarge{DerivativeAware: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunFig13("policy2", core.Reserve{ReserveIdx: 0, HighPowerW: 0.4}, false)
	if err != nil {
		t.Fatal(err)
	}
	life := func(h float64) float64 {
		if h < 0 {
			return 24
		}
		return h
	}
	if life(p1.DeviceDiedH) < life(p2.DeviceDiedH) {
		t.Errorf("without the run, policy1 (%.1fh) should not trail policy2 (%.1fh)",
			life(p1.DeviceDiedH), life(p2.DeviceDiedH))
	}
}

func TestRegistryAndPrinting(t *testing.T) {
	exps := All()
	if len(exps) < 18 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("figure-12"); !ok {
		t.Error("ByID(figure-12) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found something")
	}
	// Print a fast experiment and sanity-check the rendering.
	out := string(rendered(sharedTable(t, "figure-6a")))
	if !strings.Contains(out, "figure-6a") || !strings.Contains(out, "loss %") {
		t.Errorf("rendered table missing headers:\n%s", out)
	}
}
