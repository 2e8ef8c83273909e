package battery

import (
	"math"
	"testing"
)

func twoCellPack(t *testing.T) *Pack {
	t.Helper()
	a := MustNew(MustByName("QuickCharge-4000"))
	b := MustNew(MustByName("EnergyMax-4000"))
	p, err := NewPack(a, b)
	if err != nil {
		t.Fatalf("NewPack: %v", err)
	}
	return p
}

func TestNewPackValidation(t *testing.T) {
	if _, err := NewPack(); err == nil {
		t.Error("empty pack accepted")
	}
	if _, err := NewPack(nil); err == nil {
		t.Error("nil cell accepted")
	}
	a := MustNew(MustByName("Watch-200"))
	b := MustNew(MustByName("Watch-200"))
	if _, err := NewPack(a, b); err == nil {
		t.Error("duplicate cell names accepted")
	}
}

func TestPackIndexing(t *testing.T) {
	p := twoCellPack(t)
	if p.N() != 2 {
		t.Fatalf("N = %d, want 2", p.N())
	}
	if p.Index("EnergyMax-4000") != 1 {
		t.Errorf("Index(EnergyMax-4000) = %d, want 1", p.Index("EnergyMax-4000"))
	}
	if p.Index("missing") != -1 {
		t.Error("Index(missing) != -1")
	}
	if p.Cell(0).Name() != "QuickCharge-4000" {
		t.Error("Cell(0) wrong")
	}
}

func TestPackStatus(t *testing.T) {
	p := twoCellPack(t)
	p.Cell(0).SetSoC(0.25)
	st := p.Status()
	if len(st) != 2 {
		t.Fatalf("Status len = %d", len(st))
	}
	if st[0].SoC != 0.25 || st[1].SoC != 1 {
		t.Errorf("status SoCs = %g, %g", st[0].SoC, st[1].SoC)
	}
}

func TestPackEnergyAndPowerAggregates(t *testing.T) {
	p := twoCellPack(t)
	e := p.EnergyRemainingJ()
	if want := p.Cell(0).EnergyRemainingJ() + p.Cell(1).EnergyRemainingJ(); math.Abs(e-want) > 1e-9 {
		t.Errorf("EnergyRemainingJ = %g, want %g", e, want)
	}
	p.Cell(0).SetSoC(0.5)
	p.Cell(1).SetSoC(0.5)
	if pw := p.MaxDischargePower(); pw <= 0 {
		t.Errorf("MaxDischargePower = %g", pw)
	}
}

func TestPackCCBBalanced(t *testing.T) {
	p := twoCellPack(t)
	if got := p.CCB(); got != 1 {
		t.Errorf("fresh pack CCB = %g, want 1", got)
	}
}

func TestPackCCBImbalance(t *testing.T) {
	p := twoCellPack(t)
	// Wear only cell 0.
	cycleCell(p.Cell(0), 1.0, 4)
	cycleCell(p.Cell(1), 1.0, 2)
	l0, l1 := p.Cell(0).WearRatio(), p.Cell(1).WearRatio()
	want := math.Max(l0, l1) / math.Min(l0, l1)
	if got := p.CCB(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CCB = %g, want %g", got, want)
	}
	if p.CCB() <= 1 {
		t.Error("imbalanced pack CCB should exceed 1")
	}
}

func TestPackCloneIndependent(t *testing.T) {
	p := twoCellPack(t)
	dup := p.Clone()
	p.Cell(0).SetSoC(0.1)
	if dup.Cell(0).SoC() != 1 {
		t.Error("clone shares cell state")
	}
}

func TestPackReset(t *testing.T) {
	p := twoCellPack(t)
	p.Cell(0).SetSoC(0.2)
	cycleCell(p.Cell(1), 1.0, 2)
	p.Reset()
	if !p.Cell(0).Full() || !p.Cell(1).Full() || p.Cell(1).CycleCount() != 0 {
		t.Error("Reset did not restore the pack")
	}
}

func TestMustNewPackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewPack with no cells did not panic")
		}
	}()
	MustNewPack()
}
