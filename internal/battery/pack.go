package battery

import (
	"errors"
	"fmt"
)

// Pack is an ordered collection of heterogeneous cells managed
// together. Unlike traditional series/parallel packs, an SDB pack does
// not constrain the cells to share current or voltage; each cell is
// individually addressable by index.
type Pack struct {
	cells []*Cell
}

// NewPack builds a pack from the given cells. Cell names must be
// distinct so status reports and traces are unambiguous.
func NewPack(cells ...*Cell) (*Pack, error) {
	if len(cells) == 0 {
		return nil, errors.New("battery: pack needs at least one cell")
	}
	seen := make(map[string]bool, len(cells))
	for i, c := range cells {
		if c == nil {
			return nil, fmt.Errorf("battery: pack cell %d is nil", i)
		}
		if seen[c.Name()] {
			return nil, fmt.Errorf("battery: duplicate cell name %q in pack", c.Name())
		}
		seen[c.Name()] = true
	}
	return &Pack{cells: append([]*Cell(nil), cells...)}, nil
}

// MustNewPack is NewPack, panicking on error.
func MustNewPack(cells ...*Cell) *Pack {
	p, err := NewPack(cells...)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the number of cells.
func (p *Pack) N() int { return len(p.cells) }

// Cell returns the i-th cell.
func (p *Pack) Cell(i int) *Cell { return p.cells[i] }

// Cells returns the cell slice (shared, not a copy — the pack and its
// callers cooperate on a single simulation state).
func (p *Pack) Cells() []*Cell { return p.cells }

// Index returns the position of the named cell, or -1.
func (p *Pack) Index(name string) int {
	for i, c := range p.cells {
		if c.Name() == name {
			return i
		}
	}
	return -1
}

// Status returns a snapshot of every cell.
func (p *Pack) Status() []Status {
	out := make([]Status, len(p.cells))
	for i, c := range p.cells {
		out[i] = c.Snapshot()
	}
	return out
}

// EnergyRemainingJ sums recoverable energy across cells.
func (p *Pack) EnergyRemainingJ() float64 {
	var sum float64
	for _, c := range p.cells {
		sum += c.EnergyRemainingJ()
	}
	return sum
}

// MaxDischargePower sums the instantaneous peak discharge power of all
// cells — what the CPU turbo governor consults (Section 5.1).
func (p *Pack) MaxDischargePower() float64 {
	var sum float64
	for _, c := range p.cells {
		sum += c.MaxDischargePower()
	}
	return sum
}

// Clone deep-copies the pack, cells included.
func (p *Pack) Clone() *Pack {
	cells := make([]*Cell, len(p.cells))
	for i, c := range p.cells {
		cells[i] = c.Clone()
	}
	return &Pack{cells: cells}
}

// Reset restores every cell to fresh, fully charged state.
func (p *Pack) Reset() {
	for _, c := range p.cells {
		c.Reset()
	}
}

// CCB returns the cycle count balance metric: the ratio between the
// most and least worn cell, each normalized to its tolerable cycle
// count (the paper's max_i lambda_i / min_j lambda_j). A pack with no
// wear anywhere reports a perfectly balanced 1.
func (p *Pack) CCB() float64 {
	const eps = 1e-9
	min, max := -1.0, 0.0
	for _, c := range p.cells {
		l := c.WearRatio()
		if min < 0 || l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max <= eps {
		return 1
	}
	if min <= eps {
		min = eps
	}
	return max / min
}
