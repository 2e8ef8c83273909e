// Package batch is the batched execution engine for the cell model: the
// state of many packs lives in one contiguous slice of
// battery.CellState lanes, and each cell model's parameters are
// interned once and shared by every lane and every checked-out cell of
// that model, so stepping thousands of packs walks one array and a
// fleet holds one copy of each model per engine.
//
// The engine holds state only: Lanes hands out a pack's params and
// CellState lanes, and the caller steps them in place through
// battery.CellState's own kernel, the code battery.Cell steps through,
// so lanes and cells agree bit for bit by construction; the
// differential tests in this package hold them to it.
//
// State moves between the two representations with Checkout (cells →
// lanes) and the Sync pair, all plain struct copies; the engine is the
// authority only between SyncIn and SyncOut, which is how the firmware
// fast path keeps the scalar structs authoritative for every observer
// outside a batch segment.
//
// The engine is not safe for concurrent use; in the fleet each shard
// owns one engine and drives it from its own goroutine.
package batch

import (
	"fmt"

	"sdb/internal/battery"
)

// Pack addresses a contiguous lane range inside an Engine: the cells
// of one battery pack, in pack order.
type Pack struct {
	off, n int
}

// N returns the number of cells in the pack.
func (p Pack) N() int { return p.n }

// Engine holds pack state as contiguous CellState lanes. Lanes are
// append-only: Checkout grows the slice; there is no free list (a
// removed device's lanes idle until the engine is dropped). A lane
// holds its model's interned parameters, never its cell, so idle lanes
// pin no cells.
type Engine struct {
	models map[battery.Key]*battery.Params
	params []*battery.Params // interned model per lane
	lanes  []battery.CellState
}

// New builds an empty engine.
func New() *Engine {
	return &Engine{models: make(map[battery.Key]*battery.Params)}
}

// Len returns the number of lanes (cells) checked out so far.
func (e *Engine) Len() int { return len(e.lanes) }

// All returns a Pack spanning every lane in the engine — the handle
// bulk kernels use to advance the whole population in one call.
func (e *Engine) All() Pack { return Pack{off: 0, n: len(e.lanes)} }

// Checkout registers a pack's cells: each cell's model is interned by
// its battery.Key against every model already registered, the cell is
// rebound to the interned copy (Cell.Share), and its state is copied
// into fresh lanes. Cells of one model thus hold one copy of its
// parameters per engine; the cells themselves are not retained, so use
// SyncIn/SyncOut to move state between representations afterward.
// Cells must carry dense OCV and DCIR curves, the form the fast path
// is built for; a pack with a reference-only curve is rejected whole.
func (e *Engine) Checkout(cells []*battery.Cell) (Pack, error) {
	for _, c := range cells {
		if m := c.Model(); !m.OCV.IsDense() || !m.DCIR.IsDense() {
			return Pack{}, fmt.Errorf("batch: cell %q needs dense OCV and DCIR curves", m.Name)
		}
	}
	p := Pack{off: len(e.lanes), n: len(cells)}
	for _, c := range cells {
		m := c.Model()
		k := m.Key()
		if shared, ok := e.models[k]; ok {
			c.Share(shared)
			m = shared
		} else {
			e.models[k] = m
		}
		e.params = append(e.params, m)
		e.lanes = append(e.lanes, c.ExportState())
	}
	return p, nil
}

// SyncIn refreshes a pack's lanes from its cells — call at the start
// of a batch segment, after any window in which the scalar structs
// were authoritative (commands, fault injection, scenario setup).
func (e *Engine) SyncIn(p Pack, cells []*battery.Cell) {
	for i, c := range cells {
		e.lanes[p.off+i] = c.ExportState()
	}
}

// SyncOut writes a pack's lanes back into its cells — call at the end
// of a batch segment, before releasing whatever lock kept observers
// away from the scalar structs.
func (e *Engine) SyncOut(p Pack, cells []*battery.Cell) {
	for i, c := range cells {
		c.ImportState(e.lanes[p.off+i])
	}
}

// Lanes returns the pack's interned parameters and lanes, in pack
// order, as sub-slices of the engine's storage capped at the pack's
// end: a caller steps lane i in place with battery.CellState's methods
// and params[i]. The slices alias the engine only until the next
// Checkout, whose appends may move the backing arrays, so fetch them
// per batch segment rather than holding them across one.
func (e *Engine) Lanes(p Pack) ([]*battery.Params, []battery.CellState) {
	end := p.off + p.n
	return e.params[p.off:end:end], e.lanes[p.off:end:end]
}

// StepCurrentBatch advances every lane of the pack by one integration
// step at the requested per-cell currents (positive discharge), the
// bulk kernel behind rollout and fleet stepping: one call, N cells,
// zero allocations. dst receives the per-cell StepResult; dst and
// currents must both have length p.N(). Results are bit-identical to
// calling Cell.StepCurrent on each cell in order.
func (e *Engine) StepCurrentBatch(dst []battery.StepResult, p Pack, currents []float64, dt float64) {
	params, lanes := e.Lanes(p)
	for i := range lanes {
		dst[i] = battery.StepResult{}
		lanes[i].StepCurrent(params[i], currents[i], dt, &dst[i])
	}
}
