package faults

import (
	"fmt"
	"sort"

	"sdb/internal/firmware"
)

// CellFaultKind names a cell-level hardware fault.
type CellFaultKind int

const (
	// FaultOpenCircuit isolates the cell: the firmware routes no current
	// through it and reports it Faulted.
	FaultOpenCircuit CellFaultKind = iota
	// FaultCloseCircuit clears a previous open-circuit fault (the
	// "reseated connector" event).
	FaultCloseCircuit
	// FaultCapacityFade suddenly shrinks the cell's capacity to
	// Fraction of its current value.
	FaultCapacityFade
	// FaultGaugeDrift shifts the cell's fuel-gauge SoC estimate by
	// Fraction (may be negative).
	FaultGaugeDrift
	// FaultPanic crashes the device's stepping goroutine at the
	// scheduled time: Apply panics with a *PanicError. Not a hardware
	// fault but an injected firmware/emulation defect, used to prove the
	// fleet's shard supervision quarantines exactly the poison device.
	// The event counts as fired before the panic, so a schedule restored
	// from a checkpoint taken afterwards does not re-fire it.
	FaultPanic
)

// String names the fault kind for logs.
func (k CellFaultKind) String() string {
	switch k {
	case FaultOpenCircuit:
		return "open-circuit"
	case FaultCloseCircuit:
		return "close-circuit"
	case FaultCapacityFade:
		return "capacity-fade"
	case FaultGaugeDrift:
		return "gauge-drift"
	case FaultPanic:
		return "device-panic"
	}
	return fmt.Sprintf("CellFaultKind(%d)", int(k))
}

// CellEvent schedules one cell fault at a simulated time.
type CellEvent struct {
	// AtS is the simulated time in seconds at which the fault strikes.
	AtS float64
	// Cell is the pack index of the victim.
	Cell int
	// Kind selects the fault.
	Kind CellFaultKind
	// Fraction parameterizes the fault: capacity retained for
	// FaultCapacityFade, SoC bias for FaultGaugeDrift. Ignored for the
	// circuit faults.
	Fraction float64
}

// Schedule fires cell faults into a controller as simulated time
// passes. Events fire at most once, in time order. Not safe for
// concurrent use; drive it from the simulation goroutine.
type Schedule struct {
	events   []CellEvent
	next     int
	applied  []CellEvent
	removedJ float64
}

// NewSchedule builds a schedule; events are sorted by time (stable, so
// same-time events keep their given order).
func NewSchedule(events ...CellEvent) *Schedule {
	s := &Schedule{events: append([]CellEvent(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool {
		return s.events[i].AtS < s.events[j].AtS
	})
	return s
}

// Apply fires every not-yet-fired event with AtS <= tS against ctrl.
// The first event error stops the sweep and is returned; that event
// counts as fired (retrying a bad index would fail forever).
func (s *Schedule) Apply(tS float64, ctrl *firmware.Controller) error {
	for s.next < len(s.events) && s.events[s.next].AtS <= tS {
		ev := s.events[s.next]
		s.next++
		var err error
		switch ev.Kind {
		case FaultOpenCircuit:
			err = ctrl.SetCellOpen(ev.Cell, true)
		case FaultCloseCircuit:
			err = ctrl.SetCellOpen(ev.Cell, false)
		case FaultCapacityFade:
			// A fade can destroy stored charge (state of charge clamps at
			// full); record the chemical energy it removed so conservation
			// checks over a faulty run still balance. Safe without the
			// firmware lock because Apply runs on the simulation
			// goroutine, sequenced against Step.
			before := ctrl.Pack().EnergyRemainingJ()
			err = ctrl.InjectCapacityFade(ev.Cell, ev.Fraction)
			if err == nil {
				s.removedJ += before - ctrl.Pack().EnergyRemainingJ()
			}
		case FaultGaugeDrift:
			err = ctrl.InjectGaugeDrift(ev.Cell, ev.Fraction)
		case FaultPanic:
			// Record the event as applied first: the panic unwinds past
			// this frame, and a schedule restored from a checkpoint taken
			// after the crash must know the event already fired. The panic
			// happens outside any firmware lock (Apply runs on the
			// simulation goroutine before Step takes the mutex), so the
			// controller stays usable for post-mortem inspection.
			s.applied = append(s.applied, ev)
			panic(&PanicError{Cell: ev.Cell, AtS: ev.AtS})
		default:
			err = fmt.Errorf("faults: unknown cell fault kind %d", int(ev.Kind))
		}
		if err != nil {
			return fmt.Errorf("faults: %s on cell %d at t=%gs: %w",
				ev.Kind, ev.Cell, ev.AtS, err)
		}
		s.applied = append(s.applied, ev)
	}
	return nil
}

// Applied returns the events fired so far, in firing order.
func (s *Schedule) Applied() []CellEvent { return s.applied }

// Pending reports how many events have not fired yet.
func (s *Schedule) Pending() int { return len(s.events) - s.next }

// NextAt returns the simulated time of the next unfired event, if any.
// Batch steppers use it to size fault-free fast segments: any run of
// steps strictly before the next event time cannot observe a fault.
func (s *Schedule) NextAt() (tS float64, ok bool) {
	if s.next >= len(s.events) {
		return 0, false
	}
	return s.events[s.next].AtS, true
}

// EnergyRemovedJ returns the chemical energy destroyed by capacity-fade
// events so far — the correction term for energy-conservation checks
// spanning the faults.
func (s *Schedule) EnergyRemovedJ() float64 { return s.removedJ }

// PanicError is the value a FaultPanic event panics with; shard
// supervision recognizes it in recovered panic values.
type PanicError struct {
	Cell int
	AtS  float64
}

// Error describes the injected crash.
func (e *PanicError) Error() string {
	return fmt.Sprintf("faults: injected device panic on cell %d at t=%gs", e.Cell, e.AtS)
}

// Fired reports how many events have fired, for checkpointing. Events
// fire in sorted time order, so the count plus the (configuration-
// derived) event list fully positions the schedule.
func (s *Schedule) Fired() int { return s.next }

// RestoreState repositions the schedule to a checkpoint: the first
// fired events are marked applied and removedJ (the capacity-fade
// energy correction) is restored. The schedule must have been built
// from the same event list.
func (s *Schedule) RestoreState(fired int, removedJ float64) error {
	if fired < 0 || fired > len(s.events) {
		return fmt.Errorf("faults: restore: %d fired events of %d scheduled", fired, len(s.events))
	}
	s.next = fired
	s.applied = append(s.applied[:0], s.events[:fired]...)
	s.removedJ = removedJ
	return nil
}
