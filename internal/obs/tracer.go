package obs

import (
	"fmt"
	"sync"
)

// DefaultTraceCap is the tracer ring capacity NewRegistry uses.
const DefaultTraceCap = 256

// Event is one trace record. Events are value types with no pointers
// into the emitter, so emitting one never allocates: the tracer copies
// it into a fixed-capacity ring. Scope/Kind/Detail are expected to be
// static strings (or strings built off the hot path); Cell is -1 when
// the event is not about one cell.
//
// Span semantics: an event whose Kind ends in ".span" records a
// completed interval — TimeS is when it started and V1 its duration in
// the same time base. Everything else is a point event.
type Event struct {
	// Seq numbers events monotonically from tracer construction; gaps
	// at the front of Events() mean the ring dropped older entries.
	Seq uint64
	// TimeS is the event time in simulated seconds (or wall seconds for
	// layers with no simulation clock; the Scope documents which).
	TimeS float64
	// Scope names the emitting layer: "pmic", "core", "emulator", "bus".
	Scope string
	// Kind names the event within its scope, e.g. "watchdog-fire",
	// "health-transition", "run.span".
	Kind string
	// Cell is the battery index the event concerns, or -1.
	Cell int
	// V1 and V2 carry kind-specific numbers (a duration, a ratio, a
	// failure count — the Kind documents which).
	V1, V2 float64
	// Detail is a short human-readable annotation.
	Detail string
}

// String renders the event as one line for sdbctl trace and test logs.
func (e Event) String() string {
	cell := ""
	if e.Cell >= 0 {
		cell = fmt.Sprintf(" cell=%d", e.Cell)
	}
	s := fmt.Sprintf("#%d t=%.3fs %s/%s%s v1=%g v2=%g", e.Seq, e.TimeS, e.Scope, e.Kind, cell, e.V1, e.V2)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer is a bounded ring of events. Emit never blocks beyond the
// ring mutex and never allocates; when the ring is full the oldest
// event is overwritten (Dropped counts how many were lost). A nil
// *Tracer is a no-op.
type Tracer struct {
	mu   sync.Mutex
	ring ring[Event]
	seq  uint64
}

// NewTracer returns a tracer holding up to cap events (minimum 1).
func NewTracer(cap int) *Tracer {
	return &Tracer{ring: newRing[Event](cap)}
}

// Emit appends one event, stamping its sequence number.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	t.ring.push(ev)
	t.mu.Unlock()
}

// Span starts a span; call the returned func with the end time to emit
// one Kind+".span" event covering [startS, endS]. The handle is a
// value capture — no allocation beyond the closure, so keep spans off
// per-step hot loops (they are meant for run- and phase-level timing).
func (t *Tracer) Span(scope, kind string, startS float64) func(endS float64) {
	return func(endS float64) {
		t.Emit(Event{TimeS: startS, Scope: scope, Kind: kind + ".span", V1: endS - startS})
	}
}

// Events returns a copy of the live events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.snapshot()
}

// Dropped reports how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.dropped
}

// Len reports the number of live events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.n
}

// Cap reports the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring.buf)
}
