// Package ts turns the point-in-time obs registry into recorded
// history: a scraper samples every registered metric on a fixed
// sim-time cadence into bounded uniform-step series, and a declarative
// alert engine derives level, rate and delta signals from the newest
// samples and raises edges when rules fire and resolve — the recorder
// emits them as trace events and audit records, the fleet and
// `sdbctl watch` evaluate through the same engine.
//
// The package keeps the two obs invariants: a nil *Recorder is a
// complete no-op (the stack behaves byte-identically to one without
// recording), and steady-state sampling performs zero heap allocations
// (all rings and scratch buffers are preallocated; allocation happens
// only when the metric set changes or an alert transitions).
//
// All timestamps are simulated seconds — the same clock
// Runtime.NoteTime and the tracer use — so recordings are
// deterministic and replayable regardless of host speed.
package ts

import (
	"errors"
	"math"
)

// Kind classifies what a series' samples mean. The values are stable:
// they are written into the telemetry store and onto the wire.
type Kind uint8

const (
	// KindCounter samples a monotone integer counter's running total.
	KindCounter Kind = iota
	// KindFCounter samples a monotone float accumulator's running total.
	KindFCounter
	// KindGauge samples an instantaneous value.
	KindGauge
	// KindHistBucket samples one cumulative histogram bucket count
	// (monotone; the series name carries the le="..." edge).
	KindHistBucket
	// KindHistSum samples a histogram's running sum of observations.
	KindHistSum
	// KindHistCount samples a histogram's running observation count.
	KindHistCount
)

// Monotone reports whether samples of this kind only grow, i.e. a
// windowed delta over them counts events in the window.
func (k Kind) Monotone() bool {
	return k != KindGauge
}

// String names the kind for display.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindFCounter:
		return "fcounter"
	case KindGauge:
		return "gauge"
	case KindHistBucket:
		return "hist_bucket"
	case KindHistSum:
		return "hist_sum"
	case KindHistCount:
		return "hist_count"
	}
	return "unknown"
}

// Series is one bounded uniform-step time series: a preallocated
// float64 ring plus enough bookkeeping to place every retained sample
// on the sim clock without storing per-sample timestamps. Sample i
// (0 = oldest retained) happened at winT0 + i*stepS. Not
// self-synchronizing — the owning Recorder serializes access.
type Series struct {
	name  string
	kind  Kind
	stepS float64
	ring  []float64
	start int
	n     int
	// total counts every sample ever appended, including ones the ring
	// has since evicted; total - n is the evicted count.
	total uint64
	// winT0 is the sim time of the oldest retained sample; it advances
	// by stepS each eviction, so timestamps survive wraparound.
	winT0 float64
}

func newSeries(name string, kind Kind, stepS float64, retain int, t0 float64) *Series {
	return &Series{
		name:  name,
		kind:  kind,
		stepS: stepS,
		ring:  make([]float64, retain),
		winT0: t0,
	}
}

// append pushes one sample, evicting the oldest when full. Alloc-free.
func (s *Series) append(v float64) {
	if s.n == len(s.ring) {
		s.ring[s.start] = v
		s.start++
		if s.start == len(s.ring) {
			s.start = 0
		}
		s.winT0 += s.stepS
	} else {
		i := s.start + s.n
		if i >= len(s.ring) {
			i -= len(s.ring)
		}
		s.ring[i] = v
		s.n++
	}
	s.total++
}

// Len returns how many samples the ring currently retains.
func (s *Series) Len() int { return s.n }

// Total returns how many samples were ever appended (retained plus
// evicted).
func (s *Series) Total() uint64 { return s.total }

// At returns retained sample i, 0 = oldest. Panics out of range like a
// slice would.
func (s *Series) At(i int) float64 {
	if i < 0 || i >= s.n {
		panic("ts: series index out of range")
	}
	j := s.start + i
	if j >= len(s.ring) {
		j -= len(s.ring)
	}
	return s.ring[j]
}

// last returns the newest sample, NaN when empty.
func (s *Series) last() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.At(s.n - 1)
}

// Window is an immutable copy of a series' retained samples, the unit
// of transport for files and the wire. Values[0] happened at FirstT;
// Values[i] at FirstT + i*StepS.
type Window struct {
	Name   string
	Kind   Kind
	StepS  float64
	FirstT float64
	// Total counts samples ever recorded; Total - len(Values) were
	// evicted before this window was cut.
	Total  uint64
	Values []float64
}

// SkipSeries is returned by a series walk's per-series callback to pass
// over that series: the source delivers none of its values (the paged
// store reads none of its pages) and goes on with the next series.
var SkipSeries = errors.New("ts: skip this series")

// Window copies the retained samples out of the series.
func (s *Series) Window() Window {
	w := Window{
		Name:   s.name,
		Kind:   s.kind,
		StepS:  s.stepS,
		FirstT: s.winT0,
		Total:  s.total,
		Values: make([]float64, s.n),
	}
	for i := 0; i < s.n; i++ {
		w.Values[i] = s.At(i)
	}
	return w
}
