// Package obs is the SDB stack's measurement plane: an
// allocation-free metrics registry (counters, float counters, gauges,
// fixed-bucket histograms), a bounded span/event tracer, and a
// structured policy-audit log.
//
// The paper's evaluation (Section 6) depends on seeing what the SDB
// runtime decided — per-cell charge/discharge ratios, resistive-loss
// estimates for RBL, cycle counts for CCB — yet those quantities are
// computed deep inside the policy and firmware layers. This package
// makes them first-class observables without perturbing the system
// under test. Two properties are load-bearing and enforced by tests:
//
//   - Byte-identical-off: with no registry attached (the default),
//     every instrumented layer behaves exactly as it did before
//     instrumentation existed. Every metric operation is a no-op on a
//     nil receiver, so "disabled" is spelled "nil" and costs one
//     predictable branch.
//
//   - Zero-alloc-on: with a live registry attached, the hot paths
//     (Controller.Step, the emulator step loop) still perform zero
//     heap allocations. All hot-path operations are lock-free atomics
//     (counters, gauges, histograms) or a fixed-capacity ring behind a
//     mutex (tracer events); registration and snapshots allocate, but
//     those run at construction and read time only.
//
// Snapshot-on-read: readers call Registry.Snapshot (or WriteText for
// the exposition format) and get a consistent, sorted copy; writers
// never block on readers beyond the atomic operations themselves.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families in snapshots and the exposition
// format.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds named metrics plus the tracer and audit log — one
// handle for a process's (or an experiment's) whole measurement plane.
// A nil *Registry is valid everywhere and means "observability off".
//
// Metric constructors are get-or-create: asking twice for the same
// name returns the same metric, so independent components can share a
// registry without coordinating registration. Names are expected to
// follow the sdb_<layer>_<quantity>[_total|_joules|_seconds] style
// documented in DESIGN.md §10.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	fcounters map[string]*FCounter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram

	tracer *Tracer
	audit  *AuditLog
}

// NewRegistry returns an empty registry with a tracer ring of
// DefaultTraceCap events and an audit log of DefaultAuditCap records.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		fcounters: map[string]*FCounter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		tracer:    NewTracer(DefaultTraceCap),
		audit:     NewAuditLog(DefaultAuditCap),
	}
}

// defaultReg is the process-wide registry CLIs install; nil (the
// default) keeps every layer uninstrumented. Tests use explicit
// registries so parallel packages never share state.
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when observability
// is off.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs the process-wide registry. Call once at program
// start, before building controllers or runtimes; layers capture the
// default at construction time.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Or returns r unless it is nil, in which case the process default
// (possibly also nil) is returned. Layers call this once at
// construction to resolve their registry.
func (r *Registry) Or(fallback *Registry) *Registry {
	if r != nil {
		return r
	}
	return fallback
}

// Counter returns the named counter, creating it on first use. Nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// FCounter returns the named float counter (monotone float total),
// creating it on first use. Nil registry returns a nil no-op.
func (r *Registry) FCounter(name string) *FCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.fcounters[name]
	if !ok {
		c = &FCounter{}
		r.fcounters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil
// registry returns a nil no-op.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given upper bounds on first use (later calls may pass nil bounds
// to mean "whatever it was created with"). Bounds must be strictly
// increasing; an implicit +Inf bucket is always appended. Nil registry
// returns a nil no-op.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's event tracer (nil for a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Audit returns the registry's policy-audit log (nil for a nil
// registry).
func (r *Registry) Audit() *AuditLog {
	if r == nil {
		return nil
	}
	return r.audit
}

// Sample is one exposed value of a metric family: scalar metrics have
// a single sample with an empty Label; histograms expose one sample
// per bucket (Label `le="<bound>"`) plus "sum" and "count".
type Sample struct {
	Label string
	Value float64
}

// Family is the read-side view of one metric.
type Family struct {
	Name    string
	Kind    Kind
	Samples []Sample
}

// Snapshot returns every metric's current value, sorted by name. The
// result is a deep copy: mutating it does not touch the registry, and
// concurrent writers keep running while it is taken.
func (r *Registry) Snapshot() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]Family, 0, len(r.counters)+len(r.fcounters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		fams = append(fams, Family{Name: name, Kind: KindCounter,
			Samples: []Sample{{Value: float64(c.Value())}}})
	}
	for name, c := range r.fcounters {
		fams = append(fams, Family{Name: name, Kind: KindCounter,
			Samples: []Sample{{Value: c.Value()}}})
	}
	for name, g := range r.gauges {
		fams = append(fams, Family{Name: name, Kind: KindGauge,
			Samples: []Sample{{Value: g.Value()}}})
	}
	for name, h := range r.hists {
		fams = append(fams, Family{Name: name, Kind: KindHistogram, Samples: h.samples()})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// MetricRef is a live read handle to one registered metric: Name, the
// exposition Kind, and exactly one non-nil typed handle. The time-series
// recorder resolves refs once per registry topology and then reads the
// handles' atomic values directly — the allocation-free alternative to
// Snapshot for periodic scraping.
type MetricRef struct {
	Name     string
	Kind     Kind
	Counter  *Counter
	FCounter *FCounter
	Gauge    *Gauge
	Hist     *Histogram
}

// Refs returns a handle per registered metric, sorted by name. The
// slice is fresh but the handles are live: reading them later sees
// current values. Nil registry returns nil.
func (r *Registry) Refs() []MetricRef {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	refs := make([]MetricRef, 0, len(r.counters)+len(r.fcounters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		refs = append(refs, MetricRef{Name: name, Kind: KindCounter, Counter: c})
	}
	for name, c := range r.fcounters {
		refs = append(refs, MetricRef{Name: name, Kind: KindCounter, FCounter: c})
	}
	for name, g := range r.gauges {
		refs = append(refs, MetricRef{Name: name, Kind: KindGauge, Gauge: g})
	}
	for name, h := range r.hists {
		refs = append(refs, MetricRef{Name: name, Kind: KindHistogram, Hist: h})
	}
	r.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name < refs[j].Name })
	return refs
}

// NumMetrics reports how many metrics are registered — a cheap change
// detector for scrapers deciding whether to re-resolve Refs. Zero on a
// nil registry.
func (r *Registry) NumMetrics() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.fcounters) + len(r.gauges) + len(r.hists)
}

// Counter is a monotone int64 counter. All methods are safe on a nil
// receiver (no-ops) and for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative for the counter to stay monotone;
// this is not enforced on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FCounter is a monotone float64 total (energy in joules, seconds of
// runtime). Add is a lock-free CAS loop; nil-safe.
type FCounter struct{ bits atomic.Uint64 }

// Add accumulates v.
func (c *FCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value reads the total (0 on nil).
func (c *FCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a last-value float64. Set is a single atomic store;
// nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: cumulative-on-read bucket
// counts for observations ≤ each upper bound, plus sum and count.
// Observe is a linear scan over the bounds and three atomic adds — no
// allocation, no locks. Nil-safe.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64
	sum    FCounter
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1), // +1 for +Inf
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// NumBuckets returns the bucket count including the implicit +Inf
// bucket (0 on nil).
func (h *Histogram) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.bounds) + 1
}

// Bounds returns a copy of the finite upper bucket bounds (nil on nil).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// CumAt reads the cumulative count of observations ≤ bound i (the
// bucket at len(bounds) is +Inf, i.e. the total). Allocation-free so
// scrapers can read bucket series on a cadence; O(i) in the bucket
// index. Zero on a nil receiver or out-of-range index.
func (h *Histogram) CumAt(i int) float64 {
	if h == nil || i < 0 || i > len(h.bounds) {
		return 0
	}
	var cum int64
	for j := 0; j <= i; j++ {
		cum += h.counts[j].Load()
	}
	return float64(cum)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// samples renders the cumulative bucket view.
func (h *Histogram) samples() []Sample {
	out := make([]Sample, 0, len(h.bounds)+3)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, Sample{Label: FormatLe(b), Value: float64(cum)})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out, Sample{Label: FormatLe(math.Inf(1)), Value: float64(cum)})
	out = append(out, Sample{Label: "sum", Value: h.sum.Value()})
	out = append(out, Sample{Label: "count", Value: float64(h.count.Load())})
	return out
}
