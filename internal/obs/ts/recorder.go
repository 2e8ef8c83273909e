package ts

import (
	"math"
	"sort"
	"sync"

	"sdb/internal/obs"
)

// DefaultStepS is the scrape cadence when Config.StepS is zero: one
// sample per simulated minute, which keeps a full emulated day at 1440
// samples per series.
const DefaultStepS = 60

// DefaultRetain is the per-series ring capacity when Config.Retain is
// zero — comfortably more than a day at the default cadence.
const DefaultRetain = 4096

// Config sizes a Recorder.
type Config struct {
	// StepS is the sample cadence in sim seconds (DefaultStepS when 0).
	// The recorder snaps samples to a uniform grid: a Sample(t) call
	// records one sample per elapsed grid point, so cadences coarser
	// than the caller's tick rate skip ticks and finer ones repeat the
	// last-seen values. Use a multiple of the policy interval.
	StepS float64
	// Retain bounds samples kept per series (DefaultRetain when 0);
	// the ring evicts oldest-first beyond it.
	Retain int
	// Rules, when non-empty, attaches an alert evaluator that runs
	// after every sample. Parse them with ParseRules.
	Rules []Rule
	// Sink, when non-nil, receives a copy of every appended sample —
	// typically an on-disk store, turning the bounded ring into
	// unbounded durable history.
	Sink Sink
}

// Sink receives every sample a Recorder appends, in time order per
// series. The on-disk telemetry store (obs/ts/store) implements it;
// anything else matching the shape (network shippers, test doubles)
// plugs in the same way. A Sink must not call back into the Recorder.
type Sink interface {
	Append(name string, kind Kind, stepS, t, v float64) error
}

// column maps one registry metric to its series. Exactly one of the
// metric handles is non-nil; histograms fan out into bucket/sum/count
// series held by a shared histGroup.
type column struct {
	counter  *obs.Counter
	fcounter *obs.FCounter
	gauge    *obs.Gauge
	hist     *obs.Histogram

	s  *Series // scalar metrics
	hg *histGroup
}

// histGroup ties a histogram's fan-out series together, so a scrape
// of the family appends to each of them.
type histGroup struct {
	buckets []*Series // one per bound plus +Inf last, cumulative counts
	sum     *Series
	count   *Series
}

// Recorder scrapes an obs registry into bounded uniform-step series
// and (optionally) evaluates alert rules after every sample. The zero
// of usefulness is preserved: a nil *Recorder ignores every call, so
// layers thread it unconditionally. Sample reads the live registry
// in-process, allocation-free in steady state.
type Recorder struct {
	mu     sync.Mutex
	reg    *obs.Registry
	stepS  float64
	retain int

	// live-scrape state: refs/cols rebuilt only when the registry's
	// metric count changes (registration is append-only).
	refs    []obs.MetricRef
	cols    []column
	lastNum int

	series []*Series
	byName map[string]*Series
	hists  map[string]*histGroup // histogram base name → group

	started bool
	nextT   float64
	lastT   float64

	sink    Sink
	sinkErr error

	eval *Evaluator
}

// NewRecorder builds a recorder over reg (a nil reg records nothing).
// The returned recorder allocates its rings lazily, per metric, at
// first sight.
func NewRecorder(reg *obs.Registry, cfg Config) *Recorder {
	if cfg.StepS <= 0 {
		cfg.StepS = DefaultStepS
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	r := &Recorder{
		reg:    reg,
		stepS:  cfg.StepS,
		retain: cfg.Retain,
		byName: make(map[string]*Series),
		hists:  make(map[string]*histGroup),
	}
	if len(cfg.Rules) > 0 {
		r.eval = newEvaluator(cfg.Rules, reg)
	}
	r.sink = cfg.Sink
	return r
}

// SinkErr returns the first error the sink reported, if any. Recording
// into the ring continues past sink errors — losing durable history
// must not take down live observability — so callers check this at
// shutdown (or on a cadence) to learn the store fell behind. Nil-safe.
func (r *Recorder) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// push appends one sample to a series' ring and mirrors it to the
// sink. The nil-sink path stays allocation-free.
func (r *Recorder) push(s *Series, t, v float64) {
	s.append(v)
	if r.sink != nil {
		if err := r.sink.Append(s.name, s.kind, s.stepS, t, v); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
}

// StepS returns the sample cadence in sim seconds.
func (r *Recorder) StepS() float64 {
	if r == nil {
		return 0
	}
	return r.stepS
}

// Sample scrapes the live registry once per grid point elapsed up to
// sim time t. Call it on policy-tick boundaries; between metric-set
// changes it performs zero heap allocations. Nil-safe.
func (r *Recorder) Sample(t float64) {
	if r == nil || r.reg == nil {
		return
	}
	r.mu.Lock()
	if !r.started {
		r.started = true
		r.nextT = t
	}
	for t >= r.nextT-1e-9 {
		r.syncLocked(r.nextT)
		r.scrapeLocked(r.nextT)
		r.lastT = r.nextT
		r.nextT += r.stepS
		r.eval.evalLocked(r, r.lastT)
	}
	r.mu.Unlock()
}

// syncLocked rebuilds the ref→series columns when the registry's
// metric set grew. Rare (typically once, on the first sample), so it
// may allocate.
func (r *Recorder) syncLocked(t float64) {
	n := r.reg.NumMetrics()
	if n == r.lastNum {
		return
	}
	r.lastNum = n
	r.refs = r.reg.Refs()
	r.cols = r.cols[:0]
	for _, ref := range r.refs {
		var c column
		switch {
		case ref.Counter != nil:
			c.counter = ref.Counter
			c.s = r.seriesLocked(ref.Name, KindCounter, t)
		case ref.FCounter != nil:
			c.fcounter = ref.FCounter
			c.s = r.seriesLocked(ref.Name, KindFCounter, t)
		case ref.Gauge != nil:
			c.gauge = ref.Gauge
			c.s = r.seriesLocked(ref.Name, KindGauge, t)
		case ref.Hist != nil:
			c.hist = ref.Hist
			c.hg = r.histGroupLocked(ref.Name, ref.Hist.Bounds(), t)
		}
		r.cols = append(r.cols, c)
	}
}

// seriesLocked returns the named series, creating it (first sample at
// time t) if new.
func (r *Recorder) seriesLocked(name string, kind Kind, t float64) *Series {
	if s, ok := r.byName[name]; ok {
		return s
	}
	s := newSeries(name, kind, r.stepS, r.retain, t)
	r.byName[name] = s
	r.series = append(r.series, s)
	return s
}

// histGroupLocked returns the fan-out group for a histogram base name,
// creating bucket/sum/count series if new.
func (r *Recorder) histGroupLocked(name string, bounds []float64, t float64) *histGroup {
	if hg, ok := r.hists[name]; ok {
		return hg
	}
	nb := len(bounds) + 1
	hg := &histGroup{buckets: make([]*Series, nb)}
	for i := 0; i < nb; i++ {
		le := math.Inf(1)
		if i < len(bounds) {
			le = bounds[i]
		}
		hg.buckets[i] = r.seriesLocked(name+"_bucket{"+obs.FormatLe(le)+"}", KindHistBucket, t)
	}
	hg.sum = r.seriesLocked(name+"_sum", KindHistSum, t)
	hg.count = r.seriesLocked(name+"_count", KindHistCount, t)
	r.hists[name] = hg
	return hg
}

// scrapeLocked appends one sample (at grid time t) to every series.
// Alloc-free while no sink is attached.
func (r *Recorder) scrapeLocked(t float64) {
	for i := range r.cols {
		c := &r.cols[i]
		switch {
		case c.counter != nil:
			r.push(c.s, t, float64(c.counter.Value()))
		case c.fcounter != nil:
			r.push(c.s, t, c.fcounter.Value())
		case c.gauge != nil:
			r.push(c.s, t, c.gauge.Value())
		case c.hist != nil:
			for b, bs := range c.hg.buckets {
				r.push(bs, t, c.hist.CumAt(b))
			}
			r.push(c.hg.sum, t, c.hist.Sum())
			r.push(c.hg.count, t, float64(c.hist.Count()))
		}
	}
}

// LastT returns the sim time of the newest sample (false before any).
func (r *Recorder) LastT() (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastT, r.started
}

// Names returns all series names, sorted.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

// Get copies out one series' retained window.
func (r *Recorder) Get(name string) (Window, bool) {
	if r == nil {
		return Window{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byName[name]
	if !ok {
		return Window{}, false
	}
	return s.Window(), true
}

// Windows copies out every series, sorted by name: the ring contents a
// durable sink must reproduce sample for sample.
func (r *Recorder) Windows() []Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Window, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s.Window())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
