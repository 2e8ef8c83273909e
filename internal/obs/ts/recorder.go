package ts

import (
	"sort"
	"strconv"
	"strings"
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
	// unbounded durable history. See SetSink.
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
// or an Observe of the family appends to each of them.
type histGroup struct {
	buckets []*Series // one per bound plus +Inf last, cumulative counts
	sum     *Series
	count   *Series
}

// Recorder scrapes an obs registry into bounded uniform-step series
// and (optionally) evaluates alert rules after every sample. The zero
// of usefulness is preserved: a nil *Recorder ignores every call, so
// layers thread it unconditionally.
//
// Two ingestion paths share the engine: Sample reads a live registry
// in-process (alloc-free steady state), Observe ingests parsed
// expositions scraped over the wire (sdbctl watch). A recorder should
// use one path, not both.
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

// NewRecorder builds a recorder over reg (nil reg is allowed for
// Observe-only use). The returned recorder allocates its rings lazily,
// per metric, at first sight.
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

// SetSink attaches (or, with nil, detaches) a durable sink. Samples
// recorded before the attach are not replayed. Nil-safe.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
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
		hg.buckets[i] = r.seriesLocked(name+"_bucket{"+bucketLabel(bounds, i)+"}", KindHistBucket, t)
	}
	hg.sum = r.seriesLocked(name+"_sum", KindHistSum, t)
	hg.count = r.seriesLocked(name+"_count", KindHistCount, t)
	r.hists[name] = hg
	return hg
}

// bucketLabel renders le="..." exactly like the text exposition, so
// live-scraped and wire-parsed series share names.
func bucketLabel(bounds []float64, i int) string {
	if i >= len(bounds) {
		return `le="+Inf"`
	}
	return `le="` + strconv.FormatFloat(bounds[i], 'g', -1, 64) + `"`
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

// Observe ingests one parsed exposition (ParseText output) at sim time
// t, appending one grid sample per series — the wire-side twin of
// Sample for callers that only hold a scraped text dump. Follows the
// same uniform grid: multiple elapsed grid points repeat the scraped
// values. Nil-safe.
func (r *Recorder) Observe(t float64, fams []obs.Family) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.started {
		r.started = true
		r.nextT = t
	}
	for t >= r.nextT-1e-9 {
		r.observeOnceLocked(r.nextT, fams)
		r.lastT = r.nextT
		r.nextT += r.stepS
		r.eval.evalLocked(r, r.lastT)
	}
	r.mu.Unlock()
}

func (r *Recorder) observeOnceLocked(t float64, fams []obs.Family) {
	for _, f := range fams {
		switch f.Kind {
		case obs.KindCounter:
			if len(f.Samples) == 1 {
				// Int and float counters are indistinguishable in the text
				// format; record both as float counters.
				r.push(r.seriesLocked(f.Name, KindFCounter, t), t, f.Samples[0].Value)
			}
		case obs.KindGauge:
			if len(f.Samples) == 1 {
				r.push(r.seriesLocked(f.Name, KindGauge, t), t, f.Samples[0].Value)
			}
		case obs.KindHistogram:
			r.observeHistLocked(t, f)
		}
	}
}

func (r *Recorder) observeHistLocked(t float64, f obs.Family) {
	hg := r.hists[f.Name]
	if hg == nil {
		// First sight: reconstruct the bucket layout from the labels.
		var bounds []float64
		for _, s := range f.Samples {
			le, ok := cutLe(s.Label)
			if !ok || le == "+Inf" {
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return // malformed family; skip whole
			}
			bounds = append(bounds, b)
		}
		hg = r.histGroupLocked(f.Name, bounds, t)
	}
	bi := 0
	for _, s := range f.Samples {
		switch {
		case strings.HasPrefix(s.Label, `le="`):
			if bi < len(hg.buckets) {
				r.push(hg.buckets[bi], t, s.Value)
				bi++
			}
		case s.Label == "sum":
			r.push(hg.sum, t, s.Value)
		case s.Label == "count":
			r.push(hg.count, t, s.Value)
		}
	}
}

func cutLe(label string) (string, bool) {
	v, ok := strings.CutPrefix(label, `le="`)
	if !ok || !strings.HasSuffix(v, `"`) {
		return "", false
	}
	return strings.TrimSuffix(v, `"`), true
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
