package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"sdb/internal/obs/ts"
)

// Every read goes through one path: checkWindow validates the window,
// overlap picks the stored runs (index entries, then the pending tail)
// that meet it without reading a page, meta counts from those runs
// alone, and scan decodes them with decodeRun.

// SeriesInfo describes one stored series.
type SeriesInfo struct {
	Name    string
	Kind    ts.Kind
	StepS   float64
	Samples uint64  // stored samples (pending included)
	FirstT  float64 // earliest sample time
	LastT   float64 // newest sample time
	Pages   int     // flushed pages this series owns
}

// Series lists every stored series, sorted by name.
func (s *Store) Series() []SeriesInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesInfo, 0, len(s.series))
	for _, ss := range s.sorted() {
		m := ss.meta(math.Inf(-1), math.Inf(1))
		out = append(out, SeriesInfo{Name: ss.name, Kind: ss.kind, StepS: ss.stepS,
			Samples: m.Total, FirstT: m.FirstT, LastT: ss.maxT, Pages: len(ss.entries)})
	}
	return out
}

// Query reads one series' raw samples in the closed window [t0, t1] as
// a ts.Window (Total = sample count). The read touches only index
// entries plus the data pages overlapping the window. It fails with
// ErrGap when the matched samples do not sit on one uniform grid (the
// window crosses a recording gap; narrow it to one side, or read it
// with WalkRange, which carries each sample's time).
func (s *Store) Query(name string, t0, t1 float64) (ts.Window, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, err := s.lookup(name, t0, t1)
	if err != nil {
		return ts.Window{}, err
	}
	w := ts.Window{Name: ss.name, Kind: ss.kind, StepS: ss.stepS}
	eps := gridEps(ss.stepS)
	err = s.scan(ss, t0-eps, t1+eps, func(t, v float64) error {
		if len(w.Values) == 0 {
			w.FirstT = t
		} else if want := w.FirstT + float64(len(w.Values))*ss.stepS; math.Abs(t-want) > eps {
			return fmt.Errorf("%w: %s at t=%g (expected %g)", ErrGap, name, t, want)
		}
		w.Values = append(w.Values, v)
		return nil
	})
	if err != nil {
		return ts.Window{}, err
	}
	w.Total = uint64(len(w.Values))
	return w, nil
}

// WalkRange streams every series with samples in the closed window
// [t0, t1], in name order: series once with the in-window metadata
// (Values nil, FirstT and Total exact, taken from the index before any
// page is read), then value per in-window sample in time order, across
// recording gaps. Only the data pages whose index entries overlap the
// window are decoded (check Stats().PagesRead), and none of a series
// whose series callback returns ts.SkipSeries. It is the export
// package's Walker shape.
func (s *Store) WalkRange(t0, t1 float64, series func(ts.Window) error, value func(t, v float64) error) error {
	if err := checkWindow(t0, t1); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ss := range s.sorted() {
		eps := gridEps(ss.stepS)
		lo, hi := t0-eps, t1+eps
		m := ss.meta(lo, hi)
		if m.Total == 0 {
			continue
		}
		if err := series(m); err == ts.SkipSeries {
			continue
		} else if err != nil {
			return err
		}
		if err := s.scan(ss, lo, hi, value); err != nil {
			return err
		}
	}
	return nil
}

// Bucket is one downsampled aggregate: Count samples in
// [T0, T0+width) with their Min, Max, and Sum.
type Bucket struct {
	T0    float64
	Count uint64
	Min   float64
	Max   float64
	Sum   float64
}

// Mean returns Sum/Count (NaN for an impossible empty bucket).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return math.NaN()
	}
	return b.Sum / float64(b.Count)
}

// QueryDown aggregates one series' raw samples into buckets of width
// bucketS anchored at t=0, returning every non-empty bucket that
// overlaps [t0, t1] in time order. Each bucket's sum is a left fold
// over its samples in time order. Unlike Query it spans recording
// gaps.
func (s *Store) QueryDown(name string, t0, t1, bucketS float64) ([]Bucket, error) {
	if !(bucketS > 0) || math.IsInf(bucketS, 0) {
		return nil, fmt.Errorf("store: bucket width %g not a positive finite duration", bucketS)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, err := s.lookup(name, t0, t1)
	if err != nil {
		return nil, err
	}
	i0, i1 := bucketIdx(t0, bucketS), bucketIdx(t1, bucketS)
	// The scan window as times; saturated indexes widen to ±Inf.
	lo, hi := float64(i0)*bucketS, (float64(i1)+1)*bucketS
	if i0 == math.MinInt64 {
		lo = math.Inf(-1)
	}
	if i1 == math.MaxInt64 {
		hi = math.Inf(1)
	}

	// Samples arrive in time order, so each one extends the newest
	// bucket or opens the next.
	var out []Bucket
	var last int64
	err = s.scan(ss, lo, hi, func(t, v float64) error {
		idx := bucketIdx(t, bucketS)
		if idx < i0 || idx > i1 {
			return nil
		}
		if len(out) == 0 || idx != last {
			last = idx
			out = append(out, Bucket{T0: float64(idx) * bucketS, Count: 1, Min: v, Max: v, Sum: v})
			return nil
		}
		b := &out[len(out)-1]
		b.Count++
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
		b.Sum += v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// bucketIdx maps a time to its bucket number, anchored at t=0,
// saturating at the int64 range so infinite query bounds behave.
func bucketIdx(t, bucketS float64) int64 {
	f := math.Floor(t / bucketS)
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}

// checkWindow is the one validity check of a read window [t0, t1]. A
// NaN bound compares false with every time, so unchecked it would read
// as "no bound" and return everything.
func checkWindow(t0, t1 float64) error {
	if math.IsNaN(t0) || math.IsNaN(t1) || t0 > t1 {
		return fmt.Errorf("store: read window [%g, %g] is NaN or inverted", t0, t1)
	}
	return nil
}

// lookup resolves a single-series read: a known name and a valid window.
func (s *Store) lookup(name string, t0, t1 float64) (*seriesState, error) {
	ss, ok := s.series[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown series %q", name)
	}
	return ss, checkWindow(t0, t1)
}

// sorted returns every series in name order.
func (s *Store) sorted() []*seriesState {
	out := make([]*seriesState, 0, len(s.series))
	for _, ss := range s.series {
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// overlap calls fn, in time order, for each stored run of ss — its
// flushed pages' index entries, then the pending tail as page 0 — with
// the index range [iLo, iHi] of the run's samples that fall inside
// [lo, hi]. It reads no page.
func (ss *seriesState) overlap(lo, hi float64, fn func(e entry, iLo, iHi int64) error) error {
	visit := func(e entry) error {
		if iLo, iHi, ok := gridOverlap(e.firstT, ss.stepS, e.count, lo, hi); ok {
			return fn(e, iLo, iHi)
		}
		return nil
	}
	for _, e := range ss.entries {
		if err := visit(e); err != nil {
			return err
		}
	}
	return visit(entry{firstT: ss.pFirstT, count: uint64(ss.pCount)})
}

// gridOverlap returns the sample index range [iLo, iHi] of the uniform
// grid t = firstT + i*stepS, i in [0, count), that falls inside the
// closed window [lo, hi]; ok is false when nothing overlaps.
func gridOverlap(firstT, stepS float64, count uint64, lo, hi float64) (iLo, iHi int64, ok bool) {
	iHi = int64(count) - 1
	if count == 0 || hi < firstT || lo > firstT+float64(iHi)*stepS {
		return 0, 0, false
	}
	if lo > firstT {
		iLo = int64(math.Ceil((lo - firstT) / stepS))
	}
	if hi < firstT+float64(iHi)*stepS {
		iHi = int64(math.Floor((hi - firstT) / stepS))
	}
	iLo, iHi = max(iLo, 0), min(iHi, int64(count)-1)
	return iLo, iHi, iLo <= iHi
}

// meta is the index-only pass: the series' metadata with the exact
// count and first time of its samples inside [lo, hi].
func (ss *seriesState) meta(lo, hi float64) ts.Window {
	w := ts.Window{Name: ss.name, Kind: ss.kind, StepS: ss.stepS}
	ss.overlap(lo, hi, func(e entry, iLo, iHi int64) error {
		if w.Total == 0 {
			w.FirstT = e.firstT + float64(iLo)*ss.stepS
		}
		w.Total += uint64(iHi - iLo + 1)
		return nil
	})
	return w
}

// scan calls fn for every sample of ss inside [lo, hi] in time order,
// decoding only the runs that overlap the window.
func (s *Store) scan(ss *seriesState, lo, hi float64, fn func(t, v float64) error) error {
	return ss.overlap(lo, hi, func(e entry, iLo, iHi int64) error {
		body := ss.pBuf
		if e.page != 0 {
			var err error
			if body, err = s.readDataPage(ss, e); err != nil {
				return err
			}
		}
		return decodeRun(body, e.firstT, ss.stepS, iLo, iHi, fn)
	})
}

// readDataPage reads entry e's page and returns its sample run. The
// page is re-validated against its index entry, so a stale or corrupt
// cross-reference surfaces as ErrCorrupt, not wrong data.
func (s *Store) readDataPage(ss *seriesState, e entry) ([]byte, error) {
	payload, err := s.readPage(e.page)
	if err != nil {
		return nil, err
	}
	id, firstT, count, body, err := parseDataHeader(payload)
	if err != nil {
		return nil, err
	}
	if id != ss.id || count != e.count || firstT != e.firstT {
		return nil, fmt.Errorf("%w: page %d does not match index (series %d t=%g n=%d, want %d/%g/%d)",
			ErrCorrupt, e.page, id, firstT, count, ss.id, e.firstT, e.count)
	}
	return body, nil
}

// decodeRun decodes one sample run — a data page's body, or the
// pending buffer that flushSeries writes verbatim as that body: the
// first value's raw f64 bits, then one uvarint XOR-of-bits delta per
// further sample — and calls fn(firstT+i*stepS, value) for each sample
// i in [iLo, iHi]. It stops decoding after iHi.
func decodeRun(body []byte, firstT, stepS float64, iLo, iHi int64, fn func(t, v float64) error) error {
	if len(body) < 8 {
		return fmt.Errorf("%w: truncated first value", ErrCorrupt)
	}
	bits := binary.LittleEndian.Uint64(body)
	body = body[8:]
	for i := int64(0); i <= iHi; i++ {
		if i > 0 {
			delta, n := binary.Uvarint(body)
			if n <= 0 {
				return fmt.Errorf("%w: bad value delta varint", ErrCorrupt)
			}
			body = body[n:]
			bits ^= delta
		}
		if i >= iLo {
			if err := fn(firstT+float64(i)*stepS, math.Float64frombits(bits)); err != nil {
				return err
			}
		}
	}
	return nil
}
