package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"sdb/internal/obs/ts"
)

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
	for _, ss := range s.series {
		info := SeriesInfo{Name: ss.name, Kind: ss.kind, StepS: ss.stepS, LastT: ss.maxT, Pages: len(ss.entries)}
		first := math.Inf(1)
		for _, e := range ss.entries {
			info.Samples += e.count
			if e.firstT < first {
				first = e.firstT
			}
		}
		if ss.pCount > 0 {
			info.Samples += uint64(ss.pCount)
			if ss.pFirstT < first {
				first = ss.pFirstT
			}
		}
		if !math.IsInf(first, 1) {
			info.FirstT = first
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Query reads one series' raw samples in the closed window [t0, t1] as
// a ts.Window (Total = sample count). The read touches only index
// entries plus the data pages overlapping the window. It fails with
// ErrGap when the matched samples do not sit on one uniform grid (the
// window crosses a recording gap; narrow it to one side).
func (s *Store) Query(name string, t0, t1 float64) (ts.Window, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.series[name]
	if !ok {
		return ts.Window{}, fmt.Errorf("store: unknown series %q", name)
	}
	if t0 > t1 {
		return ts.Window{}, fmt.Errorf("store: query window [%g, %g] inverted", t0, t1)
	}
	w := ts.Window{Name: ss.name, Kind: ss.kind, StepS: ss.stepS}
	eps := gridEps(ss.stepS)

	first := true
	add := func(t, v float64) error {
		if t < t0-eps || t > t1+eps {
			return nil
		}
		if first {
			w.FirstT = t
			first = false
		} else if want := w.FirstT + float64(len(w.Values))*ss.stepS; math.Abs(t-want) > eps {
			return fmt.Errorf("%w: %s at t=%g (expected %g)", ErrGap, name, t, want)
		}
		w.Values = append(w.Values, v)
		return nil
	}

	for _, e := range ss.entries {
		if e.lastT < t0-eps || e.firstT > t1+eps {
			continue
		}
		if err := s.decodeDataPage(ss, e, add); err != nil {
			return ts.Window{}, err
		}
	}
	if err := ss.pendingEach(t0-eps, t1+eps, add); err != nil {
		return ts.Window{}, err
	}
	w.Total = uint64(len(w.Values))
	return w, nil
}

// decodeDataPage reads entry e's page and calls fn for each (t, v) in
// order. The page is re-validated against its index entry, so a stale
// or corrupt cross-reference surfaces as ErrCorrupt, not wrong data.
func (s *Store) decodeDataPage(ss *seriesState, e entry, fn func(t, v float64) error) error {
	payload, err := s.readPage(e.page)
	if err != nil {
		return err
	}
	id, firstT, count, err := parseDataHeader(payload)
	if err != nil {
		return err
	}
	if id != ss.id || count != e.count || firstT != e.firstT {
		return fmt.Errorf("%w: page %d does not match index (series %d t=%g n=%d, want %d/%g/%d)",
			ErrCorrupt, e.page, id, firstT, count, ss.id, e.firstT, e.count)
	}
	d := pageParser{buf: payload[1:]}
	d.uvarint("series id")
	d.f64("firstT")
	d.uvarint("sample count")
	prev := math.Float64bits(d.f64("first value"))
	if d.err != nil {
		return d.err
	}
	if err := fn(firstT, math.Float64frombits(prev)); err != nil {
		return err
	}
	for i := uint64(1); i < count; i++ {
		delta := d.uvarint("value delta")
		if d.err != nil {
			return d.err
		}
		prev ^= delta
		if err := fn(firstT+float64(i)*ss.stepS, math.Float64frombits(prev)); err != nil {
			return err
		}
	}
	return nil
}

// pendingEach walks the not-yet-flushed samples of a series whose
// times fall inside [lo, hi], decoding the pending buffer in place.
func (ss *seriesState) pendingEach(lo, hi float64, fn func(t, v float64) error) error {
	if ss.pCount == 0 || ss.pFirstT > hi ||
		ss.pFirstT+float64(ss.pCount-1)*ss.stepS < lo {
		return nil
	}
	buf := ss.pBuf
	prev := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	for i := 0; i < ss.pCount; i++ {
		if i > 0 {
			delta, n := binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("%w: pending buffer of %s", ErrCorrupt, ss.name)
			}
			buf = buf[n:]
			prev ^= delta
		}
		t := ss.pFirstT + float64(i)*ss.stepS
		if t < lo || t > hi {
			continue
		}
		if err := fn(t, math.Float64frombits(prev)); err != nil {
			return err
		}
	}
	return nil
}

// gridOverlap returns the sample index range [iLo, iHi] of the uniform
// grid t = firstT + i*stepS, i in [0, count), that falls inside the
// closed window [lo, hi]; ok is false when nothing overlaps.
func gridOverlap(firstT, stepS float64, count int64, lo, hi float64) (iLo, iHi int64, ok bool) {
	if count == 0 {
		return 0, 0, false
	}
	iLo, iHi = 0, count-1
	if stepS > 0 {
		if lo > firstT {
			iLo = int64(math.Ceil((lo - firstT) / stepS))
		}
		if hi < firstT+float64(iHi)*stepS {
			iHi = int64(math.Floor((hi - firstT) / stepS))
		}
	} else if firstT < lo || firstT > hi {
		return 0, 0, false
	}
	if iLo < 0 {
		iLo = 0
	}
	if iHi > count-1 {
		iHi = count - 1
	}
	return iLo, iHi, iLo <= iHi
}

// WalkRange is Walk narrowed to the closed window [t0, t1]: for each
// series overlapping the window (in name order) it calls series once
// with in-range metadata, then value per in-range raw sample in time
// order. Unlike a full Walk it decodes only the data pages whose index
// entries overlap the window — the point of the paged layout — so
// exporting one hour out of a month of telemetry reads one hour of
// pages (check Stats().PagesRead). Series with nothing in the window
// are skipped entirely.
func (s *Store) WalkRange(t0, t1 float64, series func(ts.Window) error, value func(t, v float64) error) error {
	if t0 > t1 {
		return fmt.Errorf("store: walk window [%g, %g] inverted", t0, t1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := s.series[name]
		eps := gridEps(ss.stepS)
		lo, hi := t0-eps, t1+eps

		// First pass over the index only — no page reads: exact in-range
		// count and first time, so the series meta is right up front.
		var total uint64
		firstT := math.Inf(1)
		for _, e := range ss.entries {
			if e.lastT < lo || e.firstT > hi {
				continue
			}
			if iLo, iHi, ok := gridOverlap(e.firstT, ss.stepS, int64(e.count), lo, hi); ok {
				total += uint64(iHi - iLo + 1)
				if t := e.firstT + float64(iLo)*ss.stepS; t < firstT {
					firstT = t
				}
			}
		}
		if ss.pCount > 0 {
			if iLo, iHi, ok := gridOverlap(ss.pFirstT, ss.stepS, int64(ss.pCount), lo, hi); ok {
				total += uint64(iHi - iLo + 1)
				if t := ss.pFirstT + float64(iLo)*ss.stepS; t < firstT {
					firstT = t
				}
			}
		}
		if total == 0 {
			continue
		}
		if err := series(ts.Window{Name: ss.name, Kind: ss.kind, StepS: ss.stepS, FirstT: firstT, Total: total}); err != nil {
			return err
		}
		keep := func(t, v float64) error {
			if t < lo || t > hi {
				return nil
			}
			return value(t, v)
		}
		for _, e := range ss.entries {
			if e.lastT < lo || e.firstT > hi {
				continue
			}
			if err := s.decodeDataPage(ss, e, keep); err != nil {
				return err
			}
		}
		if err := ss.pendingEach(lo, hi, keep); err != nil {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.series[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown series %q", name)
	}
	if !(bucketS > 0) || math.IsInf(bucketS, 0) {
		return nil, fmt.Errorf("store: bucket width %g not a positive finite duration", bucketS)
	}
	if t0 > t1 {
		return nil, fmt.Errorf("store: query window [%g, %g] inverted", t0, t1)
	}
	if math.IsNaN(t0) || math.IsNaN(t1) {
		return nil, fmt.Errorf("store: NaN query bound")
	}
	i0, i1 := bucketIdx(t0, bucketS), bucketIdx(t1, bucketS)
	// Entry prefilter bounds as times; saturated indexes widen to ±Inf.
	loT, hiT := float64(i0)*bucketS, (float64(i1)+1)*bucketS
	if i0 == math.MinInt64 {
		loT = math.Inf(-1)
	}
	if i1 == math.MaxInt64 {
		hiT = math.Inf(1)
	}

	var out []Bucket
	byIdx := map[int64]int{}
	add := func(t, v float64) error {
		idx := bucketIdx(t, bucketS)
		if idx < i0 || idx > i1 {
			return nil
		}
		j, ok := byIdx[idx]
		if !ok {
			byIdx[idx] = len(out)
			out = append(out, Bucket{T0: float64(idx) * bucketS, Count: 1, Min: v, Max: v, Sum: v})
			return nil
		}
		b := &out[j]
		b.Count++
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
		b.Sum += v
		return nil
	}

	for _, e := range ss.entries {
		if e.lastT < loT || e.firstT >= hiT {
			continue
		}
		if err := s.decodeDataPage(ss, e, add); err != nil {
			return nil, err
		}
	}
	if err := ss.pendingEach(math.Inf(-1), math.Inf(1), add); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T0 < out[j].T0 })
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

// Walk visits every series in name order: one series callback with an
// empty meta window (Values nil, Total = raw sample count), then one
// value callback per sample in time order. It satisfies the export
// package's Walker shape.
func (s *Store) Walk(series func(ts.Window) error, value func(t, v float64) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := s.series[name]
		var total uint64
		var firstT float64
		first := true
		for _, e := range ss.entries {
			total += e.count
			if first {
				firstT = e.firstT
				first = false
			}
		}
		if ss.pCount > 0 {
			total += uint64(ss.pCount)
			if first {
				firstT = ss.pFirstT
			}
		}
		err := series(ts.Window{Name: ss.name, Kind: ss.kind, StepS: ss.stepS, FirstT: firstT, Total: total})
		if err != nil {
			return err
		}
		for _, e := range ss.entries {
			if err := s.decodeDataPage(ss, e, value); err != nil {
				return err
			}
		}
		if err := ss.pendingEach(math.Inf(-1), math.Inf(1), value); err != nil {
			return err
		}
	}
	return nil
}
