package ts

import (
	"math"
	"testing"

	"sdb/internal/obs"
)

// TestRecorderSamplesOnGrid: samples land on the uniform grid, catch-up
// covers skipped grid points, and early calls (t before the next grid
// point) record nothing.
func TestRecorderSamplesOnGrid(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total")
	r := NewRecorder(reg, Config{StepS: 10, Retain: 100})

	c.Add(1)
	r.Sample(0) // grid: 0
	c.Add(1)
	r.Sample(5) // between grid points: nothing
	r.Sample(10)
	c.Add(3)
	r.Sample(45) // covers 20, 30, 40 — three catch-up samples

	w, ok := r.Get("c_total")
	if !ok {
		t.Fatal("series missing")
	}
	want := []float64{1, 2, 5, 5, 5}
	if len(w.Values) != len(want) {
		t.Fatalf("got %d samples %v, want %d", len(w.Values), w.Values, len(want))
	}
	for i, v := range want {
		if w.Values[i] != v {
			t.Errorf("sample %d = %g, want %g", i, w.Values[i], v)
		}
	}
	if w.FirstT != 0 || w.StepS != 10 || w.Total != 5 {
		t.Errorf("window meta = %+v", w)
	}
	if lt, ok := r.LastT(); !ok || lt != 40 {
		t.Errorf("LastT = %g, want 40", lt)
	}
}

// TestSeriesEviction: the ring keeps the newest Retain samples, Total
// keeps counting, and timestamps advance with eviction.
func TestSeriesEviction(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g")
	r := NewRecorder(reg, Config{StepS: 1, Retain: 4})
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		r.Sample(float64(i))
	}
	w, _ := r.Get("g")
	if len(w.Values) != 4 || w.Total != 10 {
		t.Fatalf("window %+v", w)
	}
	for i, want := range []float64{6, 7, 8, 9} {
		if w.Values[i] != want {
			t.Errorf("Values[%d] = %g, want %g", i, w.Values[i], want)
		}
	}
	if w.FirstT != 6 {
		t.Errorf("FirstT = %g, want 6 (evicted timestamps must advance)", w.FirstT)
	}
}

// TestDerivedSignals exercises the query engine against hand-computed
// values.
func TestDerivedSignals(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("ev_total")
	g := reg.Gauge("temp")
	r := NewRecorder(reg, Config{StepS: 10, Retain: 100})
	// Counter: +2 events per 10s step. Gauge: sawtooth 0,5,10,5,0 …
	gv := []float64{0, 5, 10, 5, 0, 5, 10}
	for i, v := range gv {
		g.Set(v)
		r.Sample(float64(i) * 10)
		c.Add(2)
	}
	// Note Add(2) lands after the sample, so samples are 0,2,4,...,12 at
	// t=0..60.
	if v, ok := r.Rate("ev_total", 60); !ok || v != 0.2 {
		t.Errorf("Rate full window = %v, want 0.2", v)
	}
	if v, ok := r.Rate("ev_total", 10); !ok || v != 0.2 {
		t.Errorf("Rate one step = %v, want 0.2", v)
	}
	if v, ok := r.Delta("ev_total", 30); !ok || v != 6 {
		t.Errorf("Delta 30s = %v, want 6", v)
	}
	if v, ok := r.Latest("temp"); !ok || v != 10 {
		t.Errorf("Latest = %v, want 10", v)
	}
	// Oversized windows clamp to retained history.
	if v, ok := r.Rate("ev_total", 1e9); !ok || v != 0.2 {
		t.Errorf("Rate clamped = %v, want 0.2", v)
	}
	// Unknown series and single-sample series refuse.
	if _, ok := r.Rate("nope", 10); ok {
		t.Error("rate over unknown series should fail")
	}
}

// TestObserveParityWithSample: ingesting the text exposition of a
// registry produces the same series values the live scraper records.
func TestObserveParityWithSample(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("lat", []float64{1, 2})

	live := NewRecorder(reg, Config{StepS: 10, Retain: 16})
	wire := NewRecorder(nil, Config{StepS: 10, Retain: 16})

	for i := 0; i < 5; i++ {
		c.Add(int64(i))
		g.Set(float64(i) * 1.5)
		h.Observe(float64(i))
		tS := float64(i) * 10
		live.Sample(tS)
		fams, err := obs.ParseText(reg.Text())
		if err != nil {
			t.Fatal(err)
		}
		wire.Observe(tS, fams)
	}

	names := live.Names()
	wireNames := wire.Names()
	if len(names) != len(wireNames) {
		t.Fatalf("live has %v, wire has %v", names, wireNames)
	}
	for _, name := range names {
		lw, _ := live.Get(name)
		ww, ok := wire.Get(name)
		if !ok {
			t.Fatalf("wire recorder missing %s", name)
		}
		if len(lw.Values) != len(ww.Values) || lw.FirstT != ww.FirstT {
			t.Fatalf("%s: live %+v wire %+v", name, lw, ww)
		}
		for i := range lw.Values {
			if lw.Values[i] != ww.Values[i] {
				t.Errorf("%s sample %d: live %g wire %g", name, i, lw.Values[i], ww.Values[i])
			}
		}
	}
}

// TestSampleNoAllocs: steady-state sampling — with an attached
// never-firing alert rule — performs zero heap allocations.
func TestSampleNoAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1})
	rules, err := ParseRules("alert never rate(c_total) > 1e18\nalert quiet abs(g) >= 1e18 for 10m")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(reg, Config{StepS: 1, Retain: 64, Rules: rules})
	// Warm up: first samples resolve refs and allocate rings.
	c.Add(1)
	g.Set(0.5)
	h.Observe(0.02)
	r.Sample(0)
	r.Sample(1)

	tS := 2.0
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(tS)
		h.Observe(0.005)
		r.Sample(tS)
		tS++
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %v allocs/op in steady state, want 0", allocs)
	}
}

// TestNilRecorder: every method on a nil recorder is a no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Sample(1)
	r.Observe(1, nil)
	if r.Names() != nil || r.AlertStates() != nil || r.Windows() != nil {
		t.Error("nil recorder should return nil slices")
	}
	if _, ok := r.Get("x"); ok {
		t.Error("nil recorder Get should fail")
	}
	if _, ok := r.Rate("x", 1); ok {
		t.Error("nil recorder Rate should fail")
	}
	if _, ok := r.LastT(); ok {
		t.Error("nil recorder LastT should fail")
	}
	if r.StepS() != 0 {
		t.Error("nil recorder StepS should be 0")
	}
}

// TestKindStrings pins the Kind display names and monotonicity the
// export tooling relies on.
func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindCounter: "counter", KindFCounter: "fcounter", KindGauge: "gauge",
		KindHistBucket: "hist_bucket", KindHistSum: "hist_sum", KindHistCount: "hist_count",
		Kind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %s, want %s", k, k, want)
		}
	}
	if KindGauge.Monotone() || !KindCounter.Monotone() || !KindHistBucket.Monotone() {
		t.Error("Monotone misclassifies kinds")
	}
}

// TestEmptySeries: a series with no samples reports zero length and a
// NaN newest value.
func TestEmptySeries(t *testing.T) {
	s := newSeries("e", KindGauge, 1, 1, 0)
	if s.Len() != 0 || s.Total() != 0 {
		t.Errorf("empty series: %+v", s)
	}
	if !math.IsNaN(s.last()) {
		t.Error("empty series last() should be NaN")
	}
}
