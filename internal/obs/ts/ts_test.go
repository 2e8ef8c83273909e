package ts

import (
	"math"
	"strings"
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

// TestDerivedSignals exercises the alert engine's signals against
// hand-computed values: rate and delta over whole, one-step, partial and
// oversized windows, and the newest value of a level rule.
func TestDerivedSignals(t *testing.T) {
	rules, err := ParseRules(`alert full rate(ev_total) > 1e18 over 60s
alert step rate(ev_total) > 1e18 over 10s
alert d30 delta(ev_total) > 1e18 over 30s
alert latest temp > 1e18
alert clamp rate(ev_total) > 1e18 over 1000000000s
alert nope rate(nope) > 1e18`)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(rules)
	sub := eng.NewSubject()
	// Counter: +2 events per 10s step, so samples are 0,2,4,...,12 at
	// t=0..60. Gauge: sawtooth 0,5,10,5,0 …
	gv := []float64{0, 5, 10, 5, 0, 5, 10}
	for i, v := range gv {
		ev := Reading{V: float64(2 * i)}
		in := []Reading{ev, ev, ev, {V: v}, ev, {NoData: true}}
		if edges := eng.Eval(sub, float64(i)*10, in); len(edges) != 0 {
			t.Fatalf("t=%d: unexpected edges %+v", i*10, edges)
		}
	}
	val := func(i int) float64 { return sub.Alerts[i].Value }
	if v := val(0); v != 0.2 {
		t.Errorf("Rate full window = %v, want 0.2", v)
	}
	if v := val(1); v != 0.2 {
		t.Errorf("Rate one step = %v, want 0.2", v)
	}
	if v := val(2); v != 6 {
		t.Errorf("Delta 30s = %v, want 6", v)
	}
	if v := val(3); v != 10 {
		t.Errorf("Latest = %v, want 10", v)
	}
	// Oversized windows clamp to the held history.
	if v := val(4); v != 0.2 {
		t.Errorf("Rate clamped = %v, want 0.2", v)
	}
	// A series with no data never yields a signal.
	if v := val(5); !math.IsNaN(v) {
		t.Errorf("rate over unknown series = %v, want NaN (no data)", v)
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
	if r.Names() != nil || r.AlertStates() != nil || r.Windows() != nil {
		t.Error("nil recorder should return nil slices")
	}
	if _, ok := r.Get("x"); ok {
		t.Error("nil recorder Get should fail")
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

// TestRecorderSeriesNames: scalars record under their metric name and a
// histogram fans out into one series per bucket, labelled as the text
// exposition labels it (obs.FormatLe), plus _sum and _count.
func TestRecorderSeriesNames(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("lat", []float64{1e-7, 0.5}).Observe(0.25)
	r := NewRecorder(reg, Config{StepS: 1})
	r.Sample(0)
	got := strings.Join(r.Names(), " ")
	want := `c_total g lat_bucket{le="+Inf"} lat_bucket{le="0.5"} lat_bucket{le="1e-07"} lat_count lat_sum`
	if got != want {
		t.Fatalf("Names() = %s\nwant      %s", got, want)
	}
	for _, name := range r.Names() {
		if !strings.Contains(reg.Text(), name+" ") {
			t.Errorf("series %s is not a sample name of the exposition", name)
		}
	}
}
