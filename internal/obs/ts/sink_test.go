package ts

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sdb/internal/obs"
)

// fakeSink records every pushed sample and can be told to start
// failing.
type fakeSink struct {
	rows []sinkRow
	fail error
}

type sinkRow struct {
	name     string
	kind     Kind
	stepS    float64
	t, value float64
}

func (f *fakeSink) Append(name string, kind Kind, stepS, t, v float64) error {
	if f.fail != nil {
		return f.fail
	}
	f.rows = append(f.rows, sinkRow{name, kind, stepS, t, v})
	return nil
}

// TestSinkMirrorsRings: with a sink attached, every sample that lands
// in a ring lands in the sink with the same name, kind, grid time, and
// bits — the invariant the on-disk store builds on.
func TestSinkMirrorsRings(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("lat", []float64{0.01, 0.1})
	sink := &fakeSink{}
	r := NewRecorder(reg, Config{StepS: 2, Retain: 8, Sink: sink})
	for i := 0; i < 30; i++ {
		c.Add(int64(i))
		g.Set(float64(i) * 1.5)
		h.Observe(float64(i) / 100)
		r.Sample(float64(i) * 2)
	}
	if err := r.SinkErr(); err != nil {
		t.Fatalf("SinkErr: %v", err)
	}

	// Rebuild per-series history from the sink rows and compare the
	// tail against each ring. The ring retains 8 of 30 samples; the
	// sink must hold all 30.
	bySeries := map[string][]sinkRow{}
	for _, row := range sink.rows {
		bySeries[row.name] = append(bySeries[row.name], row)
	}
	for _, w := range r.Windows() {
		rows := bySeries[w.Name]
		if uint64(len(rows)) != w.Total {
			t.Fatalf("%s: sink has %d rows, ring appended %d", w.Name, len(rows), w.Total)
		}
		tail := rows[len(rows)-len(w.Values):]
		for i, v := range w.Values {
			row := tail[i]
			wantT := w.FirstT + float64(i)*w.StepS
			if row.kind != w.Kind || row.stepS != w.StepS || row.t != wantT ||
				math.Float64bits(row.value) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: sink row %+v, want t=%g v=%g", w.Name, i, row, wantT, v)
			}
		}
		delete(bySeries, w.Name)
	}
	if len(bySeries) != 0 {
		t.Fatalf("sink saw series the recorder does not have: %v", bySeries)
	}
}

// TestSinkErrSticky: a failing sink does not stop ring recording, and
// the first error is retained for shutdown-time reporting.
func TestSinkErrSticky(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g")
	sink := &fakeSink{}
	r := NewRecorder(reg, Config{StepS: 1, Retain: 16, Sink: sink})
	g.Set(1)
	r.Sample(0)
	sink.fail = errors.New("disk full")
	r.Sample(1)
	sink.fail = fmt.Errorf("later error")
	r.Sample(2)
	if err := r.SinkErr(); err == nil || err.Error() != "disk full" {
		t.Fatalf("SinkErr = %v, want the first error", err)
	}
	if w, _ := r.Get("g"); len(w.Values) != 3 {
		t.Fatalf("ring stopped recording after sink error: %d samples", len(w.Values))
	}

	var nilRec *Recorder
	if nilRec.SinkErr() != nil {
		t.Fatal("nil recorder SinkErr")
	}
}
