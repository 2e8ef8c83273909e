package pmic_test

// Wire-protocol tests for CmdSeries: list/get round trips over a
// served pipe, the newest-window one-frame truncation, and the
// recorder-off answers.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// TestClientSeriesRoundTrip: a recorded series comes back over the
// wire bit-exact, with its grid metadata intact.
func TestClientSeriesRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl, cl := startServedObs(t, reg)
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 128})
	ctrl.SetRecorder(rec)
	for i := 0; i < 10; i++ {
		if _, err := ctrl.Step(2.0, 0, 6.0); err != nil {
			t.Fatal(err)
		}
		rec.Sample(float64(i) * 60)
	}

	names, err := cl.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no series listed")
	}
	found := false
	for _, n := range names {
		if n == "sdb_pmic_steps_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sdb_pmic_steps_total missing from %v", names)
	}

	win, err := cl.Series("sdb_pmic_steps_total")
	if err != nil {
		t.Fatal(err)
	}
	local, _ := rec.Get("sdb_pmic_steps_total")
	if win.Name != local.Name || win.Kind != local.Kind || win.StepS != local.StepS ||
		win.FirstT != local.FirstT || win.Total != local.Total || len(win.Values) != len(local.Values) {
		t.Fatalf("wire window %+v, local %+v", win, local)
	}
	for i := range win.Values {
		if math.Float64bits(win.Values[i]) != math.Float64bits(local.Values[i]) {
			t.Errorf("value %d differs: %g vs %g", i, win.Values[i], local.Values[i])
		}
	}
}

// TestClientSeriesKeepsNewestWindow: a series too long for one frame
// comes back as the newest suffix with FirstT advanced past the drop.
func TestClientSeriesKeepsNewestWindow(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl, cl := startServedObs(t, reg)
	g := reg.Gauge("big_series")
	rec := ts.NewRecorder(reg, ts.Config{StepS: 1, Retain: 2000})
	ctrl.SetRecorder(rec)
	const n = 1000 // 1000 × 8 B ≫ one 4096 B frame
	for i := 0; i < n; i++ {
		g.Set(float64(i))
		rec.Sample(float64(i))
	}

	win, err := cl.Series("big_series")
	if err != nil {
		t.Fatal(err)
	}
	if len(win.Values) == 0 || len(win.Values) >= n {
		t.Fatalf("got %d samples, want a proper newest-suffix of %d", len(win.Values), n)
	}
	if 8*len(win.Values) > bus.MaxPayload {
		t.Errorf("%d samples cannot fit one frame", len(win.Values))
	}
	drop := n - len(win.Values)
	if win.FirstT != float64(drop) {
		t.Errorf("FirstT = %g, want %d (advanced past dropped samples)", win.FirstT, drop)
	}
	if win.Total != n {
		t.Errorf("Total = %d, want %d", win.Total, n)
	}
	// The suffix is the newest samples: values equal their timestamps.
	for i, v := range win.Values {
		if v != float64(drop+i) {
			t.Fatalf("sample %d = %g, want %d — not the newest window", i, v, drop+i)
		}
	}
}

// TestClientSeriesListTruncates: more names than fit one frame come
// back a page at a time — the first page a prefix of the sorted list,
// count matching — and SeriesNames pages through them all. A list
// request without its cursor (the mode byte alone) is refused.
func TestClientSeriesListTruncates(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl, cl := startServedObs(t, reg)
	for i := 0; i < 200; i++ {
		reg.Gauge(fmt.Sprintf("sdb_test_a_rather_long_series_name_%04d", i)).Set(1)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 1, Retain: 4})
	ctrl.SetRecorder(rec)
	rec.Sample(0)

	resp := ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdSeries, Seq: 1, Payload: []byte{pmic.SeriesList}})
	if len(resp.Payload) != 1 || resp.Payload[0] != pmic.StatusBadArgs {
		t.Fatalf("cursor-less list answered %x, want StatusBadArgs alone", resp.Payload)
	}
	resp = ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdSeries, Seq: 2, Payload: []byte{pmic.SeriesList, 0}})
	r := bus.NewReader(resp.Payload)
	if st := r.U8(); st != pmic.StatusOK {
		t.Fatalf("first page status %#x", st)
	}
	next := r.UVarint()
	var names []string
	for n := int(r.U16()); n > 0; n-- {
		names = append(names, r.Str())
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("first page malformed: %v, %d bytes left", r.Err(), r.Remaining())
	}
	if len(names) == 0 || len(names) >= 200 || next != uint64(len(names)) {
		t.Fatalf("got %d names and cursor %d, want a proper prefix of 200 and its length", len(names), next)
	}
	if len(resp.Payload) > bus.MaxPayload {
		t.Errorf("first page holds %d bytes, over the frame cap", len(resp.Payload))
	}
	for i, n := range names {
		if i > 0 && names[i-1] >= n {
			t.Fatal("list not sorted")
		}
	}

	all, err := cl.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}
	if want := rec.Names(); !slices.Equal(all, want) || len(all) < 200 {
		t.Fatalf("SeriesNames returned %d names, the recorder holds %d", len(all), len(want))
	}
}

// TestClientSeriesRecorderOff: without a recorder, list answers OK and
// empty; get answers an error status.
func TestClientSeriesRecorderOff(t *testing.T) {
	_, cl := startServedObs(t, nil)
	names, err := cl.SeriesNames()
	if err != nil {
		t.Fatalf("recorder-off list errored: %v", err)
	}
	if len(names) != 0 {
		t.Errorf("recorder-off list = %v, want empty", names)
	}
	if _, err := cl.Series("anything"); err == nil {
		t.Error("recorder-off get should error")
	}
}

// TestSeriesBadRequests: unknown mode and empty payload answer
// StatusBadArgs; unknown names answer StatusBadIndex.
func TestSeriesBadRequests(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl, _ := startServedObs(t, reg)
	rec := ts.NewRecorder(reg, ts.Config{StepS: 1})
	ctrl.SetRecorder(rec)
	rec.Sample(0)

	resp := ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdSeries, Seq: 1})
	if resp.Payload[0] != pmic.StatusBadArgs {
		t.Errorf("empty payload status = %#02x, want BadArgs", resp.Payload[0])
	}
	var w bus.Writer
	w.U8(7)
	resp = ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdSeries, Seq: 2, Payload: w.Bytes()})
	if resp.Payload[0] != pmic.StatusBadArgs {
		t.Errorf("unknown mode status = %#02x, want BadArgs", resp.Payload[0])
	}
	w = bus.Writer{}
	w.U8(pmic.SeriesGet).Str("not_a_series")
	resp = ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdSeries, Seq: 3, Payload: w.Bytes()})
	if resp.Payload[0] != pmic.StatusBadIndex {
		t.Errorf("unknown series status = %#02x, want BadIndex", resp.Payload[0])
	}
	w = bus.Writer{}
	w.U8(pmic.SeriesGet) // missing name
	resp = ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdSeries, Seq: 4, Payload: w.Bytes()})
	if resp.Payload[0] != pmic.StatusBadArgs {
		t.Errorf("missing name status = %#02x, want BadArgs", resp.Payload[0])
	}
}
