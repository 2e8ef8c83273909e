package export

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
)

// clipCollect folds a windowed walk into windows for assertions.
func clipCollect(t *testing.T, src Walker, t0, t1 float64) []ts.Window {
	t.Helper()
	var out []ts.Window
	err := src.WalkRange(t0, t1,
		func(w ts.Window) error { out = append(out, w); return nil },
		func(tt, v float64) error {
			w := &out[len(out)-1]
			w.Values = append(w.Values, v)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// clipStore appends windows into a fresh paged store.
func clipStore(t *testing.T, ws []ts.Window) *store.Store {
	t.Helper()
	st, err := store.Create(filepath.Join(t.TempDir(), "clip.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, w := range ws {
		for i, v := range w.Values {
			if err := st.Append(w.Name, w.Kind, w.StepS, w.FirstT+float64(i)*w.StepS, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestClipWindows: a windowed store walk carries the in-window FirstT
// and Total before any value streams (JSON writes them into the
// header) and drops series with nothing in range; the exporters pass a
// NaN or inverted window on to the store, which refuses it.
func TestClipWindows(t *testing.T) {
	src := clipStore(t, []ts.Window{
		{Name: "a", Kind: ts.KindGauge, StepS: 60, FirstT: 0, Total: 10,
			Values: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "early", Kind: ts.KindGauge, StepS: 1, FirstT: -50, Total: 3,
			Values: []float64{7, 8, 9}},
	})
	got := clipCollect(t, src, 120, 330)
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("clip kept %+v, want only series a", got)
	}
	w := got[0]
	// Grid points 120, 180, 240, 300 fall inside [120, 330].
	if w.FirstT != 120 || w.Total != 4 || len(w.Values) != 4 {
		t.Fatalf("clip meta/values wrong: %+v", w)
	}
	for i, want := range []float64{2, 3, 4, 5} {
		if w.Values[i] != want {
			t.Fatalf("value %d = %g, want %g", i, w.Values[i], want)
		}
	}

	// The unbounded window is the whole store.
	all := clipCollect(t, src, math.Inf(-1), math.Inf(1))
	if len(all) != 2 || all[0].Total != 10 || all[1].Total != 3 {
		t.Fatalf("unbounded clip altered the source: %+v", all)
	}

	for _, win := range [][2]float64{{5, 1}, {math.NaN(), 1}, {0, math.NaN()}} {
		if _, err := CSV(io.Discard, src, win[0], win[1]); err == nil || !strings.Contains(err.Error(), "inverted") {
			t.Fatalf("CSV window %v: %v", win, err)
		}
		if _, err := JSON(io.Discard, Filter(src, "a"), win[0], win[1]); err == nil || !strings.Contains(err.Error(), "inverted") {
			t.Fatalf("JSON window %v: %v", win, err)
		}
	}
}

// fakeRange records whether the native range path was taken.
type fakeRange struct {
	ranged bool
	t0, t1 float64
}

func (f *fakeRange) WalkRange(t0, t1 float64, series func(ts.Window) error, value func(t, v float64) error) error {
	f.ranged, f.t0, f.t1 = true, t0, t1
	if err := series(ts.Window{Name: "n", Kind: ts.KindGauge, StepS: 1, FirstT: t0, Total: 1}); err != nil {
		return err
	}
	return value(t0, 42)
}

// TestClipDelegatesToRangeWalker: the exporters hand their window to
// the source (the paged store serves it from the index, reading only
// overlapping pages), through Filter too, and never filter a full walk
// themselves.
func TestClipDelegatesToRangeWalker(t *testing.T) {
	for _, filter := range []bool{false, true} {
		f := &fakeRange{}
		var src Walker = f
		if filter {
			src = Filter(f, "n")
		}
		var buf bytes.Buffer
		st, err := CSV(&buf, src, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !f.ranged || f.t0 != 10 || f.t1 != 20 {
			t.Fatalf("filter=%v: window not handed to the source: %+v", filter, f)
		}
		if want := CSVHeader + "\nn,gauge,10,42\n"; buf.String() != want || st.Rows != 1 {
			t.Fatalf("filter=%v: delegated results lost: %q", filter, buf.String())
		}
	}
}

// TestFilterReadsOnlyItsSeries: a one-series export of a many-series
// store reads that series' pages and no other's — the read a remote
// operator makes for one device of a fleet recording.
func TestFilterReadsOnlyItsSeries(t *testing.T) {
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = float64(i) / 7
	}
	var ws []ts.Window
	for _, name := range []string{"dev0_soc", "dev1_soc", "dev2_soc"} {
		ws = append(ws, ts.Window{Name: name, Kind: ts.KindGauge, StepS: 60, Values: vals})
	}
	src := clipStore(t, ws)
	if err := src.Sync(); err != nil {
		t.Fatal(err)
	}
	pages := src.Series()[1].Pages
	src.ResetStats()
	st, err := CSV(io.Discard, Filter(src, "dev1_soc"), math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Series != 1 || st.Rows != int64(len(vals)) {
		t.Fatalf("filtered export %+v", st)
	}
	if got := src.Stats().PagesRead; got != uint64(pages) {
		t.Fatalf("filtered export read %d pages, want dev1_soc's %d", got, pages)
	}
}

// TestClipCSV: end-to-end through the CSV writer — the clipped store
// stream is exactly the oracle CSV of the windows clipped by hand.
func TestClipCSV(t *testing.T) {
	ws := sampleWindows()
	var buf bytes.Buffer
	st, err := CSV(&buf, clipStore(t, ws), 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: clip each window by hand.
	var want []ts.Window
	for _, w := range ws {
		var c ts.Window
		c = w
		c.Values = nil
		for i, v := range w.Values {
			tt := w.FirstT + float64(i)*w.StepS
			if tt < -1e-6*w.StepS || tt > 200+1e-6*w.StepS {
				continue
			}
			if len(c.Values) == 0 {
				c.FirstT = tt
			}
			c.Values = append(c.Values, v)
		}
		if len(c.Values) > 0 {
			c.Total = uint64(len(c.Values))
			want = append(want, c)
		}
	}
	// The store walks series in name order.
	sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
	if got := buf.String(); got != oracleCSV(t, want) {
		t.Fatalf("clipped CSV diverges:\n%s\nwant:\n%s", got, oracleCSV(t, want))
	}
	if st.Series != int64(len(want)) {
		t.Fatalf("stats series %d, want %d", st.Series, len(want))
	}
}
