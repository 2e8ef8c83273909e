package export

import (
	"bytes"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
)

// clipCollect folds a Walk into windows for assertions.
func clipCollect(t *testing.T, src Walker) []ts.Window {
	t.Helper()
	var out []ts.Window
	err := src.Walk(
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
		if err := st.Declare(w.Name, w.Kind, w.StepS); err != nil {
			t.Fatal(err)
		}
		for i, v := range w.Values {
			if err := st.Append(w.Name, w.Kind, w.StepS, w.FirstT+float64(i)*w.StepS, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestClipWindows: a clipped store walk carries the in-window FirstT
// and Total before any value streams (JSON writes them into the
// header) and drops series with nothing in range.
func TestClipWindows(t *testing.T) {
	src := clipStore(t, []ts.Window{
		{Name: "a", Kind: ts.KindGauge, StepS: 60, FirstT: 0, Total: 10,
			Values: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Name: "early", Kind: ts.KindGauge, StepS: 1, FirstT: -50, Total: 3,
			Values: []float64{7, 8, 9}},
	})
	got := clipCollect(t, Clip(src, 120, 330))
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

	// Unbounded clip is the identity.
	all := clipCollect(t, Clip(src, math.Inf(-1), math.Inf(1)))
	if len(all) != 2 || all[0].Total != 10 || all[1].Total != 3 {
		t.Fatalf("unbounded clip altered the source: %+v", all)
	}

	err := Clip(src, 5, 1).Walk(
		func(ts.Window) error { return nil }, func(float64, float64) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "inverted") {
		t.Fatalf("inverted clip window: %v", err)
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

// TestClipDelegatesToRangeWalker: a source that can serve the window
// natively (the paged store) is asked to, so only overlapping pages
// are read — Clip must not fall back to filtering a full walk.
func TestClipDelegatesToRangeWalker(t *testing.T) {
	f := &fakeRange{}
	got := clipCollect(t, Clip(f, 10, 20))
	if !f.ranged || f.t0 != 10 || f.t1 != 20 {
		t.Fatalf("native WalkRange not used: %+v", f)
	}
	if len(got) != 1 || got[0].Values[0] != 42 {
		t.Fatalf("delegated results lost: %+v", got)
	}
}

// TestClipCSV: end-to-end through the CSV writer — the clipped store
// stream is exactly the oracle CSV of the windows clipped by hand.
func TestClipCSV(t *testing.T) {
	ws := sampleWindows()
	var buf bytes.Buffer
	st, err := CSV(&buf, Clip(clipStore(t, ws), 0, 200))
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
