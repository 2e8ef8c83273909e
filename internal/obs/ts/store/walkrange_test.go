package store

import (
	"math"
	"testing"

	"sdb/internal/obs/ts"
)

// collectRange runs WalkRange and folds the callbacks into windows so
// assertions can compare against Query.
func collectRange(t *testing.T, s *Store, t0, t1 float64) []ts.Window {
	t.Helper()
	var out []ts.Window
	err := s.WalkRange(t0, t1,
		func(w ts.Window) error { out = append(out, w); return nil },
		func(tt, v float64) error {
			w := &out[len(out)-1]
			w.Values = append(w.Values, v)
			return nil
		})
	if err != nil {
		t.Fatalf("WalkRange: %v", err)
	}
	return out
}

// TestWalkRangeMatchesQuery: over any window, WalkRange must deliver
// exactly what Query delivers per series — same first time, same
// values — with the in-range Total announced up front (exporters write
// it into headers before the values stream).
func TestWalkRangeMatchesQuery(t *testing.T) {
	s, _ := tempStore(t, Options{PageSize: 128}) // small pages: many per series
	va, vb := make([]float64, 500), make([]float64, 50)
	for i := range va {
		va[i] = float64(i) * 0.25
	}
	for i := range vb {
		vb[i] = 100 - float64(i)
	}
	mustAppend(t, s, "a", ts.KindGauge, 1, 0, va...)     // t = 0..499 step 1
	mustAppend(t, s, "b", ts.KindFCounter, 10, 0, vb...) // t = 0..490 step 10

	for _, win := range [][2]float64{
		{120, 180},                  // interior, page-aligned-ish
		{0, 3},                      // leading edge
		{495, 600},                  // trailing edge into pending tail
		{math.Inf(-1), math.Inf(1)}, // everything
		{130.5, 131.2},              // narrower than one step of b
	} {
		t0, t1 := win[0], win[1]
		got := collectRange(t, s, t0, t1)
		for _, name := range []string{"a", "b"} {
			q, err := s.Query(name, t0, t1)
			if err != nil {
				t.Fatalf("Query %s [%g,%g]: %v", name, t0, t1, err)
			}
			var w *ts.Window
			for i := range got {
				if got[i].Name == name {
					w = &got[i]
				}
			}
			if len(q.Values) == 0 {
				if w != nil {
					t.Fatalf("[%g,%g] %s: WalkRange emitted an empty series", t0, t1, name)
				}
				continue
			}
			if w == nil {
				t.Fatalf("[%g,%g] %s: WalkRange skipped a series Query sees", t0, t1, name)
			}
			if w.Total != uint64(len(q.Values)) || len(w.Values) != len(q.Values) {
				t.Fatalf("[%g,%g] %s: Total %d, streamed %d, Query %d",
					t0, t1, name, w.Total, len(w.Values), len(q.Values))
			}
			if w.FirstT != q.FirstT || w.Kind != q.Kind || w.StepS != q.StepS {
				t.Fatalf("[%g,%g] %s: meta %+v vs Query %+v", t0, t1, name, w, q)
			}
			for i, v := range q.Values {
				if w.Values[i] != v {
					t.Fatalf("[%g,%g] %s[%d] = %g, Query %g", t0, t1, name, i, w.Values[i], v)
				}
			}
		}
	}

	if err := s.WalkRange(10, 5, func(ts.Window) error { return nil }, func(float64, float64) error { return nil }); err == nil {
		t.Fatal("inverted window accepted")
	}
	// A window before all data visits nothing.
	if got := collectRange(t, s, -100, -50); len(got) != 0 {
		t.Fatalf("pre-data window returned %d series", len(got))
	}
}

// TestWalkRangeReadsOnlyOverlappingPages pins the satellite's purpose:
// a narrow window must read far fewer pages than a full Walk — the
// index prefilter, not a scan-and-discard.
func TestWalkRangeReadsOnlyOverlappingPages(t *testing.T) {
	s, _ := tempStore(t, Options{PageSize: 128})
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 50)
	}
	mustAppend(t, s, "long", ts.KindGauge, 1, 0, vals...)

	s.ResetStats()
	if err := s.WalkRange(math.Inf(-1), math.Inf(1), func(ts.Window) error { return nil }, func(float64, float64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	full := s.Stats().PagesRead
	if full < 20 {
		t.Fatalf("test needs many pages to be meaningful, full walk read %d", full)
	}

	s.ResetStats()
	got := collectRange(t, s, 1000, 1020)
	narrow := s.Stats().PagesRead
	if len(got) != 1 || got[0].Total != 21 {
		t.Fatalf("narrow window wrong: %+v", got)
	}
	if narrow == 0 || narrow*4 > full {
		t.Fatalf("narrow WalkRange read %d pages vs %d for full Walk; index prefilter not working", narrow, full)
	}
}

// TestWalkRangeSkipSeries: a series callback that returns ts.SkipSeries
// passes over that series without reading a page of it, and the walk
// goes on with the next series.
func TestWalkRangeSkipSeries(t *testing.T) {
	s, _ := tempStore(t, Options{PageSize: 128})
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i)
	}
	mustAppend(t, s, "a", ts.KindGauge, 1, 0, vals...)
	mustAppend(t, s, "b", ts.KindGauge, 1, 0, vals...)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	pages := s.Series()[1].Pages
	if pages < 5 {
		t.Fatalf("test needs several pages per series, b has %d", pages)
	}

	s.ResetStats()
	var names []string
	var rows int
	err := s.WalkRange(math.Inf(-1), math.Inf(1),
		func(w ts.Window) error {
			names = append(names, w.Name)
			if w.Name == "a" {
				return ts.SkipSeries
			}
			return nil
		},
		func(float64, float64) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || rows != len(vals) {
		t.Fatalf("visited %v with %d rows, want [a b] with %d", names, rows, len(vals))
	}
	if got := s.Stats().PagesRead; got != uint64(pages) {
		t.Fatalf("walk read %d pages, want only b's %d", got, pages)
	}
}

// TestReadWindowRejectsNaN: a NaN bound compares false with every
// time, so an unchecked one reads as "no bound" and returns the whole
// series. Every read refuses it, and an inverted window, alike.
func TestReadWindowRejectsNaN(t *testing.T) {
	s, _ := tempStore(t, Options{PageSize: 128})
	mustAppend(t, s, "g", ts.KindGauge, 1, 0, 1, 2, 3, 4, 5, 6)
	nan := math.NaN()
	for _, win := range [][2]float64{{nan, 5}, {0, nan}, {nan, nan}, {5, 1}} {
		t0, t1 := win[0], win[1]
		if w, err := s.Query("g", t0, t1); err == nil {
			t.Errorf("Query [%g, %g] accepted, returned %d values", t0, t1, len(w.Values))
		}
		if bs, err := s.QueryDown("g", t0, t1, 2); err == nil {
			t.Errorf("QueryDown [%g, %g] accepted, returned %d buckets", t0, t1, len(bs))
		}
		err := s.WalkRange(t0, t1, func(ts.Window) error { return nil }, func(float64, float64) error { return nil })
		if err == nil {
			t.Errorf("WalkRange [%g, %g] accepted", t0, t1)
		}
	}
}
