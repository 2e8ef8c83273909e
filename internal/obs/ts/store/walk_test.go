package store

import (
	"errors"
	"math"
	"testing"

	"sdb/internal/obs/ts"
)

// walkAll drains an unbounded WalkRange (the whole store, as export
// reads it) into windows.
func walkAll(t *testing.T, s *Store) []ts.Window {
	t.Helper()
	var out []ts.Window
	err := s.WalkRange(math.Inf(-1), math.Inf(1),
		func(w ts.Window) error {
			if w.Values != nil {
				t.Fatalf("%s: meta window carries values", w.Name)
			}
			out = append(out, w)
			return nil
		},
		func(tt, v float64) error {
			w := &out[len(out)-1]
			w.Values = append(w.Values, v)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWalk: the unbounded walk that export streams agrees with Query
// on every series — flushed pages and the pending tail — and survives
// a reopen.
func TestWalk(t *testing.T) {
	s, path := tempStore(t, Options{PageSize: 256})
	for i := 0; i < 300; i++ {
		mustAppend(t, s, "a", ts.KindGauge, 1, float64(i), math.Sin(float64(i)/5))
	}
	for i := 0; i < 7; i++ { // stays pending, never flushed
		mustAppend(t, s, "b_total", ts.KindFCounter, 60, float64(i)*60, float64(i*i))
	}

	check := func(s *Store, what string) {
		t.Helper()
		ws := walkAll(t, s)
		if len(ws) != 2 {
			t.Fatalf("%s: walked %d series, want 2", what, len(ws))
		}
		if ws[0].Name != "a" || ws[1].Name != "b_total" {
			t.Fatalf("%s: series out of name order: %s %s", what, ws[0].Name, ws[1].Name)
		}
		for _, w := range ws {
			q, err := s.Query(w.Name, math.Inf(-1), math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if w.Total != uint64(len(q.Values)) || w.FirstT != q.FirstT || w.Kind != q.Kind || w.StepS != q.StepS {
				t.Fatalf("%s: %s meta %+v disagrees with Query %+v", what, w.Name, w, q)
			}
			wantValues(t, ts.Window{Name: w.Name, Kind: w.Kind, StepS: w.StepS, FirstT: w.FirstT, Values: w.Values},
				q.FirstT, q.Values...)
		}
	}
	check(s, "live")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "reopened")

	// Callback errors propagate from both hooks.
	sentinel := errors.New("stop")
	all := math.Inf(1)
	if err := r.WalkRange(-all, all, func(ts.Window) error { return sentinel }, func(_, _ float64) error { return nil }); !errors.Is(err, sentinel) {
		t.Fatalf("series-callback error lost: %v", err)
	}
	if err := r.WalkRange(-all, all, func(ts.Window) error { return nil }, func(_, _ float64) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("value-callback error lost: %v", err)
	}
}
