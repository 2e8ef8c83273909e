package store

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"sdb/internal/obs/ts"
)

func tempStore(t *testing.T, opt Options) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sdbstor")
	s, err := Create(path, opt)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func mustAppend(t *testing.T, s *Store, name string, kind ts.Kind, stepS, t0 float64, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		if err := s.Append(name, kind, stepS, t0+float64(i)*stepS, v); err != nil {
			t.Fatalf("Append %s[%d]: %v", name, i, err)
		}
	}
}

func wantValues(t *testing.T, w ts.Window, firstT float64, vals ...float64) {
	t.Helper()
	if len(w.Values) != len(vals) {
		t.Fatalf("%s: got %d values, want %d (%v vs %v)", w.Name, len(w.Values), len(vals), w.Values, vals)
	}
	if len(vals) > 0 && w.FirstT != firstT {
		t.Fatalf("%s: FirstT %g, want %g", w.Name, w.FirstT, firstT)
	}
	for i, v := range vals {
		got := w.Values[i]
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%s[%d]: got %g (bits %#x), want %g (bits %#x)", w.Name, i, got, math.Float64bits(got), v, math.Float64bits(v))
		}
	}
}

// TestRoundTrip: samples come back bit-exact, pending and flushed
// alike, before and after a reopen — including the values float
// encodings get wrong (infinities, denormals, negative zero, NaN).
func TestRoundTrip(t *testing.T) {
	s, path := tempStore(t, Options{PageSize: 256})
	gnarly := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), 42}
	mustAppend(t, s, "g", ts.KindGauge, 60, 0, gnarly...)
	mustAppend(t, s, "c", ts.KindCounter, 30, 15, 1, 2, 3)

	// Pending (pre-Sync) samples are already queryable.
	w, err := s.Query("g", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatalf("Query pending: %v", err)
	}
	wantValues(t, w, 0, gnarly...)

	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	w, err = r.Query("g", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatalf("Query reopened: %v", err)
	}
	if w.Kind != ts.KindGauge || w.StepS != 60 {
		t.Fatalf("metadata lost: kind=%v step=%g", w.Kind, w.StepS)
	}
	wantValues(t, w, 0, gnarly...)
	w, err = r.Query("c", 15, 45)
	if err != nil {
		t.Fatalf("Query c: %v", err)
	}
	wantValues(t, w, 15, 1, 2)
}

// TestWindowedQuery slices interior windows out of a multi-page series.
func TestWindowedQuery(t *testing.T) {
	s, _ := tempStore(t, Options{PageSize: 128}) // tiny pages force many
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 7)
	}
	mustAppend(t, s, "sig", ts.KindGauge, 1, 100, vals...)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	w, err := s.Query("sig", 250, 260)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	wantValues(t, w, 250, vals[150:161]...)
	// Window before all data is empty, not an error.
	w, err = s.Query("sig", 0, 50)
	if err != nil || len(w.Values) != 0 {
		t.Fatalf("pre-data window: %v values, err %v", len(w.Values), err)
	}
}

// TestFleetScaleQueryReadsOnlyNeededPages is the acceptance-criteria
// test: a 1000-device fleet recording answers a narrow time-windowed
// query by reading only the pages that hold it — the page-read counter
// proves no full-file scan happens, and the open itself reads only the
// root + declarations + index.
func TestFleetScaleQueryReadsOnlyNeededPages(t *testing.T) {
	s, path := tempStore(t, Options{})
	const devices = 1000
	const samples = 200
	for d := 0; d < devices; d++ {
		name := fmt.Sprintf("sdb_fleet_device_soc{dev=\"%d\"}", d)
		for i := 0; i < samples; i++ {
			if err := s.Append(name, ts.KindGauge, 60, float64(i)*60, 0.5+float64(d%10)/100+float64(i)/1e4); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Series != devices {
		t.Fatalf("series count %d, want %d", st.Series, devices)
	}
	if st.Pages < int64(devices) {
		t.Fatalf("implausibly few pages: %d", st.Pages)
	}
	// Opening must not scan data: root + decl pages + index pages only.
	if st.PagesRead > uint64(st.Pages)/10 {
		t.Fatalf("open read %d of %d pages — that is a scan, not an index load", st.PagesRead, st.Pages)
	}

	r.ResetStats()
	w, err := r.Query(`sdb_fleet_device_soc{dev="617"}`, 3000, 3600)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(w.Values) != 11 {
		t.Fatalf("got %d values, want 11", len(w.Values))
	}
	got := r.Stats().PagesRead
	if got > 3 {
		t.Fatalf("narrow query read %d pages of %d — want at most 3 (index is in memory, data is one chain)", got, st.Pages)
	}
	t.Logf("file=%d pages, open read %d, query read %d", st.Pages, st.PagesRead, got)
}

// TestAppendValidation: the store refuses what it could never read
// back coherently.
func TestAppendValidation(t *testing.T) {
	s, _ := tempStore(t, Options{PageSize: 256})
	mustAppend(t, s, "g", ts.KindGauge, 60, 0, 1)
	if err := s.Append("g", ts.KindGauge, 60, 0, 2); err == nil {
		t.Fatal("duplicate timestamp accepted")
	}
	if err := s.Append("g", ts.KindGauge, 60, -60, 2); err == nil {
		t.Fatal("backwards timestamp accepted")
	}
	if err := s.Append("g", ts.KindCounter, 60, 60, 2); err == nil {
		t.Fatal("kind conflict accepted")
	}
	if err := s.Append("g", ts.KindGauge, 30, 60, 2); err == nil {
		t.Fatal("step conflict accepted")
	}
	if err := s.Append("g", ts.KindGauge, 60, math.NaN(), 2); err == nil {
		t.Fatal("NaN timestamp accepted")
	}
	if err := s.Append("h", ts.KindGauge, 0, 0, 1); err == nil {
		t.Fatal("zero step accepted")
	}
	if err := s.Append("h", ts.KindGauge, math.Inf(1), 0, 1); err == nil {
		t.Fatal("infinite step accepted")
	}
	if err := s.Append("", ts.KindGauge, 60, 0, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Append("h", ts.Kind(99), 60, 0, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	long := make([]byte, MaxNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if err := s.Append(string(long), ts.KindGauge, 60, 0, 1); err == nil {
		t.Fatal("oversized name accepted")
	}
	if err := s.Append("g", ts.KindCounter, 60, 60, 2); err == nil {
		t.Fatal("kind conflict accepted")
	}
	if err := s.Append("g", ts.KindGauge, 30, 60, 2); err == nil {
		t.Fatal("step conflict accepted")
	}
}

// TestRejectedAppendLeavesNoSeries: an Append refused for its time
// must not register its name — a rejected first sample used to leave an
// empty series that Series listed, Sync persisted and a reopen kept.
func TestRejectedAppendLeavesNoSeries(t *testing.T) {
	s, path := tempStore(t, Options{PageSize: 256})
	mustAppend(t, s, "real", ts.KindGauge, 60, 0, 1)
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		name := fmt.Sprintf("ghost%d", i)
		if err := s.Append(name, ts.KindGauge, 60, bad, 1); err == nil {
			t.Fatalf("Append at t=%g accepted", bad)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if infos := r.Series(); len(infos) != 1 || infos[0].Name != "real" {
		t.Fatalf("reopened store lists %+v, want only series real", infos)
	}
	if n := r.Stats().Series; n != 1 {
		t.Fatalf("reopened store holds %d series, want 1", n)
	}
}

// TestGap: a recording gap starts a new page; queries inside one run
// work, queries across the gap report ErrGap, and QueryDown spans it.
func TestGap(t *testing.T) {
	s, path := tempStore(t, Options{PageSize: 256})
	mustAppend(t, s, "g", ts.KindGauge, 10, 0, 1, 2, 3)
	mustAppend(t, s, "g", ts.KindGauge, 10, 1000, 7, 8, 9) // gap
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	w, err := r.Query("g", 0, 20)
	if err != nil {
		t.Fatalf("Query first run: %v", err)
	}
	wantValues(t, w, 0, 1, 2, 3)
	w, err = r.Query("g", 1000, 1020)
	if err != nil {
		t.Fatalf("Query second run: %v", err)
	}
	wantValues(t, w, 1000, 7, 8, 9)
	if _, err := r.Query("g", 0, 2000); !errors.Is(err, ErrGap) {
		t.Fatalf("cross-gap query: got %v, want ErrGap", err)
	}
	bs, err := r.QueryDown("g", 0, 2000, 100)
	if err != nil {
		t.Fatalf("QueryDown across gap: %v", err)
	}
	if len(bs) != 2 || bs[0].Count != 3 || bs[1].Count != 3 {
		t.Fatalf("QueryDown buckets: %+v", bs)
	}
	if bs[0].Mean() != 2 || bs[1].Mean() != 8 {
		t.Fatalf("bucket means %g, %g, want 2, 8", bs[0].Mean(), bs[1].Mean())
	}
	var empty Bucket
	if !math.IsNaN(empty.Mean()) {
		t.Fatalf("empty bucket mean = %g, want NaN", empty.Mean())
	}
}

// TestAppendAfterReopen: a reopened store keeps appending where the
// old one stopped, and rejects rewinds.
func TestAppendAfterReopen(t *testing.T) {
	s, path := tempStore(t, Options{PageSize: 256})
	mustAppend(t, s, "c", ts.KindCounter, 10, 0, 1, 2, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if err := r.Append("c", ts.KindCounter, 10, 20, 9); err == nil {
		t.Fatal("rewound append accepted after reopen")
	}
	mustAppend(t, r, "c", ts.KindCounter, 10, 30, 4, 5)
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	w, err := r.Query("c", 0, 100)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	wantValues(t, w, 0, 1, 2, 3, 4, 5)
}

// TestOpenOrCreate covers both arms.
func TestOpenOrCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.sdbstor")
	s, err := OpenOrCreate(path, Options{PageSize: 256})
	if err != nil {
		t.Fatalf("create arm: %v", err)
	}
	mustAppend(t, s, "g", ts.KindGauge, 1, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err = OpenOrCreate(path, Options{})
	if err != nil {
		t.Fatalf("open arm: %v", err)
	}
	defer s.Close()
	if got := s.Stats().Series; got != 1 {
		t.Fatalf("reopened store has %d series, want 1", got)
	}
	if _, err := Create(path, Options{}); err == nil {
		t.Fatal("Create over existing file succeeded")
	}
	if _, err := Create(filepath.Join(t.TempDir(), "bad"), Options{PageSize: 64}); err == nil {
		t.Fatal("undersized page accepted")
	}
}
