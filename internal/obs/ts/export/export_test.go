package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"sdb/internal/obs/ts"
)

var inf = math.Inf(1)

// windows adapts in-memory windows to the Walker shape, so the encoder
// tests can feed the corners a store never produces (an empty series,
// hand-picked first times). It serves only the unbounded window: the
// store's own tests hold windowing.
func windows(ws []ts.Window) Walker { return windowWalker(ws) }

type windowWalker []ts.Window

func (ws windowWalker) WalkRange(t0, t1 float64, series func(ts.Window) error, value func(t, v float64) error) error {
	if t0 != -inf || t1 != inf {
		return fmt.Errorf("windows: window [%g, %g] not supported", t0, t1)
	}
	for _, w := range ws {
		meta := w
		meta.Values = nil
		if err := series(meta); err == ts.SkipSeries {
			continue
		} else if err != nil {
			return err
		}
		for i, v := range w.Values {
			if err := value(w.FirstT+float64(i)*w.StepS, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleWindows exercises the quoting and formatting corners: names
// with embedded quotes and commas (histogram buckets), values across
// json's f/e formatting split, an empty series.
func sampleWindows() []ts.Window {
	return []ts.Window{
		{Name: "sdb_pmic_steps_total", Kind: ts.KindFCounter, StepS: 60, FirstT: 0, Total: 5,
			Values: []float64{1, 2, 3, 4, 5}},
		{Name: `lat{le="0.01"}`, Kind: ts.KindFCounter, StepS: 60, FirstT: 120, Total: 3,
			Values: []float64{0, 1, 1}},
		{Name: "odd,name", Kind: ts.KindGauge, StepS: 0.5, FirstT: -3, Total: 4,
			Values: []float64{math.Copysign(0, -1), 1e21, 2.5e-7, 5e-324}},
		{Name: "empty", Kind: ts.KindGauge, StepS: 1, FirstT: 0, Total: 0, Values: nil},
		{Name: "big", Kind: ts.KindGauge, StepS: 2, FirstT: 100, Total: 9,
			Values: []float64{-1.5e-9, 123456789.25, 0, -0.0625, 3.3333333333333335e20}},
	}
}

// oracleCSV is the old exporter: encoding/csv over fully materialized
// windows. The streaming CSV must match it byte for byte.
func oracleCSV(t *testing.T, ws []ts.Window) string {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write([]string{"series", "kind", "time_s", "value"}); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for i, v := range w.Values {
			rec := []string{
				w.Name,
				w.Kind.String(),
				strconv.FormatFloat(w.FirstT+float64(i)*w.StepS, 'g', -1, 64),
				strconv.FormatFloat(v, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type exportedSeries struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	StepS  float64   `json:"step_s"`
	FirstT float64   `json:"first_t"`
	Total  uint64    `json:"total"`
	Values []float64 `json:"values"`
}

// oracleJSON is the old exporter: encoding/json with two-space indent
// over fully materialized windows.
func oracleJSON(t *testing.T, ws []ts.Window) string {
	t.Helper()
	out := make([]exportedSeries, 0, len(ws))
	for _, w := range ws {
		vals := w.Values
		if vals == nil {
			vals = []float64{}
		}
		out = append(out, exportedSeries{
			Name: w.Name, Kind: w.Kind.String(), StepS: w.StepS,
			FirstT: w.FirstT, Total: w.Total, Values: vals,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCSVMatchesEncodingCSV(t *testing.T) {
	ws := sampleWindows()
	var buf bytes.Buffer
	st, err := CSV(&buf, windows(ws), -inf, inf)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleCSV(t, ws)
	if buf.String() != want {
		t.Fatalf("streaming CSV diverges from encoding/csv:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	if st.Series != 5 || st.Rows != 17 {
		t.Fatalf("stats = %+v, want 5 series / 17 rows", st)
	}
}

func TestJSONMatchesEncodingJSON(t *testing.T) {
	ws := sampleWindows()
	var buf bytes.Buffer
	st, err := JSON(&buf, windows(ws), -inf, inf)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleJSON(t, ws)
	if buf.String() != want {
		t.Fatalf("streaming JSON diverges from encoding/json:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	if st.Series != 5 || st.Rows != 17 {
		t.Fatalf("stats = %+v, want 5 series / 17 rows", st)
	}
}

func TestJSONEmptySource(t *testing.T) {
	var buf bytes.Buffer
	st, err := JSON(&buf, windows(nil), -inf, inf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" || st.Series != 0 || st.Rows != 0 {
		t.Fatalf("empty export: %q, %+v", buf.String(), st)
	}
}

// TestJSONRejectsNonFinite: like encoding/json, a NaN or Inf sample
// fails the export instead of emitting invalid JSON.
func TestJSONRejectsNonFinite(t *testing.T) {
	ws := []ts.Window{{Name: "x", Kind: ts.KindGauge, StepS: 1, Total: 2,
		Values: []float64{1, math.Inf(1)}}}
	if _, err := JSON(io.Discard, windows(ws), -inf, inf); err == nil {
		t.Fatal("JSON accepted +Inf")
	}
	ws[0].Values[1] = math.NaN()
	if _, err := JSON(io.Discard, windows(ws), -inf, inf); err == nil {
		t.Fatal("JSON accepted NaN")
	}
	// CSV has no such restriction.
	if _, err := CSV(io.Discard, windows(ws), -inf, inf); err != nil {
		t.Fatalf("CSV rejected NaN: %v", err)
	}
}

func TestFilter(t *testing.T) {
	ws := sampleWindows()
	var buf bytes.Buffer
	st, err := CSV(&buf, Filter(windows(ws), "odd,name"), -inf, inf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Series != 1 || st.Rows != 4 {
		t.Fatalf("filtered stats = %+v", st)
	}
	want := oracleCSV(t, []ts.Window{ws[2]})
	if buf.String() != want {
		t.Fatalf("filtered CSV:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	if st, _ := CSV(io.Discard, Filter(windows(ws), "no-such-series"), -inf, inf); st.Series != 0 || st.Rows != 0 {
		t.Fatalf("filter miss exported %+v", st)
	}
}

// TestExportAllocsFlat pins the point of streaming: allocations must
// not scale with row count. A 50k-row export stays under a fixed
// budget (buffers, bufio, the per-series prefix), so per-row cost is
// effectively zero.
func TestExportAllocsFlat(t *testing.T) {
	const rows = 50000
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/7) * 1000
	}
	ws := []ts.Window{{Name: `w{le="0.1"}`, Kind: ts.KindGauge, StepS: 0.5, FirstT: 10,
		Total: rows, Values: vals}}
	src := windows(ws)

	csvAllocs := testing.AllocsPerRun(3, func() {
		if _, err := CSV(io.Discard, src, -inf, inf); err != nil {
			t.Fatal(err)
		}
	})
	if csvAllocs > 25 {
		t.Fatalf("CSV of %d rows cost %.0f allocs — per-row allocation crept back in", rows, csvAllocs)
	}
	jsonAllocs := testing.AllocsPerRun(3, func() {
		if _, err := JSON(io.Discard, src, -inf, inf); err != nil {
			t.Fatal(err)
		}
	})
	if jsonAllocs > 25 {
		t.Fatalf("JSON of %d rows cost %.0f allocs — per-row allocation crept back in", rows, jsonAllocs)
	}
}

// TestCSVQuotingCorners cross-checks appendCSVField against
// encoding/csv on adversarial names.
func TestCSVQuotingCorners(t *testing.T) {
	names := []string{
		"plain", `q"uote`, "comma,inside", " leadspace", "\ttab", "new\nline",
		"cr\rreturn", `\.`, `trail"`, `""`, "mixed,\"all\"\nof\rit",
	}
	for _, name := range names {
		ws := []ts.Window{{Name: name, Kind: ts.KindGauge, StepS: 1, Total: 1, Values: []float64{7}}}
		var buf bytes.Buffer
		if _, err := CSV(&buf, windows(ws), -inf, inf); err != nil {
			t.Fatal(err)
		}
		want := oracleCSV(t, ws)
		if buf.String() != want {
			t.Fatalf("name %q: got %q want %q", name, buf.String(), want)
		}
	}
}

// TestJSONStringEscaping cross-checks appendJSONString against
// encoding/json, including its HTML-safe escapes.
func TestJSONStringEscaping(t *testing.T) {
	names := []string{
		"plain", `le="0.01"`, "a<b>&c", "tab\there", "nl\nhere", "back\\slash", "ctl\x01",
	}
	for _, name := range names {
		got := string(appendJSONString(nil, name))
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(name); err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSuffix(buf.String(), "\n")
		if got != want {
			t.Fatalf("name %q: got %s want %s", name, got, want)
		}
	}
}

// TestJSONFloatFormatting cross-checks appendJSONFloat against
// encoding/json across the f/e split and the exponent cleanup.
func TestJSONFloatFormatting(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999e-7, 1e-9, 2.5e-7, 1e21,
		9.999999e20, -1e21, 5e-324, 1.7976931348623157e308, 123456789.123456789,
	}
	for _, v := range vals {
		got, err := appendJSONFloat(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%v: got %s want %s", v, got, want)
		}
	}
}
