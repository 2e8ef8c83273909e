// Package export streams recorded time series out of the paged store
// into the CSV/JSON exchange formats, one row at a time, so exporting a
// million-sample store costs the same RAM as exporting ten.
package export

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"sdb/internal/obs/ts"
)

// Walker is a streamed series source that serves a closed time window
// [t0, t1] itself, reading only the storage that overlaps it. WalkRange
// calls series once per series with samples in the window (in name
// order, with a metadata-only ts.Window: Values nil, FirstT and Total
// those of the in-window samples), then value once per in-window sample
// of that series in time order. A series callback that returns
// ts.SkipSeries passes over that series. The paged store implements it.
type Walker interface {
	WalkRange(t0, t1 float64, series func(ts.Window) error, value func(t, v float64) error) error
}

// Stats counts what an export produced.
type Stats struct {
	Series int64
	Rows   int64
}

// Filter narrows a Walker to one series name; the source skips every
// other series without reading it.
func Filter(src Walker, name string) Walker { return filterWalker{src, name} }

type filterWalker struct {
	src  Walker
	name string
}

func (f filterWalker) WalkRange(t0, t1 float64, series func(ts.Window) error, value func(t, v float64) error) error {
	return f.src.WalkRange(t0, t1, func(w ts.Window) error {
		if w.Name != f.name {
			return ts.SkipSeries
		}
		return series(w)
	}, value)
}

// CSVHeader is the first line of the long CSV format.
const CSVHeader = "series,kind,time_s,value"

// CSV streams the long format — CSVHeader, then one row per sample of
// src in [t0, t1] — byte-identical to what encoding/csv would emit,
// without its per-record allocations: the row buffer is reused and
// floats are appended in place, so only a series change allocates
// (growing the quoted-name buffer).
func CSV(w io.Writer, src Walker, t0, t1 float64) (Stats, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(CSVHeader + "\n"); err != nil {
		return Stats{}, err
	}
	var st Stats
	var row []byte    // reused per row
	var prefix []byte // "name,kind," with CSV quoting, rebuilt per series
	err := src.WalkRange(t0, t1,
		func(win ts.Window) error {
			st.Series++
			prefix = appendCSVField(prefix[:0], win.Name)
			prefix = append(prefix, ',')
			prefix = appendCSVField(prefix, win.Kind.String())
			prefix = append(prefix, ',')
			return nil
		},
		func(t, v float64) error {
			st.Rows++
			row = append(row[:0], prefix...)
			row = strconv.AppendFloat(row, t, 'g', -1, 64)
			row = append(row, ',')
			row = strconv.AppendFloat(row, v, 'g', -1, 64)
			row = append(row, '\n')
			_, err := bw.Write(row)
			return err
		},
	)
	if err != nil {
		return st, err
	}
	return st, bw.Flush()
}

// appendCSVField appends s, quoted exactly when encoding/csv would
// quote it (embedded quote, comma, CR, LF, or leading space/tab), with
// inner quotes doubled.
func appendCSVField(dst []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	if s[0] == ' ' || s[0] == '\t' {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"', ',', '\r', '\n':
			return true
		}
	}
	return false
}

// JSON streams src's series in [t0, t1] as the array-of-series
// document the old exporter built with encoding/json (two-space
// indent, HTML-safe escaping, json's float formatting), holding one
// value in memory at a time. Like encoding/json it refuses non-finite
// values.
func JSON(w io.Writer, src Walker, t0, t1 float64) (Stats, error) {
	bw := bufio.NewWriter(w)
	var st Stats
	var row []byte // reused per value
	firstSeries := true
	inSeries := false
	seriesRows := 0
	var curName string
	err := src.WalkRange(t0, t1,
		func(win ts.Window) error {
			if err := finishJSONSeries(bw, &inSeries, seriesRows); err != nil {
				return err
			}
			st.Series++
			curName = win.Name
			row = row[:0]
			if firstSeries {
				row = append(row, "[\n  {\n"...)
				firstSeries = false
			} else {
				row = append(row, ",\n  {\n"...)
			}
			row = append(row, `    "name": `...)
			row = appendJSONString(row, win.Name)
			row = append(row, ",\n    \"kind\": "...)
			row = appendJSONString(row, win.Kind.String())
			row = append(row, ",\n    \"step_s\": "...)
			var err error
			if row, err = appendJSONFloat(row, win.StepS); err != nil {
				return fmt.Errorf("series %s step_s: %w", win.Name, err)
			}
			row = append(row, ",\n    \"first_t\": "...)
			if row, err = appendJSONFloat(row, win.FirstT); err != nil {
				return fmt.Errorf("series %s first_t: %w", win.Name, err)
			}
			row = append(row, ",\n    \"total\": "...)
			row = strconv.AppendUint(row, win.Total, 10)
			row = append(row, ",\n    \"values\": ["...)
			inSeries = true
			seriesRows = 0
			_, werr := bw.Write(row)
			return werr
		},
		func(t, v float64) error {
			st.Rows++
			row = row[:0]
			if seriesRows == 0 {
				row = append(row, "\n      "...)
			} else {
				row = append(row, ",\n      "...)
			}
			seriesRows++
			var err error
			if row, err = appendJSONFloat(row, v); err != nil {
				return fmt.Errorf("series %s value at t=%g: %w", curName, t, err)
			}
			_, werr := bw.Write(row)
			return werr
		},
	)
	if err != nil {
		return st, err
	}
	if err := finishJSONSeries(bw, &inSeries, seriesRows); err != nil {
		return st, err
	}
	if firstSeries {
		if _, err := bw.WriteString("[]\n"); err != nil {
			return st, err
		}
		return st, bw.Flush()
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return st, err
	}
	return st, bw.Flush()
}

// finishJSONSeries closes the values array and object of the series in
// progress, matching encoding/json's indentation: an empty array stays
// on one line ("values": []), a populated one closes on its own line.
func finishJSONSeries(bw *bufio.Writer, inSeries *bool, rows int) error {
	if !*inSeries {
		return nil
	}
	*inSeries = false
	s := "\n    ]\n  }"
	if rows == 0 {
		s = "]\n  }"
	}
	_, err := bw.WriteString(s)
	return err
}

// appendJSONString appends s as a JSON string with encoding/json's
// default escaping (quotes, backslashes, control chars, and the
// HTML-sensitive <, >, & as \u00XX).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendJSONFloat appends v exactly as encoding/json renders float64s:
// %f for mid-range magnitudes, %e outside [1e-6, 1e21) with the
// leading zero trimmed from two-digit negative exponents (e-09 → e-9).
func appendJSONFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return dst, fmt.Errorf("json: unsupported value: %g", v)
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
