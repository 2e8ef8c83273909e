package store

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sdb/internal/obs/ts"
)

// writerGoldenSHA256 is the SHA-256 of the file TestWriterGolden
// writes. The store format is Version 1 and fixed: a change to this
// hash is a change to the bytes on disk, which old readers (and old
// recordings read by new code) would see.
const writerGoldenSHA256 = "f93ec5ad231f42b15d441bd1038d2a96088c3bbcd758b72be4383fc93bef88b9"

// TestWriterGolden pins the writer's bytes: a fixed append sequence —
// a counter and a gauge carrying NaN and ±Inf, 128-byte pages so the
// index chains across segments, two Syncs, then a reopen and a further
// append — must produce exactly the same file every time.
func TestWriterGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.sdbstor")
	s, err := Create(path, Options{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	gauge := func(i int) float64 {
		if i%17 == 5 {
			return special[(i/17)%len(special)]
		}
		return 0.9 - float64(i)*0.003
	}
	for i := 0; i < 60; i++ {
		tm := float64(i) * 60
		if err := s.Append("steps_total", ts.KindCounter, 60, tm, float64(i*7)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("soc", ts.KindGauge, 60, tm, gauge(i)); err != nil {
			t.Fatal(err)
		}
		if i == 29 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
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
	for i := 60; i < 70; i++ {
		if err := r.Append("soc", ts.KindGauge, 60, float64(i)*60, gauge(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must exercise what it claims: some index segment of
	// the file points at an earlier one.
	chained := false
	for off := headerSize; off+128 <= len(data); off += 128 {
		if data[off] == ptIndex && data[off+1] != 0 {
			chained = true
		}
	}
	if !chained {
		t.Fatal("fixture index fits one segment; grow the append sequence")
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != writerGoldenSHA256 {
		t.Fatalf("writer bytes changed: sha256 %s, want %s (%d bytes)", got, writerGoldenSHA256, len(data))
	}
}
