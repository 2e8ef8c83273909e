package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdb/internal/obs/ts"
)

// FuzzStore throws arbitrary bytes at the whole read surface. Accepted
// input must dump without panicking, survive a Close (which commits
// any crash-recovered pages) and reopen with an identical dump; bad
// input must fail with ErrCorrupt. The decoder is alloc-bounded: every
// count is validated against the bytes that remain before anything is
// sized from it, so a forged length cannot allocate beyond the (size-
// capped) input itself.
func FuzzStore(f *testing.F) {
	// Golden seeds: a clean two-commit store, the same store followed by
	// a CRC-valid page of the retired type 3 (downsampled buckets), an
	// empty store, and truncated/flipped variants to aim the mutator.
	two := fuzzFixture(f)
	f.Add(two)
	retired := make([]byte, 128)
	retired[0] = 3
	recrcPage(retired)
	f.Add(append(append([]byte(nil), two...), retired...))
	f.Add(two[:headerSize+128])
	f.Add(two[:len(two)-37])
	flip := append([]byte(nil), two...)
	flip[len(flip)-70] ^= 0xff
	f.Add(flip)
	empty, err := os.ReadFile(emptyFixture(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("alloc bound: oversized input")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.sdbstor")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !isVersionErr(err) {
				t.Fatalf("rejection is not ErrCorrupt: %v", err)
			}
			return
		}
		dump1, derr := dumpStore(s)
		if derr != nil && !errors.Is(derr, ErrCorrupt) && !errors.Is(derr, ErrGap) {
			t.Fatalf("dump error class: %v", derr)
		}
		if err := s.Close(); err != nil {
			// A truncated tail can leave recovered pages whose re-commit
			// is the first write; only I/O failures are unexpected here.
			t.Logf("close after recovery: %v", err)
			return
		}
		if derr != nil {
			return // accepted shell, unreadable interior: classified above
		}
		// Accepted and readable: the re-committed file must read back
		// identically.
		r, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after clean close: %v", err)
		}
		defer r.Close()
		dump2, err := dumpStore(r)
		if err != nil {
			t.Fatalf("dump after clean close: %v", err)
		}
		if dump1 != dump2 {
			t.Fatalf("round-trip changed data\n--- before\n%s--- after\n%s", dump1, dump2)
		}
	})
}

func isVersionErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unsupported version")
}

func fuzzFixture(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.sdbstor")
	s, err := Create(path, Options{PageSize: 128})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Append("a", ts.KindGauge, 2, float64(i)*2, float64(i%7)); err != nil {
			f.Fatal(err)
		}
		if err := s.Append("b_total", ts.KindCounter, 2, float64(i)*2, float64(i*3)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	for i := 40; i < 60; i++ {
		if err := s.Append("a", ts.KindGauge, 2, float64(i)*2, float64(i%7)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

func emptyFixture(f *testing.F) string {
	f.Helper()
	path := filepath.Join(f.TempDir(), "empty.sdbstor")
	s, err := Create(path, Options{PageSize: 128})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	return path
}
