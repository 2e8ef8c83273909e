package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdb/internal/obs/ts"
)

// buildCorruptionFixture makes a small two-commit, append-only store
// and returns its bytes. Two commits matter: the commit-1 root becomes
// a dead page the backward scan never visits (flips there must leave
// output identical), and a flip in the commit-2 root forces the scan
// to fall back to the commit-1 root and roll the commit-2 data pages
// forward — append-only content makes that recovery view identical
// too, so the oracle stays "ErrCorrupt or equal".
func buildCorruptionFixture(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.sdbstor")
	s, err := Create(path, Options{PageSize: 128})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	mustAppend(t, s, "soc", ts.KindGauge, 60, 0, 0.9, 0.88, 0.85, 0.81)
	mustAppend(t, s, "steps_total", ts.KindCounter, 60, 0, 10, 20, 30)
	if err := s.Sync(); err != nil { // commit 1
		t.Fatalf("Sync: %v", err)
	}
	mustAppend(t, s, "soc", ts.KindGauge, 60, 240, 0.78, 0.75)
	mustAppend(t, s, "steps_total", ts.KindCounter, 60, 180, 40, 50)
	if err := s.Close(); err != nil { // commit 2
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// dumpStore renders everything readable from a store into one string,
// value bits spelled out, so two dumps compare exactly. It reads
// through Series, Query and QueryDown, and drains the unbounded
// WalkRange export streams: wherever Query succeeds, the walk must
// carry the same samples, bit for bit, at the same times (within the
// grid slack Query allows between pages).
func dumpStore(s *Store) (string, error) {
	walked := map[string][][2]float64{}
	var cur string
	err := s.WalkRange(math.Inf(-1), math.Inf(1),
		func(w ts.Window) error { cur = w.Name; return nil },
		func(t, v float64) error {
			walked[cur] = append(walked[cur], [2]float64{t, v})
			return nil
		})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, info := range s.Series() {
		fmt.Fprintf(&b, "series %s kind=%s step=%g samples=%d\n",
			info.Name, info.Kind, info.StepS, info.Samples)
		w, err := s.Query(info.Name, math.Inf(-1), math.Inf(1))
		if err != nil {
			return "", err
		}
		got := walked[info.Name]
		if len(got) != len(w.Values) {
			return "", fmt.Errorf("%s: walk streamed %d samples, Query %d", info.Name, len(got), len(w.Values))
		}
		for i, v := range w.Values {
			t := w.FirstT + float64(i)*w.StepS
			if math.Abs(got[i][0]-t) > gridEps(w.StepS) || math.Float64bits(got[i][1]) != math.Float64bits(v) {
				return "", fmt.Errorf("%s[%d]: walk (%g, %#x), Query (%g, %#x)", info.Name, i,
					got[i][0], math.Float64bits(got[i][1]), t, math.Float64bits(v))
			}
			fmt.Fprintf(&b, "  v %s %g %#x\n", info.Name, t, math.Float64bits(v))
		}
		bs, err := s.QueryDown(info.Name, math.Inf(-1), math.Inf(1), 120)
		if err != nil {
			return "", err
		}
		for _, bk := range bs {
			fmt.Fprintf(&b, "  b %s %g n=%d %#x %#x %#x\n", info.Name,
				bk.T0, bk.Count, math.Float64bits(bk.Min), math.Float64bits(bk.Max), math.Float64bits(bk.Sum))
		}
	}
	return b.String(), nil
}

// openAndDump runs the full read surface over raw file bytes.
func openAndDump(t *testing.T, data []byte) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flip.sdbstor")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		return "", err
	}
	defer s.Close()
	return dumpStore(s)
}

// TestRejectsCorruption flips every single byte of a valid store and
// requires each flip to either surface as ErrCorrupt or leave the
// readable output exactly unchanged — never a panic, never silently
// different data.
func TestRejectsCorruption(t *testing.T) {
	data := buildCorruptionFixture(t)
	want, err := openAndDump(t, data)
	if err != nil {
		t.Fatalf("clean fixture does not read back: %v", err)
	}
	if !strings.Contains(want, "series soc") || !strings.Contains(want, "series steps_total") {
		t.Fatalf("fixture dump implausible:\n%s", want)
	}

	corrupt := 0
	for i := range data {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 0x5a
		got, err := openAndDump(t, mut)
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at byte %d: error %v does not wrap ErrCorrupt", i, err)
			}
			corrupt++
		case got != want:
			t.Fatalf("flip at byte %d: silently different output\n--- want\n%s--- got\n%s", i, want, got)
		}
	}
	// Almost every byte is CRC-protected; if flips mostly pass, the
	// checksums are not actually wired in.
	if corrupt < len(data)/2 {
		t.Fatalf("only %d of %d byte flips detected as corrupt", corrupt, len(data))
	}
	t.Logf("%d bytes: %d flips ErrCorrupt, %d flips identical", len(data), corrupt, len(data)-corrupt)
}

// TestRejectsTruncation cuts the fixture at every length; every prefix
// must open as ErrCorrupt (or an I/O-size error on the header) or read
// back as a consistent earlier commit — never panic.
func TestRejectsTruncation(t *testing.T) {
	data := buildCorruptionFixture(t)
	want, err := openAndDump(t, data)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 7 {
		got, err := openAndDump(t, data[:n])
		if err != nil {
			continue // rejected: fine
		}
		// A successful open of a prefix must be a subset of the truth:
		// every raw sample it reports appears, bit-identical, in the
		// full dump. (Series totals and bucket aggregates legitimately
		// shrink; invented or altered samples never pass.)
		for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
			if strings.HasPrefix(line, "  v ") && !strings.Contains(want, line+"\n") {
				t.Fatalf("truncation at %d invented data: %q\n%s", n, line, got)
			}
		}
	}
}

// TestRejectsOversizedClaims hand-corrupts counts inside a page and
// re-CRCs it, so the damage is invisible to the checksum and must be
// caught by the structural decoder instead.
func TestRejectsOversizedClaims(t *testing.T) {
	data := buildCorruptionFixture(t)
	const ps = 128

	// Find the first declaration page: type ptSeries, then a count
	// uvarint. Claim 200 declarations and fix the CRC.
	page := make([]byte, ps)
	mut := make([]byte, len(data))
	declOff := -1
	for off := headerSize; off+ps <= len(data); off += ps {
		if data[off] == ptSeries {
			declOff = off
			break
		}
	}
	if declOff < 0 {
		t.Fatal("fixture has no declaration page")
	}
	copy(page, data[declOff:declOff+ps])
	page[1] = 200
	recrcPage(page)
	copy(mut, data)
	copy(mut[declOff:], page)
	if _, err := openAndDump(t, mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged declaration count: got %v, want ErrCorrupt", err)
	}

	// Find a data page and forge its sample count far past the payload.
	found := false
	for p := 0; headerSize+(p+1)*ps <= len(data); p++ {
		off := headerSize + p*ps
		if data[off] != ptData {
			continue
		}
		copy(page, data[off:off+ps])
		// type, id uvarint (1 byte in fixture), firstT f64, then count.
		page[1+1+8] = 250
		recrcPage(page)
		copy(mut, data)
		copy(mut[off:], page)
		if _, err := openAndDump(t, mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged sample count on page %d: got %v, want ErrCorrupt", p+1, err)
		}
		found = true
		break
	}
	if !found {
		t.Fatal("fixture has no data page to forge")
	}
}

// TestRejectsMalformedStructures feeds the page decoders payloads that
// are well-formed varint by varint but break a structural rule, as a
// buggy or foreign writer (or damage behind a recomputed CRC) would
// produce. Each must fail with ErrCorrupt from the check named in its
// case.
func TestRejectsMalformedStructures(t *testing.T) {
	uv := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	decl := func(b []byte, id uint64, kind ts.Kind, stepS float64, name string) []byte {
		b = append(uv(b, id), byte(kind))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(stepS))
		return append(uv(b, uint64(len(name))), name...)
	}
	decls := func(ds ...[]byte) []byte {
		b := uv([]byte{ptSeries}, uint64(len(ds)))
		for _, d := range ds {
			b = append(b, d...)
		}
		return b
	}
	indexEntry := func(level byte) []byte {
		b := append(uv([]byte{ptIndex}, 0, 1, 0, 3), level) // prev, n, id, page
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(60))
		return uv(b, 2)
	}
	cases := []struct {
		name, want string
		run        func() error
	}{
		// A root at page 10 of a 10-page commit, index pointer 0.
		{"root page count", "claims", func() error {
			_, err := parseRoot(uv([]byte{ptRoot}, 1, 9, 0, 0), 10)
			return err
		}},
		{"root index pointer", "index pointer", func() error {
			_, err := parseRoot(uv([]byte{ptRoot}, 1, 10, 10, 0), 10)
			return err
		}},
		{"root declaration page", "outside commit", func() error {
			_, err := parseRoot(uv([]byte{ptRoot}, 1, 10, 0, 1, 10), 10)
			return err
		}},
		{"declaration kind", "kind=99", func() error {
			return newStore(nil, 128).adoptDecls(decls(decl(nil, 0, ts.Kind(99), 60, "a")))
		}},
		{"declaration step", "step=0", func() error {
			return newStore(nil, 128).adoptDecls(decls(decl(nil, 0, ts.KindGauge, 0, "a")))
		}},
		{"declaration name", `declaration ""`, func() error {
			return newStore(nil, 128).adoptDecls(decls(decl(nil, 0, ts.KindGauge, 60, "")))
		}},
		{"redeclared id", "redeclared", func() error {
			return newStore(nil, 128).adoptDecls(decls(
				decl(nil, 0, ts.KindGauge, 60, "a"), decl(nil, 0, ts.KindGauge, 60, "b")))
		}},
		{"duplicate name", "declared twice", func() error {
			return newStore(nil, 128).adoptDecls(decls(
				decl(nil, 0, ts.KindGauge, 60, "a"), decl(nil, 1, ts.KindGauge, 60, "a")))
		}},
		{"index entry level", "level 1", func() error {
			if _, _, err := newStore(nil, 128).parseIndex(indexEntry(0)); err != nil {
				return fmt.Errorf("level-0 control entry rejected: %v", err)
			}
			_, _, err := newStore(nil, 128).parseIndex(indexEntry(1))
			return err
		}},
		// Every read scans a series' entries in index order as its time
		// order, so Open refuses an index that lists them otherwise.
		{"index entries out of time order", "out of time order", func() error {
			data := buildCorruptionFixture(t)
			off := -1
			for o := headerSize; o+128 <= len(data); o += 128 {
				if data[o] == ptIndex {
					off = o // the committed index is the last one written
				}
			}
			// Type, prev and count take a byte each here, and each entry
			// is 20 bytes: one-byte id, page and count, level, two f64s.
			e := data[off+3 : off+128]
			if e[0] != e[20] {
				return fmt.Errorf("fixture's first two index entries are not one series'")
			}
			var first [20]byte
			copy(first[:], e[:20])
			copy(e[:20], e[20:40])
			copy(e[20:40], first[:])
			recrcPage(data[off : off+128])
			_, err := openAndDump(t, data)
			return err
		}},
		// Type 3 once held downsampled buckets. A CRC-valid page of it
		// after the root is no torn write, so recovery refuses the file
		// rather than truncate the page away.
		{"type-3 page after the root", "unknown type 3", func() error {
			page := make([]byte, 128)
			page[0] = 3
			recrcPage(page)
			_, err := openAndDump(t, append(buildCorruptionFixture(t), page...))
			return err
		}},
	}
	for _, c := range cases {
		err := c.run()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrCorrupt mentioning %q", c.name, err, c.want)
		}
	}
}

// recrcPage recomputes a page's trailing CRC after hand-editing, using
// an independent bit-by-bit CRC-16/CCITT-FALSE so the test does not
// trust the implementation under test.
func recrcPage(page []byte) {
	crc := uint16(0xFFFF)
	for _, b := range page[:len(page)-2] {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	page[len(page)-2] = byte(crc)
	page[len(page)-1] = byte(crc >> 8)
}
