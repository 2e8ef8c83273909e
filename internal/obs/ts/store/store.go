// Package store is the paged, indexed on-disk telemetry store
// (.sdbstor), the one format recorded telemetry is kept in. A fleet
// recording millions of device-days cannot be read whole; this format
// answers a time-windowed query by reading only an index plus the
// pages that overlap the window.
//
// # File layout
//
// A store is a 16-byte header followed by fixed-size pages (all
// integers little-endian, varints unsigned LEB128 as in
// encoding/binary):
//
//	magic    "SDBSTOR"            7 bytes
//	version  u8                   currently 1
//	pageSize u32                  power-of-two not required; [128, 1 MiB]
//	reserved u16                  zero
//	crc      u16                  CRC-16/CCITT-FALSE over the 14 bytes above
//
// Page p (1-based) lives at offset 16 + (p-1)*pageSize. Every page is
// zero-padded to pageSize with a CRC-16 over its first pageSize-2
// bytes in its last two — the same polynomial the bus frames and fleet
// snapshots use, so one checksum implementation guards every
// transport. A page's first payload byte is its type:
//
//	1 series  declarations: count, then (id, kind, stepS, name) each
//	2 data    one series' raw samples: id, firstT, count, first value's
//	          raw f64 bits, then count-1 XOR-of-bits uvarint deltas
//	          (uniform-step series change slowly, consecutive bits
//	          share high bytes, and decoding reproduces every sample
//	          bit-exactly)
//	4 index   a segment of the commit's index: prev segment page, then
//	          (id, page, level, firstT, lastT, count) each; level is
//	          always 0 (a raw data page)
//	5 root    the commit point: generation, page count, newest index
//	          segment, declaration-page list
//
// # Commit protocol
//
// Appends buffer in memory per series and flush to fresh data pages as
// they fill. Sync flushes partial pages, writes the index (a chain of
// segment pages, newest last), and finally writes one root page — the
// single atomic commit point. A reader scans backward from the file's
// end for the newest valid root (normally the last page) and trusts
// only what that root references, then rolls forward: CRC-valid data
// and declaration pages written after the root (a crash between page
// flush and Sync) are re-adopted, while a torn final page — or
// anything after it — is detected by its CRC and dropped, never
// propagated. Aborted index/root pages from an unfinished commit are
// skipped.
//
// Type 3 is retired: it held downsampled buckets, which no writer of
// this format produces. A reader meets a type-3 page, or an index entry
// with a nonzero level, only in a damaged or foreign file, and fails
// with ErrCorrupt.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"sdb/internal/bus"
	"sdb/internal/faults"
	"sdb/internal/obs/ts"
)

// Magic starts every store file.
const Magic = "SDBSTOR"

// Version is the format this package writes.
const Version = 1

// DefaultPageSize is the page size Create uses when Options.PageSize
// is zero — one OS page, the sqlite-style sweet spot between index
// fan-out and write amplification.
const DefaultPageSize = 4096

// MinPageSize and MaxPageSize bound Options.PageSize and the header
// field on open, against absurd or corrupt sizes.
const (
	MinPageSize = 128
	MaxPageSize = 1 << 20
)

// MaxNameLen bounds a series name, against corrupt length prefixes.
const MaxNameLen = 4096

// headerSize is the fixed pre-page header length.
const headerSize = 16

// Page types.
const (
	ptSeries = 1
	ptData   = 2
	ptIndex  = 4
	ptRoot   = 5
)

// ErrCorrupt wraps every structural decode failure.
var ErrCorrupt = errors.New("store: corrupt")

// ErrGap reports a raw Query window that crosses a recording gap: the
// samples inside it do not sit on one uniform grid, so they cannot be
// returned as a single ts.Window. Narrow the window or use QueryDown.
var ErrGap = errors.New("store: window crosses a recording gap")

// Options configures Create.
type Options struct {
	// PageSize is the fixed page size in bytes (DefaultPageSize when
	// zero). Smaller pages mean finer-grained queries and more index
	// entries; it is fixed for the life of the file.
	PageSize int
}

// entry is one index entry: a committed (or flushed) data page of one
// series, with the time range it covers.
type entry struct {
	page   int64
	firstT float64
	lastT  float64 // last sample time
	count  uint64
}

// seriesState is the in-memory state of one series: identity, its
// index entries, and the pending samples not yet flushed to a page.
type seriesState struct {
	id       uint64
	name     string
	kind     ts.Kind
	stepS    float64
	declared bool // declaration is durable in a flushed decl page

	entries []entry // sorted by firstT

	// Pending raw samples, already value-encoded.
	pFirstT float64
	pCount  int
	pPrev   uint64 // newest pending value's bits
	pBuf    []byte

	maxT    float64 // newest sample time ever appended
	hasData bool
}

// Stats is a point-in-time snapshot of the store's page accounting.
// Tests use the read counter to prove queries touch only the index
// plus the pages a window needs, never the whole file.
type Stats struct {
	Pages        int64  // pages currently in the file
	PagesRead    uint64 // pages read since open (or ResetStats)
	PagesWritten uint64 // pages written since open
	Generation   uint64 // commits since creation
	Series       int
}

// Store is an open telemetry store. All methods are safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	npages   int64
	gen      uint64
	closed   bool

	series    map[string]*seriesState
	byID      map[uint64]*seriesState
	nextID    uint64
	declPages []int64
	undeclard []*seriesState // declarations not yet flushed
	dirty     bool

	pagesRead    uint64
	pagesWritten uint64

	writeBuf []byte // one page, reused by writePage
	readBuf  []byte // one page, reused by readPage
}

// Create makes a new store at path (failing if it already exists) and
// commits an empty root, so even a crash immediately after Create
// leaves a well-formed file.
func Create(path string, opt Options) (*Store, error) {
	ps := opt.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps < MinPageSize || ps > MaxPageSize {
		return nil, fmt.Errorf("store: page size %d outside [%d, %d]", ps, MinPageSize, MaxPageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	s := newStore(f, ps)
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	hdr[len(Magic)] = Version
	binary.LittleEndian.PutUint32(hdr[len(Magic)+1:], uint32(ps))
	binary.LittleEndian.PutUint16(hdr[headerSize-2:], bus.CRC16(hdr[:headerSize-2]))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	s.dirty = true // force the empty root
	if err := s.syncLocked(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return s, nil
}

// OpenOrCreate opens path if it exists, creating it otherwise — the
// CLI-facing entry point for long-lived recordings that resume across
// server restarts.
func OpenOrCreate(path string, opt Options) (*Store, error) {
	if _, err := os.Stat(path); err == nil {
		return Open(path)
	}
	return Create(path, opt)
}

func newStore(f *os.File, pageSize int) *Store {
	return &Store{
		f:        f,
		pageSize: pageSize,
		series:   make(map[string]*seriesState),
		byID:     make(map[uint64]*seriesState),
		writeBuf: make([]byte, pageSize),
		readBuf:  make([]byte, pageSize),
	}
}

// payloadCap is the usable bytes per page (everything but the CRC).
func (s *Store) payloadCap() int { return s.pageSize - 2 }

// Close commits pending state and closes the file. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	s.closed = true
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync flushes every pending sample to data pages and writes a new
// index and root — the commit point. A no-op when nothing changed.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.syncLocked()
}

// Stats snapshots the page accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Pages:        s.npages,
		PagesRead:    s.pagesRead,
		PagesWritten: s.pagesWritten,
		Generation:   s.gen,
		Series:       len(s.series),
	}
}

// ResetStats zeroes the read/write counters (the page and series
// counts are structural and stay).
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.pagesRead, s.pagesWritten = 0, 0
	s.mu.Unlock()
}

// Append records one sample of a series at sim time t. Samples must
// arrive in strictly increasing time order per series; a sample that
// does not land one stepS after its predecessor starts a new page (a
// recording gap), which QueryDown tolerates and raw Query reports as
// ErrGap. This is the ts.Recorder sink entry point.
func (s *Store) Append(name string, kind ts.Kind, stepS, t, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	// Every check runs before ensureSeries registers a new name, so a
	// rejected sample leaves no empty series behind.
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("store: %s: non-finite sample time", name)
	}
	ss, err := s.ensureSeries(name, kind, stepS)
	if err != nil {
		return err
	}
	if ss.hasData && t <= ss.maxT {
		return fmt.Errorf("store: %s: non-monotone append (t=%g after %g)", name, t, ss.maxT)
	}
	eps := gridEps(stepS)
	if ss.pCount > 0 && math.Abs(t-(ss.pFirstT+float64(ss.pCount)*stepS)) > eps {
		// Off-grid: close the run and start a new page at t.
		if err := s.flushSeries(ss); err != nil {
			return err
		}
	}
	// Worst-case bytes this sample can add: 8 raw or a 10-byte varint.
	if ss.pCount > 0 && dataOverhead+len(ss.pBuf)+binary.MaxVarintLen64 > s.payloadCap() {
		if err := s.flushSeries(ss); err != nil {
			return err
		}
	}
	bits := math.Float64bits(v)
	if ss.pCount == 0 {
		ss.pFirstT = t
		ss.pBuf = binary.LittleEndian.AppendUint64(ss.pBuf[:0], bits)
	} else {
		ss.pBuf = binary.AppendUvarint(ss.pBuf, ss.pPrev^bits)
	}
	ss.pPrev = bits
	ss.pCount++
	ss.maxT = t
	ss.hasData = true
	s.dirty = true
	return nil
}

// gridEps is the slack allowed between an appended time and the series
// grid before the sample is treated as a gap.
func gridEps(stepS float64) float64 { return 1e-6 * stepS }

// dataOverhead is the worst-case non-value bytes of a data page:
// type + id varint + firstT + count varint.
const dataOverhead = 1 + binary.MaxVarintLen64 + 8 + binary.MaxVarintLen64

func (s *Store) ensureSeries(name string, kind ts.Kind, stepS float64) (*seriesState, error) {
	if ss, ok := s.series[name]; ok {
		if ss.kind != kind {
			return nil, fmt.Errorf("store: %s: kind %s conflicts with recorded %s", name, kind, ss.kind)
		}
		if ss.stepS != stepS {
			return nil, fmt.Errorf("store: %s: stepS %g conflicts with recorded %g", name, stepS, ss.stepS)
		}
		return ss, nil
	}
	if name == "" || len(name) > MaxNameLen {
		return nil, fmt.Errorf("store: series name length %d outside [1, %d]", len(name), MaxNameLen)
	}
	if kind.String() == "unknown" {
		return nil, fmt.Errorf("store: unknown series kind %d", kind)
	}
	if !(stepS > 0) || math.IsInf(stepS, 0) {
		return nil, fmt.Errorf("store: %s: step %g not a positive finite duration", name, stepS)
	}
	if declSize(name) > s.payloadCap()-declPageOverhead {
		return nil, fmt.Errorf("store: series name %q... too long for %d-byte pages", name[:16], s.pageSize)
	}
	ss := &seriesState{id: s.nextID, name: name, kind: kind, stepS: stepS}
	s.nextID++
	s.series[name] = ss
	s.byID[ss.id] = ss
	s.undeclard = append(s.undeclard, ss)
	s.dirty = true
	return ss, nil
}

// declSize is the worst-case encoded size of one declaration.
func declSize(name string) int {
	return binary.MaxVarintLen64 + 1 + 8 + binary.MaxVarintLen64 + len(name)
}

// declPageOverhead is a declaration page's type byte + count varint.
const declPageOverhead = 1 + binary.MaxVarintLen64

// flushDecls writes every pending series declaration to declaration
// pages, packing as many per page as fit.
func (s *Store) flushDecls() error {
	for len(s.undeclard) > 0 {
		payload := []byte{ptSeries}
		var batch []*seriesState
		used := declPageOverhead
		for _, ss := range s.undeclard {
			if n := declSize(ss.name); used+n > s.payloadCap() && len(batch) > 0 {
				break
			} else {
				used += n
			}
			batch = append(batch, ss)
		}
		payload = binary.AppendUvarint(payload, uint64(len(batch)))
		for _, ss := range batch {
			payload = binary.AppendUvarint(payload, ss.id)
			payload = append(payload, byte(ss.kind))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(ss.stepS))
			payload = binary.AppendUvarint(payload, uint64(len(ss.name)))
			payload = append(payload, ss.name...)
		}
		page, err := s.writePage(payload)
		if err != nil {
			return err
		}
		s.declPages = append(s.declPages, page)
		for _, ss := range batch {
			ss.declared = true
		}
		s.undeclard = s.undeclard[len(batch):]
	}
	return nil
}

// flushSeries writes a series' pending samples as one data page.
func (s *Store) flushSeries(ss *seriesState) error {
	if ss.pCount == 0 {
		return nil
	}
	if !ss.declared {
		if err := s.flushDecls(); err != nil {
			return err
		}
	}
	payload := []byte{ptData}
	payload = binary.AppendUvarint(payload, ss.id)
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(ss.pFirstT))
	payload = binary.AppendUvarint(payload, uint64(ss.pCount))
	payload = append(payload, ss.pBuf...)
	page, err := s.writePage(payload)
	if err != nil {
		return err
	}
	ss.entries = append(ss.entries, entry{
		page:   page,
		firstT: ss.pFirstT,
		lastT:  ss.pFirstT + float64(ss.pCount-1)*ss.stepS,
		count:  uint64(ss.pCount),
	})
	ss.pCount = 0
	ss.pBuf = ss.pBuf[:0]
	return nil
}

// syncLocked is the commit: flush pendings, write the index chain,
// then the root. Callers hold s.mu.
func (s *Store) syncLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.flushDecls(); err != nil {
		return err
	}
	for id := uint64(0); id < s.nextID; id++ {
		if err := s.flushSeries(s.byID[id]); err != nil {
			return err
		}
	}

	// Index chain: entries in id-then-time order, packed into segment
	// pages, each pointing at the previous segment.
	var lastIndex int64
	payload := []byte{}
	var n int
	beginSegment := func() {
		payload = append(payload[:0], ptIndex)
		payload = binary.AppendUvarint(payload, uint64(lastIndex))
		n = 0
	}
	flushSegment := func() error {
		if n == 0 {
			return nil
		}
		full := make([]byte, 0, len(payload)+binary.MaxVarintLen64)
		full = append(full, payload[0])
		rest := payload[1:]
		_, m := binary.Uvarint(rest) // skip the prev pointer we wrote
		full = append(full, rest[:m]...)
		full = binary.AppendUvarint(full, uint64(n))
		full = append(full, rest[m:]...)
		page, err := s.writePage(full)
		if err != nil {
			return err
		}
		lastIndex = page
		return nil
	}
	beginSegment()
	for id := uint64(0); id < s.nextID; id++ {
		ss := s.byID[id]
		for _, e := range ss.entries {
			var enc []byte
			enc = binary.AppendUvarint(enc, ss.id)
			enc = binary.AppendUvarint(enc, uint64(e.page))
			enc = append(enc, 0) // level: every entry is a raw data page
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(e.firstT))
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(e.lastT))
			enc = binary.AppendUvarint(enc, e.count)
			if len(payload)+len(enc)+binary.MaxVarintLen64 > s.payloadCap() {
				if err := flushSegment(); err != nil {
					return err
				}
				beginSegment()
			}
			payload = append(payload, enc...)
			n++
		}
	}
	if err := flushSegment(); err != nil {
		return err
	}

	// Crash-safety testing: an armed store.commit kill point dies here,
	// with data pages durable but the new root unwritten — recovery
	// must fall back to the previous root and roll the data forward.
	faults.MaybeKill("store.commit")

	root := []byte{ptRoot}
	root = binary.AppendUvarint(root, s.gen+1)
	root = binary.AppendUvarint(root, uint64(s.npages+1)) // the root's own page number
	root = binary.AppendUvarint(root, uint64(lastIndex))
	root = binary.AppendUvarint(root, uint64(len(s.declPages)))
	for _, p := range s.declPages {
		root = binary.AppendUvarint(root, uint64(p))
	}
	if len(root) > s.payloadCap() {
		return fmt.Errorf("store: root page overflow (%d declaration pages)", len(s.declPages))
	}
	if _, err := s.writePage(root); err != nil {
		return err
	}
	s.gen++
	s.dirty = false
	return s.f.Sync()
}

// writePage pads, checksums, and appends one page, returning its
// 1-based page number. The two-part write brackets the store.page kill
// point so crash tests can tear a page deterministically.
func (s *Store) writePage(payload []byte) (int64, error) {
	if len(payload) > s.payloadCap() {
		return 0, fmt.Errorf("store: page payload %d exceeds %d", len(payload), s.payloadCap())
	}
	buf := s.writeBuf
	copy(buf, payload)
	pad := buf[len(payload) : s.pageSize-2]
	clear(pad)
	// The padding is zeros, so the register goes through it in one
	// multiplication instead of a byte at a time.
	crc := bus.CRC16Combine(bus.CRC16(payload), 0, len(pad))
	binary.LittleEndian.PutUint16(buf[s.pageSize-2:], crc)
	off := headerSize + s.npages*int64(s.pageSize)
	half := s.pageSize / 2
	if _, err := s.f.WriteAt(buf[:half], off); err != nil {
		return 0, err
	}
	// Crash-safety testing: an armed store.page kill point dies here,
	// leaving a half-written (torn) page recovery must drop.
	faults.MaybeKill("store.page")
	if _, err := s.f.WriteAt(buf[half:], off+int64(half)); err != nil {
		return 0, err
	}
	s.npages++
	s.pagesWritten++
	return s.npages, nil
}

// readPage reads and CRC-checks page p, returning its payload bytes.
// The returned slice aliases the store's reusable buffer: parse it
// before the next read.
func (s *Store) readPage(p int64) ([]byte, error) {
	if p < 1 || p > s.npages {
		return nil, fmt.Errorf("%w: page %d outside [1, %d]", ErrCorrupt, p, s.npages)
	}
	off := headerSize + (p-1)*int64(s.pageSize)
	if _, err := s.f.ReadAt(s.readBuf, off); err != nil {
		return nil, fmt.Errorf("store: page %d: %w", p, err)
	}
	s.pagesRead++
	want := binary.LittleEndian.Uint16(s.readBuf[s.pageSize-2:])
	if got := bus.CRC16(s.readBuf[:s.pageSize-2]); got != want {
		return nil, fmt.Errorf("%w: page %d crc mismatch (got %#04x want %#04x)", ErrCorrupt, p, got, want)
	}
	return s.readBuf[:s.pageSize-2], nil
}

// Open loads the store at path, recovering from a crashed writer: it
// trusts the newest valid root, re-adopts CRC-valid data written after
// it, and truncates a torn tail.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	s, err := open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func open(f *os.File) (*Store, error) {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if got, want := binary.LittleEndian.Uint16(hdr[headerSize-2:]), bus.CRC16(hdr[:headerSize-2]); got != want {
		return nil, fmt.Errorf("%w: header crc mismatch", ErrCorrupt)
	}
	if v := hdr[len(Magic)]; v != Version {
		return nil, fmt.Errorf("store: unsupported version %d (want %d)", v, Version)
	}
	ps := int(binary.LittleEndian.Uint32(hdr[len(Magic)+1:]))
	if ps < MinPageSize || ps > MaxPageSize {
		return nil, fmt.Errorf("%w: page size %d outside [%d, %d]", ErrCorrupt, ps, MinPageSize, MaxPageSize)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s := newStore(f, ps)
	maxPages := (fi.Size() - headerSize) / int64(ps)
	if maxPages < 1 {
		return nil, fmt.Errorf("%w: no pages", ErrCorrupt)
	}

	// Backward scan for the newest valid root. Normally one read: the
	// last page of a cleanly synced file is its root.
	var root rootInfo
	rootPage := int64(0)
	for p := maxPages; p >= 1; p-- {
		s.npages = maxPages // allow readPage during the scan
		payload, err := s.readPage(p)
		if err != nil || len(payload) == 0 || payload[0] != ptRoot {
			continue
		}
		r, err := parseRoot(payload, p)
		if err != nil {
			continue
		}
		root, rootPage = r, p
		break
	}
	if rootPage == 0 {
		return nil, fmt.Errorf("%w: no valid commit point in %d pages", ErrCorrupt, maxPages)
	}
	s.npages = rootPage
	s.gen = root.gen

	// Series declarations.
	for _, p := range root.declPages {
		payload, err := s.readPage(p)
		if err != nil {
			return nil, err
		}
		if err := s.adoptDecls(payload); err != nil {
			return nil, err
		}
		s.declPages = append(s.declPages, p)
	}

	// Index chain, newest segment first; reverse to commit order.
	var segments [][]entryRec
	for p := root.lastIndex; p != 0; {
		if p < 1 || p >= rootPage {
			return nil, fmt.Errorf("%w: index page %d outside commit", ErrCorrupt, p)
		}
		payload, err := s.readPage(p)
		if err != nil {
			return nil, err
		}
		prev, recs, err := s.parseIndex(payload)
		if err != nil {
			return nil, fmt.Errorf("index page %d: %w", p, err)
		}
		if prev >= p {
			return nil, fmt.Errorf("%w: index chain not decreasing (%d -> %d)", ErrCorrupt, p, prev)
		}
		segments = append(segments, recs)
		p = prev
	}
	for i := len(segments) - 1; i >= 0; i-- {
		for _, r := range segments[i] {
			ss := s.byID[r.id]
			if ss == nil {
				return nil, fmt.Errorf("%w: index references unknown series %d", ErrCorrupt, r.id)
			}
			if r.e.page >= rootPage {
				return nil, fmt.Errorf("%w: index references page %d beyond commit", ErrCorrupt, r.e.page)
			}
			if ss.hasData && r.e.firstT <= ss.maxT {
				return nil, fmt.Errorf("%w: index entries of %s overlap or are out of time order", ErrCorrupt, ss.name)
			}
			ss.adopt(r.e)
		}
	}

	// Roll forward: committed-but-unindexed pages after the root (a
	// crash between flush and Sync). The first invalid page is the torn
	// tail: it and everything after are dropped.
	recovered := false
	for p := rootPage + 1; p <= maxPages; p++ {
		s.npages = p // let readPage reach it
		payload, err := s.readPage(p)
		if err != nil {
			s.npages = p - 1
			break
		}
		ok, err := s.rollForward(payload, p)
		if err != nil {
			return nil, err
		}
		if !ok {
			s.npages = p - 1
			break
		}
		recovered = true
	}
	if s.npages < rootPage {
		s.npages = rootPage
	}
	// Drop torn bytes so fresh appends start on a clean page boundary.
	if end := headerSize + s.npages*int64(s.pageSize); end < fi.Size() {
		if err := f.Truncate(end); err != nil {
			return nil, err
		}
	}
	if recovered {
		s.dirty = true // next Sync re-indexes the adopted pages
	}
	return s, nil
}

// rollForward adopts one post-root page during recovery. It returns
// false when the page cannot belong to a consistent continuation, at
// which point recovery stops and drops the rest. A CRC-valid page of a
// type this writer never produces (such as the retired type 3) fails
// with ErrCorrupt instead: no crash of this writer leaves one, so the
// file is damaged or foreign, and Open refuses it rather than truncate
// the page away.
func (s *Store) rollForward(payload []byte, page int64) (bool, error) {
	if len(payload) == 0 {
		return false, nil
	}
	switch payload[0] {
	case ptSeries:
		if err := s.adoptDecls(payload); err != nil {
			return false, nil
		}
		s.declPages = append(s.declPages, page)
		return true, nil
	case ptData:
		id, firstT, count, _, err := parseDataHeader(payload)
		if err != nil {
			return false, nil
		}
		ss := s.byID[id]
		if ss == nil || count == 0 {
			return false, nil
		}
		lastT := firstT + float64(count-1)*ss.stepS
		if ss.hasData && firstT <= ss.maxT {
			return false, nil
		}
		ss.adopt(entry{page: page, firstT: firstT, lastT: lastT, count: count})
		return true, nil
	case ptIndex, ptRoot:
		// Aborted-commit artifacts: index segments are only meaningful
		// through the root that commits them. Skip — later data pages
		// are still good.
		return true, nil
	default:
		return false, fmt.Errorf("%w: page %d has unknown type %d", ErrCorrupt, page, payload[0])
	}
}

// adopt appends an index entry that starts after every sample the
// series holds (callers check), keeping entries in time order — the
// order every read scans them in.
func (ss *seriesState) adopt(e entry) {
	ss.entries = append(ss.entries, e)
	ss.maxT = e.lastT
	ss.hasData = true
}

type rootInfo struct {
	gen       uint64
	lastIndex int64
	declPages []int64
}

func parseRoot(payload []byte, page int64) (rootInfo, error) {
	d := pageParser{buf: payload[1:]}
	var r rootInfo
	r.gen = d.uvarint("generation")
	npages := d.uvarint("page count")
	r.lastIndex = int64(d.uvarint("index page"))
	ndecl := d.uvarint("declaration page count")
	if d.err != nil {
		return rootInfo{}, d.err
	}
	if npages != uint64(page) {
		return rootInfo{}, fmt.Errorf("%w: root at page %d claims %d pages", ErrCorrupt, page, npages)
	}
	if r.lastIndex < 0 || r.lastIndex >= page {
		return rootInfo{}, fmt.Errorf("%w: root index pointer %d", ErrCorrupt, r.lastIndex)
	}
	if ndecl > uint64(len(d.buf)) {
		return rootInfo{}, fmt.Errorf("%w: %d declaration pages exceed payload", ErrCorrupt, ndecl)
	}
	for i := uint64(0); i < ndecl; i++ {
		p := int64(d.uvarint("declaration page"))
		if d.err != nil {
			return rootInfo{}, d.err
		}
		if p < 1 || p >= page {
			return rootInfo{}, fmt.Errorf("%w: declaration page %d outside commit", ErrCorrupt, p)
		}
		r.declPages = append(r.declPages, p)
	}
	return r, nil
}

// adoptDecls registers every declaration in a series page.
func (s *Store) adoptDecls(payload []byte) error {
	if len(payload) == 0 || payload[0] != ptSeries {
		return fmt.Errorf("%w: not a series page", ErrCorrupt)
	}
	d := pageParser{buf: payload[1:]}
	n := d.uvarint("declaration count")
	if d.err != nil {
		return d.err
	}
	if n > uint64(len(d.buf)) {
		return fmt.Errorf("%w: %d declarations exceed payload", ErrCorrupt, n)
	}
	for i := uint64(0); i < n; i++ {
		id := d.uvarint("series id")
		kind := ts.Kind(d.u8("series kind"))
		stepS := d.f64("series step")
		nameLen := d.uvarint("name length")
		if d.err != nil {
			return d.err
		}
		if nameLen > MaxNameLen || nameLen > uint64(len(d.buf)) {
			return fmt.Errorf("%w: name length %d", ErrCorrupt, nameLen)
		}
		name := string(d.buf[:nameLen])
		d.buf = d.buf[nameLen:]
		if kind.String() == "unknown" || !(stepS > 0) || math.IsInf(stepS, 0) || name == "" {
			return fmt.Errorf("%w: declaration %q kind=%d step=%g", ErrCorrupt, name, kind, stepS)
		}
		if old, ok := s.byID[id]; ok {
			if old.name != name || old.kind != kind || old.stepS != stepS {
				return fmt.Errorf("%w: series id %d redeclared", ErrCorrupt, id)
			}
			continue
		}
		if _, ok := s.series[name]; ok {
			return fmt.Errorf("%w: series %q declared twice", ErrCorrupt, name)
		}
		ss := &seriesState{id: id, name: name, kind: kind, stepS: stepS, declared: true}
		s.series[name] = ss
		s.byID[id] = ss
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	return nil
}

type entryRec struct {
	id uint64
	e  entry
}

// parseIndex decodes one index segment page.
func (s *Store) parseIndex(payload []byte) (prev int64, recs []entryRec, err error) {
	if len(payload) == 0 || payload[0] != ptIndex {
		return 0, nil, fmt.Errorf("%w: not an index page", ErrCorrupt)
	}
	d := pageParser{buf: payload[1:]}
	prev = int64(d.uvarint("previous index page"))
	n := d.uvarint("entry count")
	if d.err != nil {
		return 0, nil, d.err
	}
	if n > uint64(len(d.buf)) {
		return 0, nil, fmt.Errorf("%w: %d index entries exceed payload", ErrCorrupt, n)
	}
	recs = make([]entryRec, 0, n)
	for i := uint64(0); i < n; i++ {
		var r entryRec
		r.id = d.uvarint("entry series id")
		r.e.page = int64(d.uvarint("entry page"))
		level := d.u8("entry level")
		r.e.firstT = d.f64("entry firstT")
		r.e.lastT = d.f64("entry lastT")
		r.e.count = d.uvarint("entry count")
		if d.err != nil {
			return 0, nil, d.err
		}
		if level != 0 {
			return 0, nil, fmt.Errorf("%w: index entry %d has level %d (only raw pages exist)", ErrCorrupt, i, level)
		}
		if r.e.count == 0 || r.e.page < 1 ||
			math.IsNaN(r.e.firstT) || math.IsNaN(r.e.lastT) || r.e.firstT > r.e.lastT {
			return 0, nil, fmt.Errorf("%w: index entry %d malformed", ErrCorrupt, i)
		}
		recs = append(recs, r)
	}
	return prev, recs, nil
}

// parseDataHeader decodes a data page's header and returns the sample
// run after it (see decodeRun) undecoded.
func parseDataHeader(payload []byte) (id uint64, firstT float64, count uint64, body []byte, err error) {
	if len(payload) == 0 || payload[0] != ptData {
		return 0, 0, 0, nil, fmt.Errorf("%w: not a data page", ErrCorrupt)
	}
	d := pageParser{buf: payload[1:]}
	id = d.uvarint("series id")
	firstT = d.f64("firstT")
	count = d.uvarint("sample count")
	if d.err != nil {
		return 0, 0, 0, nil, d.err
	}
	if count == 0 || math.IsNaN(firstT) || math.IsInf(firstT, 0) {
		return 0, 0, 0, nil, fmt.Errorf("%w: data header count=%d firstT=%g", ErrCorrupt, count, firstT)
	}
	// A sample costs ≥1 byte beyond the first's fixed 8: bound before
	// anyone sizes a buffer from count.
	if count-1 > uint64(len(d.buf)) {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d samples exceed page payload", ErrCorrupt, count)
	}
	return id, firstT, count, d.buf, nil
}

// pageParser is the bounded in-page decoder: every read validates
// remaining bytes first, so corrupt input errors instead of panicking
// or over-allocating.
type pageParser struct {
	buf []byte
	err error
}

func (d *pageParser) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *pageParser) u8(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *pageParser) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}
