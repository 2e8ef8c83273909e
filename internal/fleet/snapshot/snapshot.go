// Package snapshot is the versioned on-disk checkpoint format for a
// fleet (.sdbsnap): what `serve -checkpoint` writes at tick barriers
// and `fleet.Restore` resumes from.
//
// Layout (all integers little-endian, varints are unsigned LEB128 as
// in encoding/binary):
//
//	magic      "SDBSNAP"           7 bytes
//	version    u8                  currently 3 (Version)
//	fleetSteps uvarint             device-steps executed fleet-wide
//	ndev       uvarint
//	device × ndev:
//	  id       u16
//	  flags    u8                  1 quarantined, 2 errored, 4 has state
//	  [reason  str]                if quarantined
//	  [errmsg  str]                if errored
//	  [machine]                    if has state — see device()
//	crc        u16                 CRC-16/CCITT-FALSE over all prior bytes
//
// The machine block nests the full emulator.MachineState: step cursor,
// result accumulators, the trace hash, recorded series (f64 arrays
// XOR-delta encoded like the telemetry store's data pages — consecutive
// samples share high bits so the varints stay short and decode
// bit-exactly), firmware registers and cell states, fuel-gauge
// estimators, optional runtime health-ladder state, and the
// fault-schedule position. A quarantined device carries no machine
// block: its stepping goroutine died mid-step, its firmware mutex may
// be held forever, and its state is by definition suspect.
//
// Strings use uvarint length + bytes, bounded by MaxStrLen. The CRC
// trailer reuses the bus frame polynomial, so one checksum
// implementation guards wire, telemetry stores, and checkpoints alike.
//
// A checkpoint file is a journal: one full record as above (the base),
// then zero or more delta records, each appended by a later checkpoint
// of the same fleet:
//
//	magic      "SDBSNAP"           7 bytes
//	version    u8                  4 (DeltaVersion)
//	bodyLen    u64
//	hdrCRC     u16                 CRC-16 over the 16 header bytes above
//	body       bodyLen bytes       a full record's body, except that each
//	                               machine block carries a uvarint from
//	                               before its series, and every series
//	                               holds only samples [from, len)
//	bodyCRC    u16                 CRC-16 over the body
//
// A delta lists every device, with all of its state but the series
// samples the journal already holds, so decoding folds the records into
// the snapshot a full encode at the last one would decode to. A crash
// mid-append leaves a prefix of a delta record — a tail shorter than
// the header that starts like one, or a valid header whose record runs
// past the end of the file — and decoding ignores such a torn tail.
// Anything else that fails to parse is ErrCorrupt.
//
// Versions 1 and 2 were the base and delta records of the format before
// the machine block carried the trace hash, when every series held the
// trace's time and load columns too. A file that starts with either, or
// with any other version, is refused with ErrVersion: restore it with
// the build that wrote it.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"sdb/internal/bus"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/firmware"
)

// Magic starts every checkpoint file.
const Magic = "SDBSNAP"

// Version is the format of a full (base) record.
const Version = 3

// DeltaVersion is the version byte of a delta record.
const DeltaVersion = 4

// deltaTag starts every delta record: magic and version.
const deltaTag = Magic + string(rune(DeltaVersion))

// deltaHeaderSize is a delta record's fixed header: magic, version,
// u64 body length, header CRC.
const deltaHeaderSize = len(deltaTag) + 8 + 2

// MaxStrLen bounds every embedded string (quarantine reasons, error
// messages, profile names) on read, against corrupt length prefixes.
const MaxStrLen = 4096

// MaxCells bounds the per-device cell count on read. The largest packs
// the stack builds are a few cells; 256 is generous without letting a
// corrupt count size huge allocations.
const MaxCells = 256

// ErrCorrupt wraps every structural decode failure.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion wraps the refusal of a file whose base record has a
// version this build does not read.
var ErrVersion = errors.New("snapshot: unsupported version")

// Device is one fleet device's entry in a snapshot.
type Device struct {
	ID uint16
	// Quarantined devices carry the supervisor's reason instead of
	// machine state.
	Quarantined      bool
	QuarantineReason string
	// ErrMsg preserves a device's terminal step error ("" when none).
	ErrMsg string
	// State is nil for quarantined devices.
	State *emulator.MachineState
}

// Snapshot is a whole-fleet checkpoint.
type Snapshot struct {
	FleetSteps uint64
	Devices    []Device
}

// Encode serializes the snapshot. Deterministic: equal input produces
// equal bytes, whatever the worker count. Device blocks are encoded on
// runtime.GOMAXPROCS(0) workers and streamed to w in id order through a
// bounded window of reusable block buffers, each block's CRC chained in
// as it goes out, so no buffer the size of the file is ever held.
// On error w may already have received a prefix of the stream.
func Encode(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriterSize(w, flushSize)
	var e encoder
	e.buf = append(e.buf, Magic...)
	e.u8(Version)
	e.uvarint(s.FleetSteps)
	e.uvarint(uint64(len(s.Devices)))
	crc := bus.CRC16(e.buf)
	if _, err := bw.Write(e.buf); err != nil {
		return err
	}
	crc, err := encodeDevices(func(b []byte) error {
		_, err := bw.Write(b)
		return err
	}, crc, s.Devices, nil, encodeWorkers())
	if err != nil {
		return err
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint16(e.buf[:0], crc)); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteDelta writes a delta record of s to w. from[i] is how many
// samples of each of device i's series the journal already holds (0 for
// a device added since the last record; ignored for a tombstone), so
// the record carries only the samples after them. Every series of a
// device with state must have the same length, at least from[i], and
// the device ids must ascend, as they do in a Fleet's snapshots. A
// sizing pass over the new samples fixes the body length the header
// declares; the body then streams like Encode's, so no buffer the size
// of the record is held. Halfway through the body the fleet.checkpoint
// kill point is passed with the first half flushed to w, so crash tests
// can tear a record deterministically. On error w may already have
// received a prefix of the record.
func WriteDelta(w io.Writer, s *Snapshot, from []int) error {
	if len(from) != len(s.Devices) {
		return fmt.Errorf("snapshot: %d series offsets for %d devices", len(from), len(s.Devices))
	}
	for i := 1; i < len(s.Devices); i++ {
		if s.Devices[i].ID <= s.Devices[i-1].ID {
			return fmt.Errorf("snapshot: device id %d follows %d", s.Devices[i].ID, s.Devices[i-1].ID)
		}
	}
	var e encoder
	e.uvarint(s.FleetSteps)
	e.uvarint(uint64(len(s.Devices)))
	size, err := deltaSize(s.Devices, from, encodeWorkers())
	if err != nil {
		return err
	}
	size += len(e.buf)
	hdr := binary.LittleEndian.AppendUint64([]byte(deltaTag), uint64(size))
	hdr = binary.LittleEndian.AppendUint16(hdr, bus.CRC16(hdr))
	bw := bufio.NewWriterSize(w, flushSize)
	if _, err := bw.Write(append(hdr, e.buf...)); err != nil {
		return err
	}
	n := len(e.buf)
	crc, err := encodeDevices(func(b []byte) error {
		if n < size/2 && n+len(b) >= size/2 {
			if err := bw.Flush(); err != nil {
				return err
			}
			faults.MaybeKill("fleet.checkpoint")
		}
		n += len(b)
		_, err := bw.Write(b)
		return err
	}, bus.CRC16(e.buf), s.Devices, from, encodeWorkers())
	if err != nil {
		return err
	}
	if n != size {
		return fmt.Errorf("snapshot: delta body is %d bytes, sized at %d", n, size)
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint16(e.buf[:0], crc)); err != nil {
		return err
	}
	return bw.Flush()
}

// deltaSize returns the total size of devs' delta blocks, measured on
// up to workers goroutines without encoding a series sample.
func deltaSize(devs []Device, from []int, workers int) (int, error) {
	workers = max(1, min(workers, len(devs)))
	sizes := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			c := codec{dir: sizing, delta: true}
			for i := w; i < len(devs) && errs[w] == nil; i += workers {
				c.from = from[i]
				errs[w] = c.device(&devs[i])
			}
			sizes[w] = c.n
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range sizes {
		total += n
	}
	return total, errors.Join(errs...)
}

// flushSize batches small device blocks into fewer writes; a block
// larger than it goes to the underlying writer directly.
const flushSize = 64 << 10

// encodeWorkers sizes Encode's worker pool. Tests override it to show
// the output does not depend on the worker count.
var encodeWorkers = func() int { return runtime.GOMAXPROCS(0) }

// encodeDevices encodes devs on up to workers goroutines and hands the
// blocks to emit in order, returning crc advanced over them. Each worker
// checksums its own block from a zero register, and the emitting
// goroutine chains the block CRCs with CRC16Combine, so it never reads
// a block byte. Device i encodes into window slot i%window; the job for
// device i+window is only handed out once block i has been emitted, so
// each slot has at most one job in flight and reuses its buffer for the
// whole call: emit must not keep a block. A nil from encodes full
// blocks; otherwise device i's block is a delta block from sample
// from[i].
func encodeDevices(emit func([]byte) error, crc uint16, devs []Device, from []int, workers int) (uint16, error) {
	workers = min(workers, len(devs))
	if workers < 1 {
		return crc, nil
	}
	type block struct {
		buf   []byte
		crc   uint16
		err   error
		ready chan struct{}
	}
	window := 2 * workers
	blocks := make([]block, window)
	for i := range blocks {
		blocks[i].ready = make(chan struct{}, 1)
	}
	// At most window jobs are ever outstanding, so sends never block.
	jobs := make(chan int, window)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range jobs {
				b := &blocks[i%window]
				c := codec{buf: b.buf[:0], delta: from != nil}
				if from != nil {
					c.from = from[i]
				}
				b.err = c.device(&devs[i])
				b.buf = c.buf
				b.crc = bus.CRC16Update(0, c.buf)
				b.ready <- struct{}{}
			}
		}()
	}
	next := 0
	for ; next < window && next < len(devs); next++ {
		jobs <- next
	}
	var err error
	for i := range devs {
		b := &blocks[i%window]
		<-b.ready
		if err = b.err; err == nil {
			crc = bus.CRC16Combine(crc, b.crc, len(b.buf))
			err = emit(b.buf)
		}
		if err != nil {
			break
		}
		if next < len(devs) {
			jobs <- next
			next++
		}
	}
	close(jobs)
	wg.Wait()
	return crc, err
}

// WriteFileAtomic writes the snapshot to path via a temp file in the
// same directory plus rename, so a crash mid-write leaves the previous
// checkpoint intact and a reader never observes a torn file. Returns
// the encoded size.
func WriteFileAtomic(path string, s *Snapshot) (int64, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := Encode(f, s); err != nil {
		return fail(err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}

// Read decodes a whole checkpoint stream. Like Decode, it never panics
// on corrupt input and never allocates more than the input's size can
// justify.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ReadFile decodes the checkpoint at path.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode decodes an in-memory checkpoint: the base record folded with
// every complete delta record after it. Every length field is validated
// against the bytes actually remaining before any buffer is sized from
// it.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+1+2 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	switch v := data[len(Magic)]; v {
	case Version:
	case DeltaVersion:
		return nil, fmt.Errorf("%w: journal starts with a delta record", ErrCorrupt)
	default:
		return nil, fmt.Errorf("%w %d (want %d)", ErrVersion, v, Version)
	}
	// The base record has no length field: its body ends where parsing
	// it ends, and its CRC follows.
	d := codec{dir: decoding, buf: data[len(Magic)+1:]}
	s, err := d.record()
	if err != nil {
		return nil, err
	}
	end := len(data) - len(d.buf)
	if len(d.buf) < 2 {
		return nil, fmt.Errorf("%w: truncated crc", ErrCorrupt)
	}
	if got, want := binary.LittleEndian.Uint16(d.buf), bus.CRC16(data[:end]); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %#04x want %#04x)", ErrCorrupt, got, want)
	}
	for rest := d.buf[2:]; len(rest) > 0; {
		body, ok, err := deltaBody(rest)
		if err == nil && ok {
			s, err = fold(s, body)
		}
		if err != nil {
			return nil, fmt.Errorf("delta at offset %d: %w", len(data)-len(rest), err)
		}
		if !ok {
			break // a torn tail: the append that wrote it never finished
		}
		rest = rest[deltaHeaderSize+len(body)+2:]
	}
	return s, nil
}

// deltaBody checks the delta record at the start of rest and returns
// its body, with ok false when rest is a torn prefix of a record: a
// header cut short, or a valid header whose record runs past the end.
func deltaBody(rest []byte) (body []byte, ok bool, err error) {
	if len(rest) < deltaHeaderSize {
		if n := min(len(rest), len(deltaTag)); string(rest[:n]) != deltaTag[:n] {
			return nil, false, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
		}
		return nil, false, nil
	}
	h := rest[:deltaHeaderSize]
	if string(h[:len(deltaTag)]) != deltaTag ||
		binary.LittleEndian.Uint16(h[deltaHeaderSize-2:]) != bus.CRC16(h[:deltaHeaderSize-2]) {
		return nil, false, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(h[len(deltaTag):])
	if avail := uint64(len(rest) - deltaHeaderSize); avail < 2 || n > avail-2 {
		return nil, false, nil
	}
	end := deltaHeaderSize + int(n)
	body = rest[deltaHeaderSize:end]
	if got, want := binary.LittleEndian.Uint16(rest[end:]), bus.CRC16(body); got != want {
		return nil, false, fmt.Errorf("%w: crc mismatch (got %#04x want %#04x)", ErrCorrupt, got, want)
	}
	return body, true, nil
}

// fold decodes a delta body over s, the state at the record before it.
func fold(s *Snapshot, body []byte) (*Snapshot, error) {
	d := codec{dir: decoding, buf: body, delta: true, prev: make(map[uint16]*emulator.MachineState, len(s.Devices))}
	for i := range s.Devices {
		if st := s.Devices[i].State; st != nil {
			d.prev[s.Devices[i].ID] = st
		}
	}
	next, err := d.record()
	if err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return next, nil
}

// record decodes a record body: fleet steps, then the devices. In a
// delta body the device ids must ascend, so each names one device.
func (c *codec) record() (*Snapshot, error) {
	s := &Snapshot{}
	c.uvarint(&s.FleetSteps, "fleet steps")
	// A device entry costs at least 3 bytes (id and flags).
	n := 0
	if !c.count(&n, 3, "device count") {
		return nil, c.err
	}
	s.Devices = make([]Device, n)
	for i := range s.Devices {
		if err := c.device(&s.Devices[i]); err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		if c.delta && i > 0 && s.Devices[i].ID <= s.Devices[i-1].ID {
			return nil, fmt.Errorf("%w: device %d: id %d out of order", ErrCorrupt, i, s.Devices[i].ID)
		}
	}
	return s, nil
}

// Device entry flags.
const (
	flagQuarantined = 1 << iota
	flagErrored
	flagState
)

// dir is the direction a codec walks in.
type dir uint8

const (
	encoding dir = iota // append each field to buf
	decoding            // read each field from buf
	sizing              // count each field's encoded bytes in n
)

// codec walks the state types' fields in one direction. Each walk below
// (device, machine, controller, runtime) lists its type's fields once,
// in wire order, and each primitive moves one field between its Go
// value and its bytes, so encode, decode and WriteDelta's size pass
// share one field list and one set of validation rules: a state the
// encoder accepts is one the decoder accepts. Primitives take the
// field's address and a what that names it in decode errors; encoding
// and sizing ignore it. After the first failure decoding reads nothing
// more, and the other directions' output is discarded.
type codec struct {
	dir dir
	buf []byte // encoding: the output; decoding: the unread input
	n   int    // sizing: the bytes counted
	err error
	// delta is set for a delta record's device blocks. Encoding and
	// sizing, from is the block's series offset; decoding, prev holds by
	// device id the state of every device with state in the record
	// before.
	delta bool
	from  int
	prev  map[uint16]*emulator.MachineState
}

// encoder is an encoding codec that also writes a record's header
// fields, which no walk covers.
type encoder struct{ codec }

func (e *encoder) u8(v byte) { e.buf = append(e.buf, v) }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// fail records the walk's first error: ErrCorrupt when decoding.
func (c *codec) fail(format string, args ...any) {
	if c.err != nil {
		return
	}
	if err := fmt.Errorf(format, args...); c.dir == decoding {
		c.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	} else {
		c.err = fmt.Errorf("snapshot: %w", err)
	}
}

// fixed walks the low size bytes of *v, little-endian.
func (c *codec) fixed(v *uint64, size int, what string) {
	switch c.dir {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)[:len(c.buf)+size]
	case sizing:
		c.n += size
	default:
		if c.err == nil && len(c.buf) < size {
			c.fail("truncated %s", what)
		}
		if c.err == nil {
			var b [8]byte
			c.buf = c.buf[copy(b[:], c.buf[:size]):]
			*v = binary.LittleEndian.Uint64(b[:])
		}
	}
}

func (c *codec) u8(v *byte, what string) {
	x := uint64(*v)
	if c.fixed(&x, 1, what); c.dir == decoding {
		*v = byte(x)
	}
}

func (c *codec) u16(v *uint16, what string) {
	x := uint64(*v)
	if c.fixed(&x, 2, what); c.dir == decoding {
		*v = uint16(x)
	}
}

func (c *codec) f64(v *float64, what string) {
	x := math.Float64bits(*v)
	if c.fixed(&x, 8, what); c.dir == decoding {
		*v = math.Float64frombits(x)
	}
}

func (c *codec) uvarint(v *uint64, what string) {
	switch c.dir {
	case encoding:
		c.buf = binary.AppendUvarint(c.buf, *v)
	case sizing:
		c.n += uvarintLen(*v)
	default:
		if c.err != nil {
			return
		}
		x, k := binary.Uvarint(c.buf)
		if k <= 0 {
			c.fail("bad %s varint", what)
			return
		}
		c.buf = c.buf[k:]
		*v = x
	}
}

// uvarintLen is how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (c *codec) boolean(v *bool, what string) {
	var b byte
	if *v {
		b = 1
	}
	c.u8(&b, what)
	if b > 1 {
		c.fail("%s flag %d", what, b)
	} else if c.dir == decoding {
		*v = b == 1
	}
}

// str walks a uvarint length, then the bytes, bounded by MaxStrLen.
func (c *codec) str(s *string, what string) {
	if len(*s) > MaxStrLen {
		c.fail("string %q... exceeds %d bytes", (*s)[:32], MaxStrLen)
		return
	}
	n := uint64(len(*s))
	c.uvarint(&n, what)
	switch {
	case c.err != nil:
	case c.dir == encoding:
		c.buf = append(c.buf, *s...)
	case c.dir == sizing:
		c.n += len(*s)
	case n > MaxStrLen || n > uint64(len(c.buf)):
		c.fail("%s length %d", what, n)
	default:
		*s, c.buf = string(c.buf[:n]), c.buf[n:]
	}
}

// nonneg walks a count or counter as a uvarint: it must not be
// negative, and a decoded one must fit T.
func nonneg[T int | int64](c *codec, v *T, what string) {
	if *v < 0 {
		c.fail("negative %s %d", what, *v)
	}
	u := uint64(*v)
	c.uvarint(&u, what)
	if c.dir == decoding && c.err == nil {
		if T(u) < 0 {
			c.fail("%s %d overflows", what, u)
			return
		}
		*v = T(u)
	}
}

// index walks a cell index, which must be below n.
func (c *codec) index(v *int, n int, what string) {
	nonneg(c, v, what)
	if c.err == nil && *v >= n {
		c.fail("%s %d outside %d cells", what, *v, n)
	}
}

func (c *codec) health(h *core.Health, what string) {
	b := byte(*h)
	c.u8(&b, what)
	if c.dir == decoding && c.err == nil {
		*h = core.Health(b)
	}
	if *h < core.Healthy || *h > core.Failed {
		c.fail("%s %d out of range", what, int(*h))
	}
}

// count walks a length that sizes a decoding allocation or loop,
// rejecting one no well-formed remainder could satisfy: each element
// costs at least per bytes. It reports whether the walk still stands.
func (c *codec) count(v *int, per int, what string) bool {
	if nonneg(c, v, what); c.dir == decoding && c.err == nil && *v > len(c.buf)/per+1 {
		c.fail("%s %d exceeds input", what, *v)
	}
	return c.err == nil
}

// series walks samples [from, len) of *vs: their count, then the first
// sample's raw bits when from is 0, then each sample's bits XORed with
// the one before as a uvarint (the telemetry store's data-page value
// encoding: consecutive samples share high bits, so the varints stay
// short and decode bit-exactly). Decoding, *vs holds the from samples
// the journal already decoded, and the new ones are appended to them.
func (c *codec) series(vs *[]float64, from int, what string) {
	count := len(*vs) - from
	if !c.count(&count, 1, what) {
		return
	}
	switch c.dir {
	case sizing:
		c.n += samplesSize(*vs, from)
	case encoding:
		buf, s := c.buf, (*vs)[from:]
		var prev uint64
		if from > 0 {
			prev = math.Float64bits((*vs)[from-1])
		} else if len(s) > 0 {
			prev = math.Float64bits(s[0])
			buf, s = binary.LittleEndian.AppendUint64(buf, prev), s[1:]
		}
		for _, v := range s {
			b := math.Float64bits(v)
			buf = binary.AppendUvarint(buf, prev^b)
			prev = b
		}
		c.buf = buf
	default:
		if count == 0 {
			return
		}
		out := append(*vs, make([]float64, count)...)
		i := from
		if i == 0 {
			c.f64(&out[0], what)
			i = 1
		}
		prev := math.Float64bits(out[i-1])
		for ; i < len(out) && c.err == nil; i++ {
			x, k := binary.Uvarint(c.buf)
			if k <= 0 {
				c.fail("bad %s delta varint", what)
				return
			}
			c.buf = c.buf[k:]
			prev ^= x
			out[i] = math.Float64frombits(prev)
		}
		if c.err == nil {
			*vs = out
		}
	}
}

// samplesSize is how many bytes series writes for samples [from, len)
// of vs after their count.
func samplesSize(vs []float64, from int) int {
	if from == len(vs) {
		return 0
	}
	n := 0
	if from == 0 {
		n, from = 8, 1
	}
	prev := math.Float64bits(vs[from-1])
	for _, v := range vs[from:] {
		b := math.Float64bits(v)
		n += uvarintLen(prev ^ b)
		prev = b
	}
	return n
}

// optSeries walks a presence flag, then the series from 0 if present.
func (c *codec) optSeries(vs *[]float64, what string) {
	has := *vs != nil
	if c.boolean(&has, what); has {
		c.series(vs, 0, what)
	}
}

// alloc returns *p, first allocating it when decoding.
func alloc[T any](c *codec, p **T) *T {
	if c.dir == decoding {
		*p = new(T)
	}
	return *p
}

// present walks whether *p is set and returns it, allocated when
// decoding one that is; nil when it is absent or the walk failed.
func present[T any](c *codec, p **T, what string) *T {
	has := *p != nil
	if c.boolean(&has, what); !has || c.err != nil {
		return nil
	}
	return alloc(c, p)
}

// cells walks nothing, but checks a per-cell array holds n elements:
// decoding, *s becomes n elements long, keeping any it held. It returns
// the array, nil once the walk has failed.
func cells[T any](c *codec, s *[]T, n int, what string) []T {
	switch {
	case c.err != nil:
		// n may be the unchecked count that failed the walk.
		return nil
	case c.dir == decoding:
		fresh := make([]T, n)
		copy(fresh, *s)
		*s = fresh
	case len(*s) != n:
		c.fail("%d %s entries for %d cells", len(*s), what, n)
		return nil
	}
	return *s
}

// f64s walks a per-cell float64 array.
func (c *codec) f64s(s *[]float64, n int, what string) {
	vs := cells(c, s, n, what)
	for i := range vs {
		c.f64(&vs[i], what)
	}
}

// list walks a slice's length, each element costing at least per bytes,
// and returns the slice: decoding, one that long, or nil when empty
// (exports use the nil convention for empty slices, and DeepEqual round
// trips depend on it).
func list[T any](c *codec, s *[]T, per int, what string) []T {
	n := len(*s)
	if !c.count(&n, per, what) {
		return nil
	}
	if c.dir == decoding && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// device walks one device entry: id, flags, the quarantine reason and
// error message when flagged, and the machine block when it has state.
// A quarantined device carries no state.
func (c *codec) device(dev *Device) error {
	c.u16(&dev.ID, "device id")
	var flags byte
	for bit, on := range [...]bool{dev.Quarantined, dev.ErrMsg != "", dev.State != nil} {
		if on {
			flags |= 1 << bit // in the flag constants' order
		}
	}
	c.u8(&flags, "device flags")
	switch {
	case c.err != nil:
	case flags&^(flagQuarantined|flagErrored|flagState) != 0:
		c.fail("unknown device flags %#02x", flags)
	case flags&flagQuarantined != 0 && flags&flagState != 0:
		c.fail("quarantined device carries state")
	case flags&flagQuarantined != 0:
		if c.dir == decoding {
			dev.Quarantined = true
		}
		c.str(&dev.QuarantineReason, "quarantine reason")
	}
	if c.err == nil && flags&flagErrored != 0 {
		if c.str(&dev.ErrMsg, "error message"); dev.ErrMsg == "" {
			c.fail("errored device with empty message")
		}
	}
	if c.err == nil && flags&flagState != 0 {
		c.machine(alloc(c, &dev.State), c.prev[dev.ID])
	}
	if c.err != nil && c.dir != decoding {
		return fmt.Errorf("device %d: %w", dev.ID, c.err)
	}
	return c.err
}

// machine walks a machine block: step cursor, result accumulators, the
// per-cell drain times, the trace hash, the recorded series, the
// firmware, the optional runtime and the fault-schedule position. In a
// delta block a series offset precedes the series; decoding, prev is
// the device's state in the record before (nil if it had none).
func (c *codec) machine(m, prev *emulator.MachineState) {
	nonneg(c, &m.K, "step cursor")
	c.boolean(&m.Done, "done")
	c.f64(&m.ExternalJ, "externalJ")
	c.f64(&m.StartE, "startE")
	nonneg(c, &m.Steps, "steps")
	nonneg(c, &m.BrownoutSteps, "brownout steps")
	c.f64(&m.DeliveredJ, "deliveredJ")
	c.f64(&m.CircuitLossJ, "circuitLossJ")
	c.f64(&m.BatteryLossJ, "batteryLossJ")
	c.f64(&m.ChargedJ, "chargedJ")
	c.f64(&m.DrainedAtS, "drainedAtS")
	c.f64(&m.ElapsedS, "elapsedS")
	n := len(m.Controller.Cells)
	if c.count(&n, 8, "cell count") && n > MaxCells {
		c.fail("cell count %d exceeds %d", n, MaxCells)
	}
	c.f64s(&m.CellDrainedAtS, n, "cell drain time")
	c.fixed(&m.TraceHash, 8, "trace hash")
	if c.err != nil {
		return
	}
	s := alloc(c, &m.Series)
	if s == nil {
		c.fail("machine state has no series")
		return
	}
	from := c.from
	if c.delta {
		c.offset(&from, s, prev, n)
	}
	soc := cells(c, &s.SoC, n, "series SoC")
	c.series(&s.DeliveredW, from, "series DeliveredW")
	c.series(&s.CircuitLossW, from, "series CircuitLossW")
	c.series(&s.BatteryLossW, from, "series BatteryLossW")
	for i := range soc {
		c.series(&soc[i], from, "series SoC")
	}
	c.controller(&m.Controller, n)
	if r := present(c, &m.Runtime, "runtime presence"); r != nil {
		c.runtime(r)
	}
	if c.boolean(&m.HasFaults, "fault presence"); m.HasFaults {
		nonneg(c, &m.FaultsFired, "fired faults")
		c.f64(&m.FaultsRemovedJ, "fault removedJ")
	}
}

// offset walks a delta block's series offset: how many samples of each
// series the journal already holds, at most all of them. Decoding, a
// nonzero offset must continue prev, whose series become s's base.
func (c *codec) offset(from *int, s *emulator.Series, prev *emulator.MachineState, n int) {
	if l := s.Len(); c.dir != decoding && l < 0 {
		c.fail("series arrays differ in length")
	} else if c.dir != decoding && (*from < 0 || *from > l) {
		c.fail("series offset %d outside %d samples", *from, l)
	}
	u := uint64(*from)
	if c.uvarint(&u, "series offset"); c.dir != decoding || c.err != nil || u == 0 {
		return
	}
	if prev == nil || u > math.MaxInt || len(prev.Series.SoC) != n || prev.Series.Len() != int(u) {
		c.fail("series offset %d does not continue the previous record", u)
		return
	}
	*s, *from = *prev.Series, int(u)
}

// controller walks the firmware of an n-cell pack: per-cell registers
// and fuel gauges, the split and profile selection, open switches, any
// transfer in flight, and the watchdog and step counters.
func (c *codec) controller(ctl *firmware.ControllerState, n int) {
	cs := cells(c, &ctl.Cells, n, "cell")
	for i := range cs {
		x := &cs[i]
		c.f64(&x.SoC, "cell SoC")
		c.f64(&x.VRC, "cell VRC")
		c.f64(&x.Capacity, "cell capacity")
		c.f64(&x.R0Mult, "cell R0Mult")
		c.f64(&x.TempC, "cell TempC")
		c.f64(&x.AmbientC, "cell AmbientC")
		c.f64(&x.TempSum, "cell TempSum")
		c.f64(&x.TempTime, "cell TempTime")
		c.f64(&x.Cycles, "cell cycles")
		c.f64(&x.CumCharge, "cell CumCharge")
		c.f64(&x.ChgRateSum, "cell ChgRateSum")
		c.f64(&x.ChgCharge, "cell ChgCharge")
		c.f64(&x.DisRateSum, "cell DisRateSum")
		c.f64(&x.DisCharge, "cell DisCharge")
		c.f64(&x.TotalIn, "cell TotalIn")
		c.f64(&x.TotalOut, "cell TotalOut")
		c.f64(&x.TotalLoss, "cell TotalLoss")
	}
	gs := cells(c, &ctl.Gauges, n, "gauge")
	for i := range gs {
		g := &gs[i]
		c.f64(&g.EstSoC, "gauge EstSoC")
		c.f64(&g.EstCapC, "gauge EstCapC")
		c.f64(&g.RestFor, "gauge RestFor")
		c.f64(&g.CumCharge, "gauge CumCharge")
		c.f64(&g.LastI, "gauge LastI")
		c.f64(&g.LastV, "gauge LastV")
		nonneg(c, &g.Cycles, "gauge cycles")
	}
	c.f64s(&ctl.DischargeRatios, n, "discharge ratio")
	c.f64s(&ctl.ChargeRatios, n, "charge ratio")
	names := cells(c, &ctl.ProfileSel, n, "profile name")
	for i := range names {
		c.str(&names[i], "profile name")
	}
	open := cells(c, &ctl.Open, n, "open flag")
	for i := range open {
		c.boolean(&open[i], "open flag")
	}
	if x := present(c, &ctl.Transfer, "transfer presence"); x != nil {
		c.index(&x.From, n, "transfer from")
		c.index(&x.To, n, "transfer to")
		c.f64(&x.PowerW, "transfer power")
		c.f64(&x.RemainingS, "transfer remaining")
	}
	c.f64(&ctl.SinceCmdS, "sinceCmdS")
	nonneg(c, &ctl.WatchdogFires, "watchdog fires")
	c.f64(&ctl.SimTimeS, "firmware simTimeS")
	c.boolean(&ctl.LastBrownout, "lastBrownout")
	nonneg(c, &ctl.Steps, "firmware steps")
}

// runtime walks the OS runtime's health ladder.
func (c *codec) runtime(r *core.State) {
	c.health(&r.Health, "health")
	nonneg(c, &r.ConsecFails, "consecutive failures")
	nonneg(c, &r.TotalFails, "total failures")
	nonneg(c, &r.EventSeq, "event seq")
	c.f64(&r.ChgDir, "charge directive")
	c.f64(&r.DisDir, "discharge directive")
	c.f64(&r.SimTimeS, "runtime simTimeS")
	c.optSeries(&r.LastDis, "lastDis")
	c.optSeries(&r.LastChg, "lastChg")
	c.str(&r.LastErr, "last error")
	log := list(c, &r.HealthLog, 5, "health log length")
	for i := range log {
		ev := &log[i]
		nonneg(c, &ev.Seq, "event seq")
		c.health(&ev.From, "event from")
		c.health(&ev.To, "event to")
		nonneg(c, &ev.Failures, "event failures")
		c.str(&ev.Reason, "event reason")
	}
}
