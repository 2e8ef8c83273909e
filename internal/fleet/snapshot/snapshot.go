// Package snapshot is the versioned on-disk checkpoint format for a
// fleet (.sdbsnap): what `serve -checkpoint` writes at tick barriers
// and `fleet.Restore` resumes from.
//
// Layout (all integers little-endian, varints are unsigned LEB128 as
// in encoding/binary):
//
//	magic      "SDBSNAP"           7 bytes
//	version    u8                  currently 1
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
// result accumulators, recorded series (f64 arrays XOR-delta encoded
// like the telemetry store's data pages — consecutive samples share
// high bits so the varints stay short and decode bit-exactly),
// firmware registers and cell states, fuel-gauge estimators, optional
// runtime health-ladder state, and the fault-schedule position. A
// quarantined device carries no machine block: its stepping goroutine
// died mid-step, its firmware mutex may be held forever, and its state
// is by definition suspect.
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
//	version    u8                  2 (DeltaVersion)
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

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/fuelgauge"
	"sdb/internal/pmic"
)

// Magic starts every checkpoint file.
const Magic = "SDBSNAP"

// Version is the format of a full (base) record.
const Version = 1

// DeltaVersion is the version byte of a delta record.
const DeltaVersion = 2

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
			var e encoder
			for i := w; i < len(devs); i += workers {
				e = encoder{buf: e.buf[:0], delta: true, from: from[i], sizeOnly: true}
				if errs[w] = e.device(&devs[i]); errs[w] != nil {
					return
				}
				sizes[w] += len(e.buf) + e.skipped
			}
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
				e := encoder{buf: b.buf[:0], delta: from != nil}
				if from != nil {
					e.from = from[i]
				}
				b.err = e.device(&devs[i])
				b.buf = e.buf
				b.crc = bus.CRC16Update(0, e.buf)
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
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	// The base record has no length field: its body ends where parsing
	// it ends, and its CRC follows.
	d := decoder{buf: data[len(Magic)+1:]}
	s, err := d.snapshot()
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
	d := decoder{buf: body, delta: true, prev: make(map[uint16]*emulator.MachineState, len(s.Devices))}
	for i := range s.Devices {
		if st := s.Devices[i].State; st != nil {
			d.prev[s.Devices[i].ID] = st
		}
	}
	next, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return next, nil
}

// snapshot decodes a record body: fleet steps, then the devices. In a
// delta body the device ids must ascend, so each names one device.
func (d *decoder) snapshot() (*Snapshot, error) {
	s := &Snapshot{FleetSteps: d.uvarint("fleet steps")}
	ndev := d.uvarint("device count")
	// A device entry costs ≥3 bytes (id + flags): cheap cap before
	// sizing the slice.
	if ndev > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: device count %d exceeds input", ErrCorrupt, ndev)
	}
	if d.err != nil {
		return nil, d.err
	}
	s.Devices = make([]Device, 0, ndev)
	for i := uint64(0); i < ndev; i++ {
		dev, err := d.device()
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		if d.delta && i > 0 && dev.ID <= s.Devices[i-1].ID {
			return nil, fmt.Errorf("%w: device %d: id %d out of order", ErrCorrupt, i, dev.ID)
		}
		s.Devices = append(s.Devices, dev)
	}
	return s, nil
}

// Device entry flags.
const (
	flagQuarantined = 1 << iota
	flagErrored
	flagState
)

// encoder appends the format's primitives to buf. With delta set it
// writes delta-record device blocks, whose series start at sample from.
// With sizeOnly set it appends everything but series samples, and
// counts their bytes in skipped instead.
type encoder struct {
	buf      []byte
	delta    bool
	from     int
	sizeOnly bool
	skipped  int
}

func (e *encoder) u8(v byte) { e.buf = append(e.buf, v) }

func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) error {
	if len(s) > MaxStrLen {
		return fmt.Errorf("snapshot: string %q... exceeds %d bytes", s[:32], MaxStrLen)
	}
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	return nil
}

// f64s writes a float64 array as count, the first value's raw bits,
// then XOR-of-bits uvarint deltas (the telemetry store's data-page
// value encoding).
func (e *encoder) f64s(vs []float64) { e.series(vs, 0) }

// series writes samples [from, len) of vs like f64s, except that from
// > 0 XOR-chains the first of them to sample from-1 instead of writing
// its raw bits.
func (e *encoder) series(vs []float64, from int) {
	e.uvarint(uint64(len(vs) - from))
	if e.sizeOnly {
		e.skipped += samplesSize(vs, from)
		return
	}
	var prev uint64
	if from > 0 {
		prev = math.Float64bits(vs[from-1])
	}
	for i, v := range vs[from:] {
		b := math.Float64bits(v)
		if i == 0 && from == 0 {
			e.f64(v)
		} else {
			e.uvarint(prev ^ b)
		}
		prev = b
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
		n += (bits.Len64(prev^b|1) + 6) / 7
		prev = b
	}
	return n
}

// seriesLen returns the length every array of s shares, or -1 when
// their lengths differ.
func seriesLen(s *emulator.Series) int {
	n := len(s.T)
	for _, vs := range [...][]float64{s.LoadW, s.DeliveredW, s.CircuitLossW, s.BatteryLossW} {
		if len(vs) != n {
			return -1
		}
	}
	for _, vs := range s.SoC {
		if len(vs) != n {
			return -1
		}
	}
	return n
}

func (e *encoder) device(dev *Device) error {
	e.u16(dev.ID)
	var flags byte
	if dev.Quarantined {
		flags |= flagQuarantined
	}
	if dev.ErrMsg != "" {
		flags |= flagErrored
	}
	if dev.State != nil {
		flags |= flagState
	}
	e.u8(flags)
	if dev.Quarantined {
		if err := e.str(dev.QuarantineReason); err != nil {
			return err
		}
	}
	if dev.ErrMsg != "" {
		if err := e.str(dev.ErrMsg); err != nil {
			return err
		}
	}
	if dev.State != nil {
		if err := e.machine(dev.State); err != nil {
			return fmt.Errorf("device %d: %w", dev.ID, err)
		}
	}
	return nil
}

func (e *encoder) machine(m *emulator.MachineState) error {
	n := len(m.Controller.Cells)
	switch {
	case m.K < 0 || m.Steps < 0 || m.BrownoutSteps < 0:
		return fmt.Errorf("snapshot: negative step counters (%d/%d/%d)", m.K, m.Steps, m.BrownoutSteps)
	case len(m.CellDrainedAtS) != n, m.Series == nil, len(m.Series.SoC) != n:
		return fmt.Errorf("snapshot: machine state inconsistent with %d cells", n)
	}
	e.uvarint(uint64(m.K))
	e.boolean(m.Done)
	e.f64(m.ExternalJ)
	e.f64(m.StartE)
	e.uvarint(uint64(m.Steps))
	e.uvarint(uint64(m.BrownoutSteps))
	e.f64(m.DeliveredJ)
	e.f64(m.CircuitLossJ)
	e.f64(m.BatteryLossJ)
	e.f64(m.ChargedJ)
	e.f64(m.DrainedAtS)
	e.f64(m.ElapsedS)
	e.uvarint(uint64(n))
	for _, v := range m.CellDrainedAtS {
		e.f64(v)
	}
	s, from := m.Series, 0
	if e.delta {
		from = e.from
		l := seriesLen(s)
		if l < 0 {
			return fmt.Errorf("snapshot: series arrays differ in length")
		}
		if from < 0 || from > l {
			return fmt.Errorf("snapshot: series offset %d outside %d samples", from, l)
		}
		e.uvarint(uint64(from))
	}
	e.series(s.T, from)
	e.series(s.LoadW, from)
	e.series(s.DeliveredW, from)
	e.series(s.CircuitLossW, from)
	e.series(s.BatteryLossW, from)
	for _, soc := range s.SoC {
		e.series(soc, from)
	}
	if err := e.controller(&m.Controller, n); err != nil {
		return err
	}
	e.boolean(m.Runtime != nil)
	if m.Runtime != nil {
		if err := e.runtime(m.Runtime); err != nil {
			return err
		}
	}
	e.boolean(m.HasFaults)
	if m.HasFaults {
		if m.FaultsFired < 0 {
			return fmt.Errorf("snapshot: negative fired-fault count %d", m.FaultsFired)
		}
		e.uvarint(uint64(m.FaultsFired))
		e.f64(m.FaultsRemovedJ)
	}
	return nil
}

func (e *encoder) controller(c *pmic.ControllerState, n int) error {
	if len(c.Gauges) != n || len(c.DischargeRatios) != n || len(c.ChargeRatios) != n ||
		len(c.ProfileSel) != n || len(c.Open) != n {
		return fmt.Errorf("snapshot: controller state inconsistent with %d cells", n)
	}
	for i := range c.Cells {
		cs := &c.Cells[i]
		for _, v := range [...]float64{
			cs.SoC, cs.VRC, cs.Capacity, cs.R0Mult,
			cs.TempC, cs.AmbientC, cs.TempSum, cs.TempTime,
			cs.Cycles, cs.CumCharge,
			cs.ChgRateSum, cs.ChgCharge, cs.DisRateSum, cs.DisCharge,
			cs.TotalIn, cs.TotalOut, cs.TotalLoss,
		} {
			e.f64(v)
		}
	}
	for i := range c.Gauges {
		g := &c.Gauges[i]
		e.f64(g.EstSoC)
		e.f64(g.EstCapC)
		e.f64(g.RestFor)
		e.f64(g.CumCharge)
		e.f64(g.LastI)
		e.f64(g.LastV)
		if g.Cycles < 0 {
			return fmt.Errorf("snapshot: negative gauge cycle count %d", g.Cycles)
		}
		e.uvarint(uint64(g.Cycles))
	}
	for _, v := range c.DischargeRatios {
		e.f64(v)
	}
	for _, v := range c.ChargeRatios {
		e.f64(v)
	}
	for _, name := range c.ProfileSel {
		if err := e.str(name); err != nil {
			return err
		}
	}
	for _, o := range c.Open {
		e.boolean(o)
	}
	e.boolean(c.Transfer != nil)
	if x := c.Transfer; x != nil {
		if x.From < 0 || x.To < 0 {
			return fmt.Errorf("snapshot: negative transfer index %d->%d", x.From, x.To)
		}
		e.uvarint(uint64(x.From))
		e.uvarint(uint64(x.To))
		e.f64(x.PowerW)
		e.f64(x.RemainingS)
	}
	e.f64(c.SinceCmdS)
	if c.WatchdogFires < 0 || c.Steps < 0 {
		return fmt.Errorf("snapshot: negative firmware counters (%d fires, %d steps)", c.WatchdogFires, c.Steps)
	}
	e.uvarint(uint64(c.WatchdogFires))
	e.f64(c.SimTimeS)
	e.boolean(c.LastBrownout)
	e.uvarint(uint64(c.Steps))
	return nil
}

func (e *encoder) runtime(r *core.State) error {
	if r.Health < core.Healthy || r.Health > core.Failed {
		return fmt.Errorf("snapshot: health %d out of range", int(r.Health))
	}
	if r.ConsecFails < 0 || r.TotalFails < 0 || r.EventSeq < 0 {
		return fmt.Errorf("snapshot: negative ladder counters")
	}
	e.u8(byte(r.Health))
	e.uvarint(uint64(r.ConsecFails))
	e.uvarint(uint64(r.TotalFails))
	e.uvarint(uint64(r.EventSeq))
	e.f64(r.ChgDir)
	e.f64(r.DisDir)
	e.f64(r.SimTimeS)
	e.boolean(r.LastDis != nil)
	if r.LastDis != nil {
		e.f64s(r.LastDis)
	}
	e.boolean(r.LastChg != nil)
	if r.LastChg != nil {
		e.f64s(r.LastChg)
	}
	if err := e.str(r.LastErr); err != nil {
		return err
	}
	e.uvarint(uint64(len(r.HealthLog)))
	for _, ev := range r.HealthLog {
		if ev.Seq < 0 || ev.Failures < 0 ||
			ev.From < core.Healthy || ev.From > core.Failed ||
			ev.To < core.Healthy || ev.To > core.Failed {
			return fmt.Errorf("snapshot: health event out of range")
		}
		e.uvarint(uint64(ev.Seq))
		e.u8(byte(ev.From))
		e.u8(byte(ev.To))
		e.uvarint(uint64(ev.Failures))
		if err := e.str(ev.Reason); err != nil {
			return err
		}
	}
	return nil
}

type decoder struct {
	buf []byte
	err error
	// delta is set while decoding a delta body; prev then holds, by
	// device id, the state of every device with state in the record
	// before it.
	delta bool
	prev  map[uint16]*emulator.MachineState
}

func (d *decoder) uvarint(what string) uint64 {
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

// count decodes a uvarint that will size an allocation or loop,
// rejecting values no well-formed remainder could satisfy (each
// element costs at least perByte bytes).
func (d *decoder) count(what string, perByte int) int {
	v := d.uvarint(what)
	if d.err != nil {
		return 0
	}
	if perByte < 1 {
		perByte = 1
	}
	if v > uint64(len(d.buf)/perByte)+1 {
		d.err = fmt.Errorf("%w: %s %d exceeds input", ErrCorrupt, what, v)
		return 0
	}
	return int(v)
}

func (d *decoder) u8(what string) byte {
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

func (d *decoder) boolean(what string) bool {
	v := d.u8(what)
	if d.err != nil {
		return false
	}
	if v > 1 {
		d.err = fmt.Errorf("%w: %s flag %d", ErrCorrupt, what, v)
		return false
	}
	return v == 1
}

func (d *decoder) u16(what string) uint16 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 2 {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) f64(what string) float64 {
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

func (d *decoder) str(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	if n > MaxStrLen || n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: %s length %d", ErrCorrupt, what, n)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) f64s(what string) []float64 { return d.series(what, nil) }

// series decodes what series wrote after the samples in base: the new
// samples are appended to base, the first XOR-chained to base's last
// sample when base is not empty.
func (d *decoder) series(what string, base []float64) []float64 {
	count := d.count(what+" count", 1)
	if d.err != nil || count == 0 {
		return base
	}
	from := len(base)
	vs := append(base, make([]float64, count)...)
	var prev uint64
	if from == 0 {
		prev = math.Float64bits(d.f64(what + " first value"))
		vs[0] = math.Float64frombits(prev)
		from = 1
	} else {
		prev = math.Float64bits(vs[from-1])
	}
	what += " delta"
	for i := from; i < len(vs); i++ {
		prev ^= d.uvarint(what)
		vs[i] = math.Float64frombits(prev)
	}
	if d.err != nil {
		return nil
	}
	return vs
}

func (d *decoder) device() (Device, error) {
	dev := Device{ID: d.u16("device id")}
	flags := d.u8("device flags")
	if d.err != nil {
		return Device{}, d.err
	}
	if flags&^(flagQuarantined|flagErrored|flagState) != 0 {
		return Device{}, fmt.Errorf("%w: unknown device flags %#02x", ErrCorrupt, flags)
	}
	if flags&flagQuarantined != 0 && flags&flagState != 0 {
		return Device{}, fmt.Errorf("%w: quarantined device carries state", ErrCorrupt)
	}
	dev.Quarantined = flags&flagQuarantined != 0
	if dev.Quarantined {
		dev.QuarantineReason = d.str("quarantine reason")
	}
	if flags&flagErrored != 0 {
		dev.ErrMsg = d.str("error message")
		if d.err == nil && dev.ErrMsg == "" {
			return Device{}, fmt.Errorf("%w: errored device with empty message", ErrCorrupt)
		}
	}
	if flags&flagState != 0 {
		m, err := d.machine(d.prev[dev.ID])
		if err != nil {
			return Device{}, err
		}
		dev.State = m
	}
	return dev, d.err
}

// machine decodes a machine block. In a delta body, prev is the
// device's state in the record before (nil if it had none), whose
// series the block's series extend unless its offset is 0.
func (d *decoder) machine(prev *emulator.MachineState) (*emulator.MachineState, error) {
	m := &emulator.MachineState{
		K:             int(d.uvarint("step cursor")),
		Done:          d.boolean("done"),
		ExternalJ:     d.f64("externalJ"),
		StartE:        d.f64("startE"),
		Steps:         int(d.uvarint("steps")),
		BrownoutSteps: int(d.uvarint("brownout steps")),
		DeliveredJ:    d.f64("deliveredJ"),
		CircuitLossJ:  d.f64("circuitLossJ"),
		BatteryLossJ:  d.f64("batteryLossJ"),
		ChargedJ:      d.f64("chargedJ"),
		DrainedAtS:    d.f64("drainedAtS"),
		ElapsedS:      d.f64("elapsedS"),
	}
	if m.K < 0 || m.Steps < 0 || m.BrownoutSteps < 0 {
		return nil, fmt.Errorf("%w: step counter overflows int", ErrCorrupt)
	}
	n := d.count("cell count", 8)
	if d.err != nil {
		return nil, d.err
	}
	if n > MaxCells {
		return nil, fmt.Errorf("%w: cell count %d exceeds %d", ErrCorrupt, n, MaxCells)
	}
	m.CellDrainedAtS = make([]float64, n)
	for i := range m.CellDrainedAtS {
		m.CellDrainedAtS[i] = d.f64("cell drain time")
	}
	// base is what the series extend: nothing in a full record or at
	// offset 0, else the previous record's series, which must end
	// exactly at the offset.
	var base emulator.Series
	if d.delta {
		from := d.uvarint("series offset")
		if d.err != nil {
			return nil, d.err
		}
		if from != 0 {
			l := -1
			if prev != nil && len(prev.Series.SoC) == n {
				l = seriesLen(prev.Series)
			}
			if l < 0 || uint64(l) != from {
				return nil, fmt.Errorf("%w: series offset %d does not continue the previous record", ErrCorrupt, from)
			}
			base = *prev.Series
		}
	}
	m.Series = &emulator.Series{
		T:            d.series("series T", base.T),
		LoadW:        d.series("series LoadW", base.LoadW),
		DeliveredW:   d.series("series DeliveredW", base.DeliveredW),
		CircuitLossW: d.series("series CircuitLossW", base.CircuitLossW),
		BatteryLossW: d.series("series BatteryLossW", base.BatteryLossW),
		SoC:          make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		var soc []float64
		if base.SoC != nil {
			soc = base.SoC[i]
		}
		m.Series.SoC[i] = d.series("series SoC", soc)
	}
	if err := d.controller(&m.Controller, n); err != nil {
		return nil, err
	}
	if d.boolean("runtime presence") {
		rt, err := d.runtime()
		if err != nil {
			return nil, err
		}
		m.Runtime = rt
	}
	if d.boolean("fault presence") {
		m.HasFaults = true
		m.FaultsFired = int(d.uvarint("fired faults"))
		m.FaultsRemovedJ = d.f64("fault removedJ")
		if m.FaultsFired < 0 {
			return nil, fmt.Errorf("%w: fired-fault count overflows int", ErrCorrupt)
		}
	}
	return m, d.err
}

func (d *decoder) controller(c *pmic.ControllerState, n int) error {
	c.Cells = make([]battery.CellState, n)
	for i := range c.Cells {
		cs := &c.Cells[i]
		cs.SoC = d.f64("cell SoC")
		cs.VRC = d.f64("cell VRC")
		cs.Capacity = d.f64("cell capacity")
		cs.R0Mult = d.f64("cell R0Mult")
		cs.TempC = d.f64("cell TempC")
		cs.AmbientC = d.f64("cell AmbientC")
		cs.TempSum = d.f64("cell TempSum")
		cs.TempTime = d.f64("cell TempTime")
		cs.Cycles = d.f64("cell cycles")
		cs.CumCharge = d.f64("cell CumCharge")
		cs.ChgRateSum = d.f64("cell ChgRateSum")
		cs.ChgCharge = d.f64("cell ChgCharge")
		cs.DisRateSum = d.f64("cell DisRateSum")
		cs.DisCharge = d.f64("cell DisCharge")
		cs.TotalIn = d.f64("cell TotalIn")
		cs.TotalOut = d.f64("cell TotalOut")
		cs.TotalLoss = d.f64("cell TotalLoss")
	}
	c.Gauges = make([]fuelgauge.State, n)
	for i := range c.Gauges {
		g := &c.Gauges[i]
		g.EstSoC = d.f64("gauge EstSoC")
		g.EstCapC = d.f64("gauge EstCapC")
		g.RestFor = d.f64("gauge RestFor")
		g.CumCharge = d.f64("gauge CumCharge")
		g.LastI = d.f64("gauge LastI")
		g.LastV = d.f64("gauge LastV")
		g.Cycles = int(d.uvarint("gauge cycles"))
		if g.Cycles < 0 {
			return fmt.Errorf("%w: gauge cycle count overflows int", ErrCorrupt)
		}
	}
	c.DischargeRatios = make([]float64, n)
	for i := range c.DischargeRatios {
		c.DischargeRatios[i] = d.f64("discharge ratio")
	}
	c.ChargeRatios = make([]float64, n)
	for i := range c.ChargeRatios {
		c.ChargeRatios[i] = d.f64("charge ratio")
	}
	c.ProfileSel = make([]string, n)
	for i := range c.ProfileSel {
		c.ProfileSel[i] = d.str("profile name")
	}
	c.Open = make([]bool, n)
	for i := range c.Open {
		c.Open[i] = d.boolean("open flag")
	}
	if d.boolean("transfer presence") {
		x := &pmic.TransferState{
			From:       int(d.uvarint("transfer from")),
			To:         int(d.uvarint("transfer to")),
			PowerW:     d.f64("transfer power"),
			RemainingS: d.f64("transfer remaining"),
		}
		if d.err == nil && (x.From < 0 || x.From >= n || x.To < 0 || x.To >= n) {
			return fmt.Errorf("%w: transfer %d->%d outside %d cells", ErrCorrupt, x.From, x.To, n)
		}
		c.Transfer = x
	}
	c.SinceCmdS = d.f64("sinceCmdS")
	c.WatchdogFires = int64(d.uvarint("watchdog fires"))
	c.SimTimeS = d.f64("firmware simTimeS")
	c.LastBrownout = d.boolean("lastBrownout")
	c.Steps = int64(d.uvarint("firmware steps"))
	if d.err == nil && (c.WatchdogFires < 0 || c.Steps < 0) {
		return fmt.Errorf("%w: firmware counter overflows int64", ErrCorrupt)
	}
	return d.err
}

func (d *decoder) runtime() (*core.State, error) {
	r := &core.State{}
	h := d.u8("health")
	if d.err == nil && core.Health(h) > core.Failed {
		return nil, fmt.Errorf("%w: health %d out of range", ErrCorrupt, h)
	}
	r.Health = core.Health(h)
	r.ConsecFails = int(d.uvarint("consecutive failures"))
	r.TotalFails = int64(d.uvarint("total failures"))
	r.EventSeq = int64(d.uvarint("event seq"))
	if r.ConsecFails < 0 || r.TotalFails < 0 || r.EventSeq < 0 {
		return nil, fmt.Errorf("%w: ladder counter overflows", ErrCorrupt)
	}
	r.ChgDir = d.f64("charge directive")
	r.DisDir = d.f64("discharge directive")
	r.SimTimeS = d.f64("runtime simTimeS")
	if d.boolean("lastDis presence") {
		r.LastDis = d.f64s("lastDis")
	}
	if d.boolean("lastChg presence") {
		r.LastChg = d.f64s("lastChg")
	}
	r.LastErr = d.str("last error")
	nlog := d.count("health log length", 5)
	if d.err != nil {
		return nil, d.err
	}
	if nlog > 0 {
		// Leave nil for an empty log: exports use the nil convention
		// for empty slices and DeepEqual round-trips depend on it.
		r.HealthLog = make([]core.HealthEvent, 0, nlog)
	}
	for i := 0; i < nlog; i++ {
		ev := core.HealthEvent{
			Seq:  int64(d.uvarint("event seq")),
			From: core.Health(d.u8("event from")),
			To:   core.Health(d.u8("event to")),
		}
		ev.Failures = int(d.uvarint("event failures"))
		ev.Reason = d.str("event reason")
		if d.err != nil {
			return nil, d.err
		}
		if ev.Seq < 0 || ev.Failures < 0 || ev.From > core.Failed || ev.To > core.Failed {
			return nil, fmt.Errorf("%w: health event out of range", ErrCorrupt)
		}
		r.HealthLog = append(r.HealthLog, ev)
	}
	return r, d.err
}
