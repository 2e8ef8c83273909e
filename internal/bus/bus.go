// Package bus implements the framed serial protocol the SDB Runtime
// uses to talk to the SDB microcontroller. The paper's prototype
// carries this traffic over Bluetooth because the team could not tap
// the power-management serial bus directly (Section 4.1); in a product
// it would ride the PMIC's I2C/SMBus link. Either way the framing is
// the same: a start byte, version, command, sequence number, a
// length-prefixed payload, and a CRC-16 trailer.
//
//	offset  size  field
//	0       1     SOF (0xA5)
//	1       1     version (1)
//	2       1     command
//	3       1     sequence
//	4       2     payload length, big endian
//	6       n     payload
//	6+n     2     CRC-16/CCITT-FALSE over bytes 1..6+n-1
//
// Version 2 extends the header with a 16-bit device id so one
// connection can multiplex many emulated devices behind a fleet
// endpoint:
//
//	offset  size  field
//	0       1     SOF (0xA5)
//	1       1     version (2)
//	2       1     command
//	3       1     sequence
//	4       2     device id, big endian
//	6       2     payload length, big endian
//	8       n     payload
//	8+n     2     CRC-16/CCITT-FALSE over bytes 1..8+n-1
//
// The versions interoperate: a version-1 frame addresses device 0, and
// Encode emits the version-1 layout whenever Device is 0, so a new
// client talking to device 0 is byte-identical to an old client and an
// old client against a fleet server lands on device 0. Decoders accept
// both layouts on the same stream.
//
// Server-push frames (the pmic CmdPush family) ride the same framing
// with sequence number 0 — a value no client request ever carries (the
// pmic client's sequence wraps 255 -> 1 skipping 0). A push can
// therefore never be mistaken for the response to a pending call: a
// subscription-aware client routes Cmd = CmdPush frames to its push
// path, and a legacy request/response client counts them stale and
// keeps working. Backpressure lives above the framing: pushes sit in
// bounded per-subscriber queues server-side and are dropped (and
// counted) rather than ever blocking the fleet tick barrier.
//
// The package is transport-agnostic: any io.Reader/io.Writer pair
// works (net.Conn, net.Pipe, an in-process buffer).
package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol constants.
const (
	SOF     = 0xA5
	Version = 1
	// Version2 is the fleet-era header carrying a device id between the
	// sequence number and the payload length.
	Version2 = 2
	// MaxPayload bounds frame payloads; a microcontroller has little
	// RAM, so the limit is deliberately small.
	MaxPayload  = 4096
	headerLen   = 6 // version-1 header: SOF..length
	headerLenV2 = 8 // version-2 header: SOF..length incl. device id
	crcLen      = 2
)

// Frame is one protocol data unit.
type Frame struct {
	Cmd byte
	Seq byte
	// Device addresses one device behind a fleet endpoint. Zero is the
	// default (single-device) target: Encode emits the legacy version-1
	// header for it, so device-0 traffic is byte-identical to the
	// pre-fleet protocol, and version-1 frames decode with Device 0.
	Device  uint16
	Payload []byte
}

// Errors returned by the codec.
var (
	ErrBadSOF     = errors.New("bus: bad start-of-frame byte")
	ErrBadVersion = errors.New("bus: unsupported protocol version")
	ErrBadCRC     = errors.New("bus: CRC mismatch")
	ErrTooLarge   = fmt.Errorf("bus: payload exceeds %d bytes", MaxPayload)
)

// Encode serializes the frame: the version-1 layout for device 0, the
// version-2 layout (device id in the header) for any other device.
func Encode(f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, ErrTooLarge
	}
	hdr := headerLen
	if f.Device != 0 {
		hdr = headerLenV2
	}
	buf := make([]byte, hdr+len(f.Payload)+crcLen)
	buf[0] = SOF
	buf[1] = Version
	buf[2] = f.Cmd
	buf[3] = f.Seq
	if f.Device != 0 {
		buf[1] = Version2
		binary.BigEndian.PutUint16(buf[4:6], f.Device)
	}
	binary.BigEndian.PutUint16(buf[hdr-2:hdr], uint16(len(f.Payload)))
	copy(buf[hdr:], f.Payload)
	crc := CRC16(buf[1 : hdr+len(f.Payload)])
	binary.BigEndian.PutUint16(buf[hdr+len(f.Payload):], crc)
	return buf, nil
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := Encode(f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame. It resynchronizes by
// scanning for the SOF byte, as a real serial receiver would after
// line noise.
func ReadFrame(r io.Reader) (Frame, error) {
	var b [1]byte
	// Scan to SOF.
	for {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return Frame{}, err
		}
		if b[0] == SOF {
			break
		}
	}
	var hdr [headerLenV2 - 1]byte // version..length, worst case
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err
	}
	hlen := headerLen
	switch hdr[0] {
	case Version:
	case Version2:
		hlen = headerLenV2
	default:
		return Frame{}, ErrBadVersion
	}
	if _, err := io.ReadFull(r, hdr[1:hlen-1]); err != nil {
		return Frame{}, err
	}
	var dev uint16
	if hdr[0] == Version2 {
		dev = binary.BigEndian.Uint16(hdr[3:5])
	}
	n := int(binary.BigEndian.Uint16(hdr[hlen-3 : hlen-1]))
	if n > MaxPayload {
		return Frame{}, ErrTooLarge
	}
	rest := make([]byte, n+crcLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, err
	}
	full := make([]byte, 0, hlen-1+n)
	full = append(full, hdr[:hlen-1]...)
	full = append(full, rest[:n]...)
	if CRC16(full) != binary.BigEndian.Uint16(rest[n:]) {
		return Frame{}, ErrBadCRC
	}
	return Frame{Cmd: hdr[1], Seq: hdr[2], Device: dev, Payload: rest[:n]}, nil
}

// crc16Table holds the byte-at-a-time lookup table for poly 0x1021.
// Entry b is the CRC register after shifting byte b through the
// bitwise loop with a zero initial register, so the table-driven form
// below computes exactly the same values as the reference bit loop.
var crc16Table = func() (t [256]uint16) {
	for b := 0; b < 256; b++ {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// crc16Slice extends crc16Table for slicing-by-8: entry [k][b] is the
// register after shifting byte b and then k zero bytes through a zero
// register. The CRC is linear over GF(2), so the register after eight
// input bytes is the XOR of each byte's contribution, looked up in the
// table for its distance from the end of the group; the incoming
// register folds into the group's first two bytes.
var crc16Slice = func() (t [8][256]uint16) {
	t[0] = crc16Table
	for k := 1; k < 8; k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = prev<<8 ^ crc16Table[prev>>8]
		}
	}
	return t
}()

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
func CRC16(data []byte) uint16 {
	return CRC16Update(0xFFFF, data)
}

// CRC16Update folds more data into a running CRC-16/CCITT-FALSE.
// Start from 0xFFFF (or use CRC16 for one-shot input); chaining
// Update calls over chunks equals one CRC16 over their concatenation,
// which is what lets streaming readers checksum a file they never
// hold in memory. Eight bytes go through per iteration (slicing-by-8);
// the tail takes the byte-at-a-time table.
func CRC16Update(crc uint16, data []byte) uint16 {
	t := &crc16Slice
	for ; len(data) >= 8; data = data[8:] {
		crc = t[7][byte(crc>>8)^data[0]] ^ t[6][byte(crc)^data[1]] ^
			t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^
			t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}

// Payload codec helpers: big-endian primitives with a running error,
// so command marshaling code stays linear.

// Writer builds a payload.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v byte) *Writer { w.buf = append(w.buf, v); return w }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// F64 appends a big-endian IEEE-754 float64.
func (w *Writer) F64(v float64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
	return w
}

// Str appends a length-prefixed (uint16) UTF-8 string.
func (w *Writer) Str(s string) *Writer {
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// UVarint appends an unsigned LEB128 varint — the compact counting
// encoding CmdSeries uses for sample totals, where values are usually
// small but may not fit a uint16.
func (w *Writer) UVarint(v uint64) *Writer {
	w.buf = binary.AppendUvarint(w.buf, v)
	return w
}

// Reader consumes a payload. The first decoding failure sticks: all
// later reads return zero values and Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// F64 reads a big-endian float64.
func (r *Reader) F64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// UVarint reads an unsigned LEB128 varint. Overlong or truncated
// encodings stick the usual decode error.
func (r *Reader) UVarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	r.off += n
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
