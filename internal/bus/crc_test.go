package bus

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// crc16Bytewise is the reference CRC-16/CCITT-FALSE update: one table
// lookup per byte. CRC16Update must agree with it on every input.
func crc16Bytewise(crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}

// TestCRC16CheckValue: the CRC-16/CCITT-FALSE check value, through both
// the slicing-by-8 update and the bytewise reference.
func TestCRC16CheckValue(t *testing.T) {
	in := []byte("123456789")
	if got := CRC16(in); got != 0x29B1 {
		t.Errorf("CRC16 = %#04x, want 0x29B1", got)
	}
	if got := crc16Bytewise(0xFFFF, in); got != 0x29B1 {
		t.Errorf("bytewise reference = %#04x, want 0x29B1", got)
	}
}

// TestCRC16SliceTablesMatchReference: every slicing table entry is the
// byte-table register shifted through k more zero bytes.
func TestCRC16SliceTablesMatchReference(t *testing.T) {
	var zeros [7]byte
	for k := 0; k < 8; k++ {
		for b := 0; b < 256; b++ {
			if got, want := crc16Slice[k][b], crc16Bytewise(crc16Table[b], zeros[:k]); got != want {
				t.Fatalf("table[%d][%#02x] = %#04x, want %#04x", k, b, got, want)
			}
		}
	}
}

// TestCRC16MatchesBytewise: every length from 0 to 64 (each tail
// length after whole 8-byte groups) and random buffers up to 4 KiB,
// each from random initial registers.
func TestCRC16MatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096)
	rng.Read(buf)
	for n := 0; n <= 64; n++ {
		for r := 0; r < 16; r++ {
			crc := uint16(rng.Intn(1 << 16))
			if got, want := CRC16Update(crc, buf[:n]), crc16Bytewise(crc, buf[:n]); got != want {
				t.Fatalf("len %d init %#04x: got %#04x, want %#04x", n, crc, got, want)
			}
		}
	}
	for i := 0; i < 500; i++ {
		off := rng.Intn(len(buf))
		data := buf[off : off+rng.Intn(len(buf)-off+1)]
		crc := uint16(rng.Intn(1 << 16))
		if got, want := CRC16Update(crc, data), crc16Bytewise(crc, data); got != want {
			t.Fatalf("offset %d len %d init %#04x: got %#04x, want %#04x", off, len(data), crc, got, want)
		}
	}
}

// TestCRC16ChainedSplits: chaining Update over random split points
// equals one pass over the whole buffer.
func TestCRC16ChainedSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(4097))
		rng.Read(data)
		want := crc16Bytewise(0xFFFF, data)
		crc := uint16(0xFFFF)
		for rest := data; len(rest) > 0; {
			n := rng.Intn(len(rest) + 1)
			crc = CRC16Update(crc, rest[:n])
			rest = rest[n:]
		}
		if crc != want {
			t.Fatalf("len %d: chained %#04x, one-shot %#04x", len(data), crc, want)
		}
	}
}

// TestCRC16Combine: combining the register after A with B's CRC from a
// zero register equals one pass over A then B — from random registers,
// at random split points, for lengths from 0 to 64 KiB, including the
// empty halves and the zero-padding use (crcB 0).
func TestCRC16Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 64<<10)
	rng.Read(buf)
	check := func(crc uint16, a, b []byte) {
		t.Helper()
		want := crc16Bytewise(crc, append(append([]byte(nil), a...), b...))
		if got := CRC16Combine(CRC16Update(crc, a), CRC16Update(0, b), len(b)); got != want {
			t.Fatalf("init %#04x split %d+%d: combined %#04x, one pass %#04x", crc, len(a), len(b), got, want)
		}
	}
	lengths := []int{0, 1, 2, 7, 8, 9, 255, 256, 4095, 4096, 4097, 65535, 65536}
	for i := 0; i < 300; i++ {
		lengths = append(lengths, rng.Intn(len(buf)+1))
	}
	for _, n := range lengths {
		data := buf[:n]
		crc := uint16(rng.Intn(1 << 16))
		split := rng.Intn(n + 1)
		check(crc, data[:split], data[split:])
		check(crc, nil, data)
		check(crc, data, nil)
	}
	zeros := make([]byte, 4096)
	for _, n := range []int{0, 1, 100, 4094, 4096} {
		crc := uint16(rng.Intn(1 << 16))
		if got, want := CRC16Combine(crc, 0, n), crc16Bytewise(crc, zeros[:n]); got != want {
			t.Fatalf("init %#04x through %d zero bytes: combined %#04x, one pass %#04x", crc, n, got, want)
		}
	}
}

// FuzzCRC16 compares the slicing-by-8 update with the bytewise
// reference from a fuzzed initial register, whole and split in two.
func FuzzCRC16(f *testing.F) {
	f.Add(uint16(0xFFFF), []byte{}, 0)
	f.Add(uint16(0xFFFF), []byte("123456789"), 4)
	f.Add(uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0}, 8)
	f.Add(uint16(0x1D0F), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 1)
	frame, err := Encode(Frame{Cmd: 0x05, Seq: 7, Device: 0x0203, Payload: []byte{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0xFFFF), frame[1:len(frame)-2], 3)
	f.Add(uint16(0xA5A5), binary.LittleEndian.AppendUint64(nil, 0x0123456789ABCDEF), 7)

	f.Fuzz(func(t *testing.T, crc uint16, data []byte, split int) {
		want := crc16Bytewise(crc, data)
		if got := CRC16Update(crc, data); got != want {
			t.Fatalf("init %#04x len %d: got %#04x, want %#04x", crc, len(data), got, want)
		}
		split = int(uint(split) % uint(len(data)+1))
		if got := CRC16Update(CRC16Update(crc, data[:split]), data[split:]); got != want {
			t.Fatalf("init %#04x split %d/%d: got %#04x, want %#04x", crc, split, len(data), got, want)
		}
		if got := CRC16Combine(CRC16Update(crc, data[:split]), CRC16Update(0, data[split:]), len(data)-split); got != want {
			t.Fatalf("init %#04x split %d/%d: combined %#04x, want %#04x", crc, split, len(data), got, want)
		}
	})
}
