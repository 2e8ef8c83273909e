package bus

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// TestReadFrameRandomStreamsNeverPanic feeds adversarial byte soup to
// the decoder: whatever a noisy serial line delivers, ReadFrame must
// return (frame or error), never panic or hang.
func TestReadFrameRandomStreamsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		raw := make([]byte, n)
		rng.Read(raw)
		// Seed lots of SOF bytes so the scanner engages framing.
		for i := 0; i < n/8; i++ {
			raw[rng.Intn(n+1)%max(n, 1)] = SOF
		}
		r := bytes.NewReader(raw)
		for {
			_, err := ReadFrame(r)
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF ||
					err == ErrBadVersion || err == ErrBadCRC || err == ErrTooLarge {
					break
				}
				t.Fatalf("trial %d: unexpected error class: %v", trial, err)
			}
			// A random stream decoding into a valid frame is possible
			// (CRC collision) but must not loop forever: the reader
			// always consumes bytes, so keep going until it drains.
		}
	}
}

// TestReadFrameInterleavedNoise verifies that valid frames survive
// being surrounded by garbage on both sides.
func TestReadFrameInterleavedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream bytes.Buffer
	var sent []Frame
	for i := 0; i < 20; i++ {
		noise := make([]byte, rng.Intn(20))
		rng.Read(noise)
		// Avoid accidental SOF in noise so each frame stays parseable.
		for k := range noise {
			if noise[k] == SOF {
				noise[k] = 0
			}
		}
		stream.Write(noise)
		f := Frame{Cmd: byte(i + 1), Seq: byte(i), Payload: []byte{byte(i), byte(i * 3)}}
		sent = append(sent, f)
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Cmd != want.Cmd || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, want)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkFrameEncode(b *testing.B) {
	f := Frame{Cmd: 5, Seq: 1, Payload: make([]byte, 128)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	raw, err := Encode(Frame{Cmd: 5, Seq: 1, Payload: make([]byte, 128)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrame(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// crcSink keeps BenchmarkCRC16's result live: an inlined CRC whose
// value is discarded compiles to an empty loop.
var crcSink uint16

func BenchmarkCRC16(b *testing.B) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		crcSink ^= CRC16(data)
	}
}
