package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"sdb/internal/bus"
)

// serialEncode is the one-shot reference encoding: every block
// appended to one buffer in order, then one CRC over the whole body.
func serialEncode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var e encoder
	e.buf = append(e.buf, Magic...)
	e.u8(Version)
	e.uvarint(s.FleetSteps)
	e.uvarint(uint64(len(s.Devices)))
	for i := range s.Devices {
		if err := e.device(&s.Devices[i]); err != nil {
			t.Fatal(err)
		}
	}
	return binary.LittleEndian.AppendUint16(e.buf, bus.CRC16(e.buf))
}

// withWorkers forces Encode's worker count for the rest of the test.
func withWorkers(t *testing.T, n int) {
	prev := encodeWorkers
	encodeWorkers = func() int { return n }
	t.Cleanup(func() { encodeWorkers = prev })
}

// manyDevices is a fleet larger than any tested worker window, mixing
// every device shape so blocks differ in size.
func manyDevices(t testing.TB, n int) *Snapshot {
	full, bare := sampleMachine(t, true, true), sampleMachine(t, false, false)
	s := &Snapshot{FleetSteps: 987654}
	for i := 0; i < n; i++ {
		dev := Device{ID: uint16(3*i + 1)}
		switch {
		case i%5 == 4:
			dev.Quarantined, dev.QuarantineReason = true, fmt.Sprintf("device-panic %d", i)
		case i%7 == 6:
			dev.ErrMsg, dev.State = "pack drained", bare
		case i%2 == 0:
			dev.State = full
		default:
			dev.State = bare
		}
		s.Devices = append(s.Devices, dev)
	}
	return s
}

// TestEncodeWorkerCountInvariant: the streamed, parallel Encode writes
// exactly the bytes of the one-shot serial reference at any worker
// count, including counts that do not divide the device count and
// fleets smaller than the window.
func TestEncodeWorkerCountInvariant(t *testing.T) {
	for _, n := range []int{0, 1, 3, 40} {
		snap := manyDevices(t, n)
		want := serialEncode(t, snap)
		for _, workers := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("devices=%d/workers=%d", n, workers), func(t *testing.T) {
				withWorkers(t, workers)
				var buf bytes.Buffer
				if err := Encode(&buf, snap); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("encoded %d bytes differ from the %d-byte serial reference", buf.Len(), len(want))
				}
			})
		}
	}
}

// TestEncodeErrorMidStream: a device that cannot be encoded fails the
// whole Encode at every worker count, however many blocks are in
// flight around it. Encode waits for its workers, so one left blocked
// would hang the test.
func TestEncodeErrorMidStream(t *testing.T) {
	snap := manyDevices(t, 40)
	snap.Devices[23] = Device{ID: 999, Quarantined: true, QuarantineReason: strings.Repeat("x", MaxStrLen+1)}
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withWorkers(t, workers)
			if err := Encode(&bytes.Buffer{}, snap); err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("Encode = %v, want the oversize string error", err)
			}
		})
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		return 0, fmt.Errorf("disk full")
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestEncodeWriterError: a destination that fails partway surfaces its
// error.
func TestEncodeWriterError(t *testing.T) {
	snap := manyDevices(t, 40)
	withWorkers(t, 2)
	limit := len(serialEncode(t, snap)) / 2
	if err := Encode(&failingWriter{limit: limit}, snap); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Encode = %v, want the writer's error", err)
	}
}
