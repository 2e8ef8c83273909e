package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sdb/internal/firmware"
)

// The SHA-256 of the bytes TestJournalGolden writes. Both record
// versions are fixed formats: a change to either hash is a change to
// the bytes on disk, which journals written by older builds (and older
// readers of new journals) would see, so it comes with new Version and
// DeltaVersion bytes.
const (
	journalGoldenSHA256  = "9e343e4d925563d91e27bec9edc6f6ba71613f6d9708894945b086f29920cc86"
	transferGoldenSHA256 = "acfb6cdae5159f4e57834005b1077d6679f3c0b313ccf23f64866a8cf057072f"
)

// TestJournalGolden pins the writer's bytes: a base plus three delta
// records covering an add, a removal, a re-added id, a quarantine and an
// errored idle device, and a full record of sampleSnapshot whose first
// device has a transfer in flight.
func TestJournalGolden(t *testing.T) {
	journal, _ := buildJournal(t, journalStates(t, 20))
	snap := sampleSnapshot(t)
	snap.Devices[0].State.Controller.Transfer = &firmware.TransferState{From: 1, To: 0, PowerW: 0.5, RemainingS: 30}
	var transfer bytes.Buffer
	if err := Encode(&transfer, snap); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"journal", journal, journalGoldenSHA256},
		{"transfer", transfer.Bytes(), transferGoldenSHA256},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", tc.name, len(tc.data), got, tc.want)
		}
	}
	if _, err := Decode(transfer.Bytes()); err != nil {
		t.Fatalf("transfer record does not decode: %v", err)
	}
}
