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
// readers of new journals) would see.
const (
	journalGoldenSHA256  = "394a04c27a8be2ed61cf7b47cf0452413d843883668591dd986ab1ec8ab3f20b"
	transferGoldenSHA256 = "fb6de7e9dc7d9f1b45749a7dc9aec750d089f0287337e9d2c3e38c9bcc5221b3"
)

// TestJournalGolden pins the writer's bytes on the paths
// TestDecodeParentFile does not reach: a base plus three delta records
// covering an add, a removal, a re-added id, a quarantine and an errored
// idle device, and a full record whose first device has a transfer in
// flight.
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
