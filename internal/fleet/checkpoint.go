package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"sdb/internal/fleet/snapshot"
)

// Checkpoint/restore: the durability half of the crash-safe fleet. A
// checkpoint captures every device's full mutable state (emulator
// cursor, series, firmware registers, cell chemistry state, gauges,
// runtime health ladder, fault-schedule position) at a tick barrier;
// Restore rebuilds the devices from configuration (Config.Provision)
// and imports that state, after which the fleet continues
// byte-identically to the uninterrupted run on either stepping
// backend. Quarantined devices are carried as tombstones — id and
// reason, no state — because their stepping goroutine died mid-step
// and their firmware mutex may be held forever. The file at
// Config.Checkpoint is a journal (see package snapshot): periodic and
// final checkpoints append a delta record to the full record this
// fleet last wrote there, so a checkpoint costs the history added since
// the last one, not the whole history.

// Snapshot captures the fleet's state between ticks. It takes the tick
// lock (so no shard is stepping) and freezes membership for the copy.
// Devices appear in id order; the encoding is deterministic.
func (f *Fleet) Snapshot() *snapshot.Snapshot {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	snap, _ := f.snapshotLocked()
	return snap
}

// snapshotLocked builds the snapshot and returns with it the device
// behind each of its entries; callers hold tickMu (no tick in flight)
// but not regMu.
func (f *Fleet) snapshotLocked() (*snapshot.Snapshot, []*device) {
	f.regMu.RLock()
	defer f.regMu.RUnlock()
	snap := &snapshot.Snapshot{FleetSteps: f.steps.Load(), Devices: make([]snapshot.Device, len(f.byID))}
	for i, d := range f.byID {
		dev := &snap.Devices[i]
		dev.ID = d.id
		if d.quarantined.Load() {
			dev.Quarantined = true
			dev.QuarantineReason = d.qreason
		} else {
			if d.err != nil {
				dev.ErrMsg = d.err.Error()
			}
			st := d.m.ExportState()
			dev.State = &st
		}
	}
	// A copy: Add and Remove may reshape the registry once regMu drops.
	return snap, slices.Clone(f.byID)
}

// Checkpoint writes the fleet's state to w in the snapshot format.
func (f *Fleet) Checkpoint(w io.Writer) error {
	return snapshot.Encode(w, f.Snapshot())
}

// WriteCheckpoint writes the fleet's state to path as one full record,
// atomically (temp file in the same directory + rename), returning the
// encoded size. A crash mid-write leaves the previous checkpoint
// intact. Written to Config.Checkpoint, the file becomes the journal
// later auto-checkpoints append to.
func (f *Fleet) WriteCheckpoint(path string) (int64, error) {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	snap, devs := f.snapshotLocked()
	return f.writeBaseLocked(path, snap, devs)
}

// writeBaseLocked writes snap to path as a full record. At the
// configured checkpoint path it also restarts the journal there, or
// forgets it when the write fails. Callers hold tickMu.
func (f *Fleet) writeBaseLocked(path string, snap *snapshot.Snapshot, devs []*device) (int64, error) {
	size, err := snapshot.WriteFileAtomic(path, snap)
	if path != f.cfg.Checkpoint {
		return size, err
	}
	f.journal = nil
	if err != nil {
		return 0, err
	}
	// Unable to stat the file just written, the next checkpoint
	// rewrites it in full.
	if fi, err := os.Stat(path); err == nil {
		f.adoptLocked(fi, snap, devs)
	}
	return size, nil
}

// checkpointLocked writes the periodic or final checkpoint to
// Config.Checkpoint: a delta record appended to the journal this fleet
// last wrote there, holding only the series samples added since, or a
// full record when the file is not that journal (none yet, replaced or
// truncated since, or left unknown by a failed write). Callers hold
// tickMu.
func (f *Fleet) checkpointLocked() error {
	path := f.cfg.Checkpoint
	snap, devs := f.snapshotLocked()
	if f.journal != nil {
		from := make([]int, len(devs))
		for i, d := range devs {
			from[i] = d.ckptLen
		}
		fi, ok, err := appendDelta(path, f.journal, snap, from)
		if ok {
			f.journal = nil
			if err != nil {
				return err
			}
			f.adoptLocked(fi, snap, devs)
			return nil
		}
	}
	_, err := f.writeBaseLocked(path, snap, devs)
	return err
}

// adoptLocked records that the journal at Config.Checkpoint is now fi
// and ends with snap: each device's series length there is where its
// next delta starts. Callers hold tickMu.
func (f *Fleet) adoptLocked(fi os.FileInfo, snap *snapshot.Snapshot, devs []*device) {
	f.journal = fi
	for i, d := range devs {
		if st := snap.Devices[i].State; st != nil {
			d.ckptLen = len(st.Series.DeliveredW)
		}
	}
}

// appendDelta appends snap as a delta record to the journal at path,
// provided the file is still last: the same file, at the same size.
// ok false means it is not, and nothing was written; otherwise fi is the
// file after the append.
func appendDelta(path string, last os.FileInfo, snap *snapshot.Snapshot, from []int) (fi os.FileInfo, ok bool, err error) {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, false, nil
	}
	if cur, err := fh.Stat(); err != nil || !os.SameFile(cur, last) || cur.Size() != last.Size() {
		fh.Close()
		return nil, false, nil
	}
	err = snapshot.WriteDelta(fh, snap, from)
	if err == nil {
		fi, err = fh.Stat()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return fi, true, err
}

// Restore rebuilds a fleet from a checkpoint stream. cfg.Provision
// supplies each device's emulator.Config by id (it must match the
// configuration the checkpointed fleet ran — a snapshot carries only
// mutable state); cfg's pool sizing and backend may differ freely, the
// restored run is byte-identical regardless. On error the partially
// built fleet is closed and nil is returned.
func Restore(r io.Reader, cfg Config) (*Fleet, error) {
	snap, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return FromSnapshot(snap, cfg)
}

// RestoreFile restores a fleet from the checkpoint at path.
func RestoreFile(path string, cfg Config) (*Fleet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	return FromSnapshot(snap, cfg)
}

// FromSnapshot builds a running fleet positioned at a decoded
// snapshot.
func FromSnapshot(snap *snapshot.Snapshot, cfg Config) (*Fleet, error) {
	if cfg.Provision == nil {
		return nil, errors.New("fleet: restore requires Config.Provision")
	}
	f := New(cfg)
	fail := func(err error) (*Fleet, error) {
		f.Close()
		return nil, err
	}
	for i := range snap.Devices {
		dev := &snap.Devices[i]
		ecfg, err := cfg.Provision(dev.ID)
		if err != nil {
			return fail(fmt.Errorf("fleet: provision device %d: %w", dev.ID, err))
		}
		if err := f.Add(dev.ID, ecfg); err != nil {
			return fail(err)
		}
		// Safe without locks: no ticks have run, Serve has no
		// connections yet, and Add just published the device.
		d := f.lookup(dev.ID)
		if dev.Quarantined {
			d.qreason = dev.QuarantineReason
			d.quarantined.Store(true)
			f.om.quarantined.Set(float64(f.quarCount.Add(1)))
			continue
		}
		if dev.State != nil {
			if err := d.m.ImportState(*dev.State); err != nil {
				return fail(fmt.Errorf("fleet: device %d: %w", dev.ID, err))
			}
		}
		if dev.ErrMsg != "" {
			d.err = errors.New(dev.ErrMsg)
		}
	}
	// Continue the fleet-wide step count (and its obs counter) so rates
	// and stats span the restart.
	f.steps.Store(snap.FleetSteps)
	f.om.steps.Add(int64(snap.FleetSteps))
	return f, nil
}
