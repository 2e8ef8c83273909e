package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/bus"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

// ledgerOp is one row of the layer ledger: a public operation of one
// layer, timed with testing.Benchmark and reported per unit (a step, a
// lane, a frame, a device) as <name>_ns and <name>_allocs.
type ledgerOp struct {
	name string
	per  int // units one benchmark iteration covers
	run  func(b *testing.B, dir string) error
}

// ledgerOps cover the stepping path (cell, batch lane, firmware step,
// fast segment, policy tick, emulator batch), the command plane (frame
// encode, frame decode, firmware dispatch) and the telemetry plane
// (store append, checkpoint encode).
var ledgerOps = []ledgerOp{
	{"battery.step", 1, benchCellStep},
	{"batch.step", batchLanes, benchBatchStep},
	{"pmic.step", 1, benchControllerStep},
	{"pmic.faststep", fastSegment, benchFastStep},
	{"core.update", 1, benchRuntimeUpdate},
	{"emulator.stepbatch", fleetBatch, benchMachineStepBatch},
	{"bus.encode", 1, benchEncode},
	{"bus.decode", 1, benchDecode},
	{"pmic.dispatch", 1, benchDispatch},
	{"store.append", 1, benchStoreAppend},
	{"snapshot.encode", snapshotDevices, benchCheckpoint},
}

const (
	batchLanes      = 64
	fastSegment     = 64
	snapshotDevices = 64
	// refill is how many 1 s steps run between resets of the cells'
	// charge, so long benchmark loops never drain a pack. The reset is
	// timed with the steps; it costs a few field writes per refill steps.
	refill = 1024
)

// runLedger times every ledger operation for about benchtime each and
// adds its rows to m. It runs after the workload, in traced runs only.
func runLedger(m *measurement, dir string, benchtime time.Duration, tr *tracer) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	for _, op := range ledgerOps {
		var opErr error
		t0 := time.Now()
		r := testing.Benchmark(func(b *testing.B) {
			if err := op.run(b, dir); err != nil {
				opErr = err
				b.FailNow()
			}
		})
		tr.add(op.name, "ledger", laneMain, t0, time.Now(), map[string]any{"n": r.N})
		if opErr == nil && r.N == 0 {
			opErr = errors.New("benchmark did not run")
		}
		if opErr != nil {
			m.problem("ledger %s: %v", op.name, opErr)
			continue
		}
		per := float64(r.N) * float64(op.per)
		m.set(op.name+"_ns", "ns", float64(r.T.Nanoseconds())/per)
		m.set(op.name+"_allocs", "count", float64(r.MemAllocs)/per)
	}
	return nil
}

// ledgerStack is the fleet's device hardware: a QuickCharge-2000 +
// Standard-2000 pack behind default firmware, with its policy runtime.
func ledgerStack() (*emulator.Stack, error) {
	return emulator.NewStack(0.8, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
}

func refillCells(cells []*battery.Cell) {
	for _, c := range cells {
		c.SetSoC(0.8)
	}
}

func benchCellStep(b *testing.B, _ string) error {
	c, err := battery.New(battery.MustByName("Standard-2000"))
	if err != nil {
		return err
	}
	c.SetSoC(0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%refill == 0 {
			c.SetSoC(0.8)
		}
		c.StepCurrent(1, 1)
	}
	return nil
}

func benchBatchStep(b *testing.B, _ string) error {
	cells := make([]*battery.Cell, batchLanes)
	for i := range cells {
		c, err := battery.New(battery.MustByName("Standard-2000"))
		if err != nil {
			return err
		}
		cells[i] = c
	}
	refillCells(cells)
	eng := batch.New()
	pk, err := eng.Checkout(cells)
	if err != nil {
		return err
	}
	dst := make([]battery.StepResult, batchLanes)
	cur := make([]float64, batchLanes)
	for i := range cur {
		cur[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%refill == 0 {
			eng.SyncIn(pk, cells) // the cells still hold the refill charge
		}
		eng.StepCurrentBatch(dst, pk, cur, 1)
	}
	return nil
}

func benchControllerStep(b *testing.B, _ string) error {
	st, err := ledgerStack()
	if err != nil {
		return err
	}
	cells := st.Pack.Cells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%refill == 0 {
			refillCells(cells)
		}
		if _, err := st.Controller.Step(2, 0, 1); err != nil {
			return err
		}
	}
	return nil
}

func benchFastStep(b *testing.B, _ string) error {
	st, err := ledgerStack()
	if err != nil {
		return err
	}
	if err := st.Controller.AttachFast(batch.New()); err != nil {
		return err
	}
	cells := st.Pack.Cells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(refill/fastSegment) == 0 {
			refillCells(cells)
		}
		if !st.Controller.BeginFast() {
			return errors.New("controller refused a fast segment")
		}
		for k := 0; k < fastSegment; k++ {
			st.Controller.FastStep(2, 1)
		}
		st.Controller.EndFast(fastSegment)
	}
	return nil
}

func benchRuntimeUpdate(b *testing.B, _ string) error {
	st, err := ledgerStack()
	if err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Runtime.Update(2, 0); err != nil {
			return err
		}
	}
	return nil
}

// benchMachineStepBatch steps a firmware-only device through the
// batched fast path, as a fleet shard does, 64 steps per call. A
// machine whose 4-hour trace ends is replaced with the timer stopped.
func benchMachineStepBatch(b *testing.B, _ string) error {
	tr := workload.Constant("ledger", 2, 4*3600, 1)
	var m *emulator.Machine
	fresh := func() error {
		st, err := ledgerStack()
		if err != nil {
			return err
		}
		m, err = emulator.NewMachine(emulator.Config{Controller: st.Controller, Trace: tr, RecordEveryS: 60})
		if err != nil {
			return err
		}
		if !m.EnableBatch(batch.New()) {
			return errors.New("machine refused the batch engine")
		}
		return nil
	}
	if err := fresh(); err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			if err := fresh(); err != nil {
				return err
			}
			b.StartTimer()
		}
		if _, err := m.StepBatch(fleetBatch); err != nil {
			return err
		}
	}
	return nil
}

// statusFrames returns a battery-status request and the firmware's
// reply to it, the command plane's most common exchange.
func statusFrames() (*emulator.Stack, bus.Frame, bus.Frame, error) {
	st, err := ledgerStack()
	if err != nil {
		return nil, bus.Frame{}, bus.Frame{}, err
	}
	req := bus.Frame{Cmd: pmic.CmdQueryStatus, Seq: 1, Device: 7}
	return st, req, st.Controller.Dispatch(req), nil
}

func benchEncode(b *testing.B, _ string) error {
	_, _, resp, err := statusFrames()
	if err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bus.Encode(resp); err != nil {
			return err
		}
	}
	return nil
}

func benchDecode(b *testing.B, _ string) error {
	_, _, resp, err := statusFrames()
	if err != nil {
		return err
	}
	raw, err := bus.Encode(resp)
	if err != nil {
		return err
	}
	rd := bytes.NewReader(raw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		if _, err := bus.ReadFrame(rd); err != nil {
			return err
		}
	}
	return nil
}

func benchDispatch(b *testing.B, _ string) error {
	st, req, _, err := statusFrames()
	if err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Controller.Dispatch(req)
	}
	return nil
}

func benchStoreAppend(b *testing.B, dir string) error {
	path := filepath.Join(dir, "ledger.sdbstor")
	st, err := store.Create(path, store.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i)
		if err := st.Append("sdb_fleet_dev7_soc", ts.KindGauge, 1, t, 0.9-1e-6*t); err != nil {
			st.Close()
			return err
		}
	}
	b.StopTimer()
	return st.Close()
}

// benchCheckpoint encodes a 64-device fleet at serve provisioning that
// has run 10 sim-minutes, so each device carries 600 steps of history.
func benchCheckpoint(b *testing.B, _ string) error {
	prov := newProvisioner(1, 600, 0)
	f := fleet.New(fleet.Config{Shards: fleetShards, Batch: fleetBatch, Obs: obs.NewRegistry()})
	defer f.Close()
	for i := 0; i < snapshotDevices; i++ {
		cfg, err := prov.device(uint16(i))
		if err != nil {
			return err
		}
		if err := f.Add(uint16(i), cfg); err != nil {
			return err
		}
	}
	f.RunToCompletion(tickSteps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Checkpoint(io.Discard); err != nil {
			return err
		}
	}
	return nil
}
