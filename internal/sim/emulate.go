package sim

import (
	"math"

	"sdb/internal/battery/batch"
	"sdb/internal/emulator"
)

// emulate is emulator.Run on the batch engine: the same
// Machine, with a private batch engine attached, stepped to completion
// through StepBatch. The batched path is bit-identical to the scalar
// Step loop Run executes — Run stays the reference, and
// TestDriversMatchScalarRun holds every driver shape to it — so no
// table moves. EnableBatch refuses an instrumented run (a process
// default obs registry, as sdbbench -metrics installs) and cells
// without dense curves; those runs step scalar. A fresh engine per run
// costs O(1) and keeps a controller reused across runs (ext-year's 730
// days and nights) from piling lanes into one engine.
func emulate(cfg emulator.Config) (*emulator.Result, error) {
	m, err := emulator.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	m.EnableBatch(batch.New())
	for !m.Done() {
		if _, err := m.StepBatch(math.MaxInt); err != nil {
			return nil, err
		}
	}
	return m.Finish()
}
