// Package fleet hosts many emulated SDB devices behind one protocol
// endpoint. Each device is a full stack — a firmware.Controller, an
// optional core.Runtime policy loop, and an emulator.Machine stepping
// a workload trace — registered under a 16-bit device id. A fixed pool
// of worker shards drives the machines in batched ticks (one goroutine
// advances many devices per wakeup), and Serve multiplexes the framed
// wire protocol onto the registry: the version-2 frame header carries
// the device id, so one bus connection commands any device, and legacy
// version-1 frames land on device 0 unchanged.
//
// Devices are mutually independent: no state is shared between
// machines, so a device's results are byte-identical to running the
// same emulator.Config alone, whatever the shard count — the fleet
// soak test enforces exactly that. Commands never queue behind another
// device's stepping: Serve only contends on the addressed device's own
// controller mutex, held for at most one firmware step at a time.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdb/internal/battery/batch"
	"sdb/internal/bus"
	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
)

// Config sizes the fleet server.
type Config struct {
	// Shards is the number of worker goroutines driving devices.
	// Default 4.
	Shards int
	// Batch is how many firmware steps one device advances per shard
	// wakeup — the fairness quantum. Small batches interleave devices
	// (and bound how long a command can wait on a stepping device);
	// large ones amortize wakeups. Default 64.
	Batch int
	// Obs receives the fleet's aggregate metrics. Nil falls back to the
	// process default registry.
	Obs *obs.Registry
	// Checkpoint, when non-empty, is the path checkpoints are written
	// to: the periodic auto-checkpoint (CheckpointEvery), Drain's final
	// checkpoint, and the remote FleetSnapshot command all target it.
	// The file is a journal. A full record is written atomically (temp
	// file + rename) by FleetSnapshot, by the first checkpoint of this
	// process, and whenever the file is not what this fleet last wrote
	// there; every other checkpoint appends a delta record holding the
	// series samples added since the last one.
	Checkpoint string
	// CheckpointEvery auto-checkpoints after every N ticks, from the
	// tick barrier (devices idle, membership frozen). Zero disables
	// periodic checkpointing; Checkpoint must be set for it to act.
	CheckpointEvery int
	// Provision rebuilds a device's emulator.Config from its id when a
	// fleet is restored from a checkpoint. It must be deterministic and
	// match the configuration the checkpointed fleet was built with —
	// same trace, pack chemistry, profile table, runtime presence, and
	// fault schedule — because a snapshot carries only mutable state.
	// Required by Restore, unused otherwise.
	Provision func(id uint16) (emulator.Config, error)
	// Record, when non-nil, streams per-device telemetry into the paged
	// store from the tick barrier (devices idle, membership frozen):
	// series sdb_fleet_dev<id>_soc (gauge, SoC averaged over the pack)
	// and sdb_fleet_dev<id>_steps (fcounter, firmware steps run). The
	// store is borrowed — the caller syncs and closes it. Recording is
	// best-effort: the first store error is kept (RecordErr), reported
	// on the trace plane, and disables further recording.
	Record *store.Store
	// RecordEvery records every N ticks. Zero means every tick.
	RecordEvery int
	// Rules is the fleet alert rule set (the internal/obs/ts DSL),
	// evaluated per device at every tick barrier against the live
	// registry. Rule series must name fleet device signals (soc,
	// health, steps, temp_c, energy_j) — see ValidateRules. Empty
	// disables fleet alerting.
	Rules []ts.Rule
	// SubQueue caps each push subscriber's frame queue. A full queue
	// drops frames (counted, never blocking the tick barrier).
	// Default 64.
	SubQueue int
}

// Fleet is a registry of emulated devices plus the shard pool that
// drives them. Add/Remove/Serve/Stat are safe from any goroutine;
// Tick and RunToCompletion must be called from one driver goroutine
// at a time.
type Fleet struct {
	cfg Config

	// regMu guards the device registry and shard membership. Ticks hold
	// it shared — membership is frozen while shards step — so Serve
	// lookups stay concurrent and Add/Remove wait for the tick.
	regMu sync.RWMutex
	// byID is the device registry, sorted by id: lookups binary-search
	// it, and every walk (alerts, recording, pushes, checkpoints, id
	// lists) visits devices in id order without sorting.
	byID   []*device
	shards []*shard
	nextRR int // round-robin shard assignment cursor

	tickMu    sync.Mutex // serializes Tick barriers and Close/Drain
	closed    bool       // guarded by tickMu; set once, never cleared
	steps     atomic.Uint64
	churn     atomic.Uint64
	tickWallS float64 // driver-goroutine only
	sinceCkpt int     // ticks since the last auto-checkpoint; driver-goroutine only
	sinceRec  int     // ticks since the last telemetry recording; driver-goroutine only
	recErr    error   // first recording failure; guarded by tickMu
	// journal is the checkpoint file as this fleet last wrote it; nil
	// until a write there succeeds and after any failed one, when the
	// next checkpoint is a full record. Guarded by tickMu.
	journal os.FileInfo

	// draining refuses new device commands (StatusDraining) and new
	// ticks while Drain runs down the fleet.
	draining atomic.Bool
	// quarCount tracks devices currently quarantined by supervision.
	quarCount atomic.Int64

	// subs is the push-subscription hub; alerts the fleet alert engine
	// (nil without rules). Both are driven from the tick barrier.
	subs   subHub
	alerts *alertEngine

	om fleetMetrics
}

type device struct {
	id    uint16
	shard int
	m     *emulator.Machine
	ctrl  *firmware.Controller

	// err and res are written by the owning shard / driver goroutine;
	// reads outside a tick are ordered by the barrier.
	err error
	res *emulator.Result

	// quarantined marks a device whose stepping panicked: supervision
	// parks it, its shard keeps going, and every later read (dispatch,
	// Result, checkpoint) treats its state as suspect — in particular
	// its firmware mutex may be held forever by the dead goroutine.
	// qreason is written before the Store(true) and read only after a
	// Load(true), so the flag orders it.
	quarantined atomic.Bool
	qreason     string

	// rec is the device's (soc, steps) recording grid, touched only
	// from the tick barrier and built at its first record, so a fleet
	// that records nothing holds none.
	rec *recGrid

	// ckptLen is the device's series length in the checkpoint journal's
	// last record, where its next delta record starts. Guarded by tickMu.
	ckptLen int

	// sig is the device's barrier-time telemetry sample, written by the
	// owning shard during a tick (after stepping) and read only at the
	// barrier — the tick WaitGroup orders writer and readers. It feeds
	// alert evaluation and metric pushes without serializing device
	// queries through the barrier.
	sig deviceSig

	// alert is the device's alert state, created at its first evaluation
	// and touched only from the barrier. It lives and dies with this
	// incarnation: a device re-added under the same id starts fresh.
	alert *ts.Subject
}

// live reports whether the device has a barrier sample to evaluate and
// publish: not quarantined, not parked on an error, sampled.
func (d *device) live() bool {
	return !d.quarantined.Load() && d.err == nil && d.sig.ok
}

// find returns where id sits, or belongs, in the id-sorted registry.
// Callers hold regMu.
func (f *Fleet) find(id uint16) (int, bool) {
	return slices.BinarySearchFunc(f.byID, id, func(d *device, id uint16) int {
		return int(d.id) - int(id)
	})
}

// lookup returns the device registered under id, or nil. Callers hold
// regMu.
func (f *Fleet) lookup(id uint16) *device {
	if i, ok := f.find(id); ok {
		return f.byID[i]
	}
	return nil
}

type shard struct {
	idx     int
	devices []*device
	wake    chan tickReq
	hist    *obs.Histogram
	// panics counts device panics since the last shard restart; owned
	// by the shard goroutine. At shardRestartAfter the supervisor
	// recycles the goroutine (see superviseShard).
	panics int
	// eng is the shard's batch engine: every batched device
	// on the shard has its cell lanes in this one engine, so a tick
	// sweeps one contiguous array. Lanes are append-only — removing a
	// device strands its lanes until the fleet is rebuilt, a deliberate
	// trade for stable lane offsets.
	eng *batch.Engine
	// sts is the shard's status buffer for signal collection, reused
	// for every device on every signal tick; owned by the shard
	// goroutine.
	sts []pmic.BatteryStatus
}

type tickReq struct {
	steps  int
	active *atomic.Int64 // devices still running, summed across shards
	wg     *sync.WaitGroup
	// sig asks shards to refresh each device's telemetry sample after
	// stepping (set when alert rules or metric subscribers need it), so
	// signal collection parallelizes across shards instead of running
	// serially at the barrier.
	sig bool
}

// fleetMetrics bundles the aggregate observables.
type fleetMetrics struct {
	devices     *obs.Gauge
	churn       *obs.Counter
	steps       *obs.Counter
	rate        *obs.Gauge
	cmd         *obs.Histogram
	panics      *obs.Counter
	quarantined *obs.Gauge
	restarts    *obs.Counter
	ckptErrs    *obs.Counter
	recErrs     *obs.Counter
	tracer      *obs.Tracer
	audit       *obs.AuditLog
	// phases time the tick barrier, one histogram per phase.
	phases [nPhases]*obs.Histogram
}

// Tick barrier phases, each timed as sdb_fleet_barrier_<phase>_seconds.
// step is the wait for every shard to finish stepping; the others run
// on the driver goroutine afterwards, and are observed only on ticks
// where they do work.
const (
	phaseStep = iota
	phaseAlerts
	phaseRecord
	phasePublish
	phaseCheckpoint
	nPhases
)

var phaseNames = [nPhases]string{"step", "alerts", "record", "publish", "checkpoint"}

// phase observes the barrier phase that began at since and returns
// its end, the next phase's start.
func (f *Fleet) phase(p int, since time.Time) time.Time {
	now := time.Now()
	f.om.phases[p].Observe(now.Sub(since).Seconds())
	return now
}

// New builds a fleet and starts its shard pool. Close stops it.
func New(cfg Config) *Fleet {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	reg := cfg.Obs.Or(obs.Default())
	f := &Fleet{
		cfg: cfg,
		om: fleetMetrics{
			devices: reg.Gauge("sdb_fleet_devices"),
			churn:   reg.Counter("sdb_fleet_device_churn_total"),
			steps:   reg.Counter("sdb_fleet_steps_total"),
			rate:    reg.Gauge("sdb_fleet_device_steps_per_sec"),
			cmd: reg.Histogram("sdb_fleet_cmd_seconds",
				[]float64{1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 1e-1, 1}),
			panics:      reg.Counter("sdb_fleet_device_panics_total"),
			quarantined: reg.Gauge("sdb_fleet_quarantined_devices"),
			restarts:    reg.Counter("sdb_fleet_shard_restarts_total"),
			ckptErrs:    reg.Counter("sdb_fleet_checkpoint_errors_total"),
			recErrs:     reg.Counter("sdb_fleet_record_errors_total"),
			tracer:      reg.Tracer(),
			audit:       reg.Audit(),
		},
	}
	for p, name := range phaseNames {
		f.om.phases[p] = reg.Histogram("sdb_fleet_barrier_"+name+"_seconds",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3})
	}
	f.subs.init(reg, cfg.SubQueue)
	if len(cfg.Rules) > 0 {
		f.alerts = newAlertEngine(cfg.Rules, reg)
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			idx:  i,
			wake: make(chan tickReq),
			hist: reg.Histogram(fmt.Sprintf("sdb_fleet_shard%d_batch_seconds", i),
				[]float64{1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1}),
			eng: batch.New(),
		}
		f.shards = append(f.shards, s)
		go f.superviseShard(s)
	}
	return f
}

// Close stops the shard pool. The registry stays queryable (Serve,
// Stat, Result); only ticking ends. Idempotent and safe to call
// concurrently with Tick, Serve, or another Close: the closed flag is
// settled under tickMu, so a racing Tick either completes first or
// observes the flag and returns without touching the closed wake
// channels.
func (f *Fleet) Close() {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	f.closeLocked()
}

// closeLocked shuts the shard pool down; callers hold tickMu.
func (f *Fleet) closeLocked() {
	if f.closed {
		return
	}
	f.closed = true
	for _, s := range f.shards {
		close(s.wake)
	}
}

// Add registers a device: the emulator config is compiled into a
// Machine (validating it) and the device joins the least-recently
// assigned shard. The config's Controller becomes the device's command
// target. Ids are free-form; id 0 is what legacy version-1 clients
// address.
func (f *Fleet) Add(id uint16, cfg emulator.Config) error {
	m, err := emulator.NewMachine(cfg)
	if err != nil {
		return err
	}
	f.regMu.Lock()
	defer f.regMu.Unlock()
	i, dup := f.find(id)
	if dup {
		return fmt.Errorf("fleet: device %d already registered", id)
	}
	d := &device{id: id, shard: f.nextRR, m: m, ctrl: cfg.Controller}
	f.nextRR = (f.nextRR + 1) % len(f.shards)
	f.byID = slices.Insert(f.byID, i, d)
	s := f.shards[d.shard]
	s.devices = append(s.devices, d)
	// Check the device out into the shard's batch engine. Safe here:
	// shard goroutines only touch the engine while ticking, and ticks
	// hold regMu shared, excluded by the write lock above. A refusal
	// (instrumented run, non-dense curves) just leaves the device on
	// the reference scalar path, which is bit-identical by contract.
	m.EnableBatch(s.eng)
	f.churn.Add(1)
	f.om.churn.Inc()
	f.om.devices.Set(float64(len(f.byID)))
	return nil
}

// Remove unregisters a device, reporting whether it existed. Its
// controller and any finished result are dropped with it.
func (f *Fleet) Remove(id uint16) bool {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	i, ok := f.find(id)
	if !ok {
		return false
	}
	d := f.byID[i]
	f.byID = slices.Delete(f.byID, i, i+1)
	s := f.shards[d.shard]
	j := slices.Index(s.devices, d)
	s.devices = slices.Delete(s.devices, j, j+1)
	if d.quarantined.Load() {
		f.om.quarantined.Set(float64(f.quarCount.Add(-1)))
	}
	f.churn.Add(1)
	f.om.churn.Inc()
	f.om.devices.Set(float64(len(f.byID)))
	return true
}

// Len returns the number of registered devices.
func (f *Fleet) Len() int {
	f.regMu.RLock()
	defer f.regMu.RUnlock()
	return len(f.byID)
}

// IDs returns the registered device ids, lowest first.
func (f *Fleet) IDs() []uint16 { return f.idsFrom(0) }

// idsFrom returns the registered ids from cursor on, lowest first: the
// tail of the id-ordered registry, found by binary search.
func (f *Fleet) idsFrom(cursor uint64) []uint16 {
	f.regMu.RLock()
	defer f.regMu.RUnlock()
	i := len(f.byID)
	if cursor <= 0xFFFF {
		i, _ = f.find(uint16(cursor))
	}
	ids := make([]uint16, len(f.byID)-i)
	for j, d := range f.byID[i:] {
		ids[j] = d.id
	}
	return ids
}

// Controller returns a device's firmware for direct in-process access
// (nil if the id is unknown).
func (f *Fleet) Controller(id uint16) *firmware.Controller {
	f.regMu.RLock()
	defer f.regMu.RUnlock()
	if d := f.lookup(id); d != nil {
		return d.ctrl
	}
	return nil
}

// shardRestartAfter is the supervision ladder's escalation threshold:
// after this many device panics on one shard, the shard goroutine is
// recycled — a fresh stack for a worker whose environment repeated
// panics have made suspect, mirroring the core health ladder's
// escalation at fleet scope. The panic budget resets on restart.
const shardRestartAfter = 3

// superviseShard is the supervision wrapper around one shard worker:
// it reruns the shard loop for as long as the loop asks to be recycled
// (repeated device panics), and exits when the wake channel closes.
func (f *Fleet) superviseShard(s *shard) {
	for f.runShard(s) {
		s.panics = 0
		f.om.restarts.Inc()
		f.om.tracer.Emit(obs.Event{
			Scope: "fleet", Kind: "shard-restart", Cell: -1,
			V1: float64(s.idx), V2: float64(shardRestartAfter),
			Detail: "panic budget exhausted",
		})
	}
}

// runShard drives one shard: each wakeup advances every still-running
// device on the shard by the requested number of steps, a batch at a
// time. A device that errors is parked (its error is kept for Result)
// and never blocks its neighbors; a device that panics is quarantined
// and the rest of the shard finishes the same tick (see shardTick).
// Returns true to request a goroutine recycle, false on shutdown.
func (f *Fleet) runShard(s *shard) bool {
	for req := range s.wake {
		f.shardTick(s, req)
		if s.panics >= shardRestartAfter {
			return true
		}
	}
	return false
}

// shardTick runs one shard's share of a tick barrier. The deferred
// bookkeeping ALWAYS runs — even if stepping panics outside the
// per-device recovery boundary — so the barrier's WaitGroup cannot
// leak a count and deadlock Tick.
func (f *Fleet) shardTick(s *shard, req tickReq) {
	start := time.Now()
	var ran, active int64
	defer func() {
		if r := recover(); r != nil {
			// A panic between devices (not inside stepDevice) has no
			// single culprit: spend the whole budget so the supervisor
			// recycles the goroutine.
			s.panics = shardRestartAfter
			f.om.panics.Inc()
			f.om.tracer.Emit(obs.Event{
				Scope: "fleet", Kind: "shard-panic", Cell: -1,
				V1: float64(s.idx), Detail: fmt.Sprint(r),
			})
		}
		s.hist.Observe(time.Since(start).Seconds())
		f.steps.Add(uint64(ran))
		f.om.steps.Add(ran)
		req.active.Add(active)
		req.wg.Done()
	}()
	for _, d := range s.devices {
		if d.quarantined.Load() || d.err != nil {
			continue
		}
		if !d.m.Done() {
			n, alive := f.stepDevice(s, d, req.steps)
			ran += n
			if alive {
				active++
			}
		}
		if req.sig && !d.quarantined.Load() && d.err == nil {
			collectSig(s, d)
		}
	}
}

// collectSig refreshes one device's barrier telemetry sample. Runs on
// the owning shard goroutine during a tick (device idle between
// batches), so the firmware query contends with nothing. A device
// whose clock has not advanced keeps its previous sample. The query
// writes into the shard's status buffer.
func collectSig(s *shard, d *device) {
	t := d.m.ElapsedS()
	if d.sig.ok && t <= d.sig.t {
		return
	}
	sts, err := d.ctrl.QueryBatteryStatusInto(s.sts)
	if err != nil || len(sts) == 0 {
		d.sig.ok = false
		return
	}
	s.sts = sts
	var soc, temp, energy float64
	for i := range sts {
		soc += sts[i].SoC
		temp += sts[i].TemperatureC
		energy += sts[i].EnergyRemainingJ
	}
	n := float64(len(sts))
	var health float64
	if rt := d.m.Runtime(); rt != nil {
		health = float64(rt.Health())
	}
	d.sig = deviceSig{ok: true, t: t, v: [nDeviceSignals]float64{
		sigSoC:     soc / n,
		sigHealth:  health,
		sigSteps:   float64(d.m.StepsRun()),
		sigTempC:   temp / n,
		sigEnergyJ: energy / n,
	}}
}

// stepDevice advances one device by up to steps firmware steps. Its
// recover boundary is the quarantine mechanism: a panic inside the
// device's stack (emulator, firmware, injected fault) is contained
// here, the device is quarantined, and the caller moves to the shard's
// next device within the same tick.
func (f *Fleet) stepDevice(s *shard, d *device, steps int) (ran int64, alive bool) {
	defer func() {
		if r := recover(); r != nil {
			f.quarantine(s, d, r)
			alive = false
		}
	}()
	left := steps
	for left > 0 {
		n := f.cfg.Batch
		if n > left {
			n = left
		}
		did, err := d.m.StepBatch(n)
		ran += int64(did)
		left -= n
		if err != nil {
			d.err = err
			break
		}
		if d.m.Done() {
			break
		}
	}
	return ran, d.err == nil && !d.m.Done()
}

// quarantine parks a device whose stepping panicked. The device never
// steps again and its commands answer StatusQuarantined: the panic may
// have unwound past invariants (a fast segment leaves the firmware
// mutex held), so nothing may touch its controller again.
func (f *Fleet) quarantine(s *shard, d *device, cause any) {
	s.panics++
	d.qreason = fmt.Sprint(cause)
	d.quarantined.Store(true)
	f.om.panics.Inc()
	f.om.quarantined.Set(float64(f.quarCount.Add(1)))
	f.om.tracer.Emit(obs.Event{
		Scope: "fleet", Kind: "device-quarantine", Cell: -1,
		V1: float64(d.id), V2: float64(s.idx), Detail: d.qreason,
	})
	if f.om.audit != nil {
		f.om.audit.Add(obs.AuditRecord{
			DisPolicy: "-", ChgPolicy: "-", Health: "quarantined",
			Note: fmt.Sprintf("fleet: device %d quarantined on shard %d: %s", d.id, s.idx, d.qreason),
		})
	}
}

// Tick advances every running device by steps firmware steps and
// returns how many devices are still running. The call is a barrier:
// it returns once all shards finish. Membership is frozen for the
// duration; protocol commands are not — they only contend on the
// addressed device's controller. After Close or during a Drain, Tick
// is a no-op returning 0.
func (f *Fleet) Tick(steps int) int {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	if f.closed || f.draining.Load() {
		return 0
	}
	record := false
	if f.cfg.Record != nil && f.recErr == nil {
		f.sinceRec++
		if f.sinceRec >= max(f.cfg.RecordEvery, 1) {
			f.sinceRec = 0
			record = true
		}
	}
	f.regMu.RLock()
	start := time.Now()
	var active atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(f.shards))
	req := tickReq{steps: steps, active: &active, wg: &wg,
		sig: f.alerts != nil || f.subs.wantMetrics() || record}
	for _, s := range f.shards {
		s.wake <- req
	}
	wg.Wait()
	mark := f.phase(phaseStep, start)
	// Barrier work, in a fixed order, each walk in id order: alert
	// evaluation over the shard-collected samples, recording, then the
	// push fan-out (encode-and-enqueue only; a slow subscriber costs
	// drops, never barrier time).
	var trans []pmic.AlertTransition
	if f.alerts != nil && req.sig {
		trans = f.alerts.evalBarrier(f)
		mark = f.phase(phaseAlerts, mark)
	}
	if record {
		f.recordLocked()
		if f.alerts != nil && f.recErr == nil {
			var maxT float64
			for _, d := range f.byID {
				if d.sig.ok && d.sig.t > maxT {
					maxT = d.sig.t
				}
			}
			f.alerts.recordRollups(f, maxT)
		}
		mark = f.phase(phaseRecord, mark)
	}
	f.publishLocked(trans, int(active.Load()))
	mark = f.phase(phasePublish, mark)
	f.regMu.RUnlock()
	f.tickWallS += mark.Sub(start).Seconds()
	if f.tickWallS > 0 {
		f.om.rate.Set(float64(f.steps.Load()) / f.tickWallS)
	}
	if f.cfg.Checkpoint != "" && f.cfg.CheckpointEvery > 0 {
		f.sinceCkpt++
		if f.sinceCkpt >= f.cfg.CheckpointEvery {
			f.sinceCkpt = 0
			if err := f.checkpointLocked(); err != nil {
				// Checkpointing is best-effort from the tick path: surface
				// the failure on the measurement plane, keep stepping.
				f.om.ckptErrs.Inc()
				f.om.tracer.Emit(obs.Event{
					Scope: "fleet", Kind: "checkpoint-error", Cell: -1, Detail: err.Error(),
				})
			}
			f.phase(phaseCheckpoint, mark)
		}
	}
	// Crash-safety testing: an armed fleet.tick kill point crashes the
	// process here, after the barrier (and checkpoint) completed —
	// deterministic per tick count. Unarmed it is one atomic load.
	faults.MaybeKill("fleet.tick")
	return int(active.Load())
}

// recordLocked streams one telemetry sample per live device into the
// configured store, in id order, so the store's bytes depend only on
// the run. Called from the tick barrier with regMu held shared and
// every shard idle, so device state is stable. The sample is
// the one the device's shard collected after stepping this tick (the
// tick asked for it), so no firmware is queried here; a device without
// one at its current time is a recording error. A device whose clock
// stopped advancing (trace drained, stepping error) is skipped.
func (f *Fleet) recordLocked() {
	for _, d := range f.byID {
		if d.quarantined.Load() || d.err != nil {
			continue
		}
		t := d.m.ElapsedS()
		if !d.rec.due(t) {
			continue
		}
		if !d.sig.ok || d.sig.t != t {
			f.recordFail(d.id, errors.New("no battery status sample at the barrier"))
			return
		}
		if d.rec == nil {
			d.rec = &recGrid{
				names: []string{fmt.Sprintf("sdb_fleet_dev%d_soc", d.id), fmt.Sprintf("sdb_fleet_dev%d_steps", d.id)},
				kinds: deviceRecKinds,
			}
		}
		vals := [2]float64{d.sig.v[sigSoC], d.sig.v[sigSteps]}
		if err := d.rec.record(f.cfg.Record, t, vals[:]); err != nil {
			f.recordFail(d.id, err)
			return
		}
	}
}

var deviceRecKinds = []ts.Kind{ts.KindGauge, ts.KindFCounter}

// recGrid is one recording stream: a fixed set of store series sampled
// together on a uniform sim-time grid. The grid's step is the gap
// between the first two samples, so the first sample is parked until
// the second arrives and both land on a known grid.
type recGrid struct {
	names []string
	kinds []ts.Kind

	step   float64
	lastT  float64
	t0     float64   // parked sample's time
	parked []float64 // parked sample's values; nil until the first
}

// due reports whether a sample at sim time t advances the grid. A grid
// not built yet (nil) is due at any positive time.
func (g *recGrid) due(t float64) bool { return t > 0 && (g == nil || t > g.lastT) }

// record appends vals (parallel to names) at sim time t, first
// flushing a parked sample once the step is known. It stops at the
// first store error.
func (g *recGrid) record(st *store.Store, t float64, vals []float64) error {
	if g.step == 0 {
		if g.parked == nil {
			g.t0, g.lastT = t, t
			g.parked = append([]float64(nil), vals...)
			return nil
		}
		g.step = t - g.t0
		if err := g.append(st, g.t0, g.parked); err != nil {
			return err
		}
	}
	if err := g.append(st, t, vals); err != nil {
		return err
	}
	g.lastT = t
	return nil
}

func (g *recGrid) append(st *store.Store, t float64, vals []float64) error {
	for i, name := range g.names {
		if err := st.Append(name, g.kinds[i], g.step, t, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// recordFail latches the first recording error and surfaces it on the
// metrics plane (sdb_fleet_record_errors_total) and the trace plane;
// recording stays off for the rest of the fleet's life.
func (f *Fleet) recordFail(id uint16, err error) {
	f.recErr = fmt.Errorf("fleet: recording device %d: %w", id, err)
	f.om.recErrs.Inc()
	f.om.tracer.Emit(obs.Event{
		Scope: "fleet", Kind: "record-error", Cell: int(id), Detail: err.Error(),
	})
}

// RecordErr returns the first telemetry-recording failure, or nil.
// Call from the driver goroutine or after ticking stops.
func (f *Fleet) RecordErr() error {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	return f.recErr
}

// RunToCompletion ticks until every device has consumed its trace (or
// parked on an error).
func (f *Fleet) RunToCompletion(stepsPerTick int) {
	if stepsPerTick <= 0 {
		stepsPerTick = f.cfg.Batch
	}
	for f.Tick(stepsPerTick) > 0 {
	}
}

// Result finishes a device's run and returns its summary. The first
// call computes the Result (legal mid-trace: it snapshots the steps
// run so far); later calls return the same value. A device that
// stepped into an error returns that error instead. Call from the
// driver goroutine, not concurrently with a tick.
func (f *Fleet) Result(id uint16) (*emulator.Result, error) {
	f.regMu.Lock()
	defer f.regMu.Unlock()
	d := f.lookup(id)
	if d == nil {
		return nil, fmt.Errorf("fleet: no device %d", id)
	}
	if d.quarantined.Load() {
		// Finish would query the firmware; a quarantined device's mutex
		// may be held forever by the goroutine frame that panicked.
		return nil, fmt.Errorf("fleet: device %d quarantined: %s", id, d.qreason)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.res == nil {
		res, err := d.m.Finish()
		if err != nil {
			d.err = err
			return nil, err
		}
		d.res = res
	}
	return d.res, nil
}

// Err returns the error a device parked on, if any. A quarantined
// device reports its quarantine as the error.
func (f *Fleet) Err(id uint16) error {
	f.regMu.RLock()
	defer f.regMu.RUnlock()
	d := f.lookup(id)
	if d == nil {
		return fmt.Errorf("fleet: no device %d", id)
	}
	if d.quarantined.Load() {
		return fmt.Errorf("fleet: device %d quarantined: %s", id, d.qreason)
	}
	return d.err
}

// Quarantined returns the ids of currently quarantined devices, lowest
// first.
func (f *Fleet) Quarantined() []uint16 {
	f.regMu.RLock()
	defer f.regMu.RUnlock()
	var ids []uint16
	for _, d := range f.byID {
		if d.quarantined.Load() {
			ids = append(ids, d.id)
		}
	}
	return ids
}

// Stat snapshots the aggregate counters.
func (f *Fleet) Stat() pmic.FleetInfo {
	p99 := f.om.cmd.Quantile(0.99)
	if math.IsNaN(p99) { // empty or unregistered histogram
		p99 = 0
	}
	return pmic.FleetInfo{
		Devices:           f.Len(),
		Shards:            len(f.shards),
		Steps:             f.steps.Load(),
		Churn:             f.churn.Load(),
		DeviceStepsPerSec: f.om.rate.Value(),
		CmdP99Seconds:     p99,
		Quarantined:       int(f.quarCount.Load()),
		Draining:          f.draining.Load(),
	}
}

// Drain gracefully runs the fleet down: new device commands are
// refused with the retryable StatusDraining (FleetInfo queries still
// answer, so clients can watch the drain), in-flight ticks finish, a
// final checkpoint is written when a checkpoint path is configured,
// and the shard pool closes. Blocks until done or ctx expires; the
// checkpoint (or ctx) error is returned. Draining is one-way — after
// Drain only Close-like operations remain. Safe to call from any
// goroutine, including concurrently with a driver loop calling Tick:
// the draining flag stops new ticks, so Drain's wait is bounded by one
// in-flight barrier.
func (f *Fleet) Drain(ctx context.Context) error {
	f.draining.Store(true)
	// Acquire the tick lock without holding anything, respecting ctx:
	// at most one barrier (plus a checkpoint write) is in flight, and
	// no new ones start once the flag is up.
	for !f.tickMu.TryLock() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	defer f.tickMu.Unlock()
	var err error
	if f.cfg.Checkpoint != "" && !f.closed {
		err = f.checkpointLocked()
	}
	f.closeLocked()
	return err
}

// Serve runs the multiplexed command loop on one connection until the
// transport closes, routing each frame to the controller registered
// under its device id. Version-1 frames carry no id and land on device
// 0, so a pre-fleet client drives device 0 of a fleet server without
// knowing fleets exist. Frames addressing an unknown id are answered
// with StatusNoDevice; CmdFleetInfo is answered by the fleet itself,
// and CmdSubscribe/CmdUnsubscribe open and close push subscriptions
// scoped to this connection (all of them torn down when Serve
// returns). Responses and pushes share the connection through one
// frame-atomic writer. Run one Serve goroutine per accepted
// connection.
func (f *Fleet) Serve(rw io.ReadWriter) error {
	sc := bus.NewScanner(rw)
	cw := &connWriter{w: rw}
	defer f.subs.dropConn(cw)
	for {
		req, err := sc.ReadFrame()
		switch {
		case err == nil:
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
			errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed):
			return nil
		default:
			return fmt.Errorf("fleet: serve: %w", err)
		}
		t0 := time.Now()
		var resp bus.Frame
		switch req.Cmd {
		case pmic.CmdSubscribe:
			resp = f.subscribe(req, cw)
		case pmic.CmdUnsubscribe:
			resp = f.unsubscribe(req, cw)
		default:
			resp = f.dispatch(req)
		}
		if err := cw.WriteFrame(resp); err != nil {
			return fmt.Errorf("fleet: serve write: %w", err)
		}
		f.om.cmd.Observe(time.Since(t0).Seconds())
	}
}

// dispatch routes one request frame. A draining fleet refuses device
// commands with the retryable StatusDraining (fleet-level queries keep
// answering); a quarantined device refuses with StatusQuarantined —
// its controller must not be touched (see quarantine).
func (f *Fleet) dispatch(req bus.Frame) bus.Frame {
	if req.Cmd == pmic.CmdFleetInfo {
		return f.fleetInfo(req)
	}
	if f.draining.Load() {
		return pmic.Reply(req, pmic.StatusDraining)
	}
	f.regMu.RLock()
	d := f.lookup(req.Device)
	f.regMu.RUnlock()
	if d == nil {
		return pmic.Reply(req, pmic.StatusNoDevice)
	}
	if d.quarantined.Load() {
		return pmic.Reply(req, pmic.StatusQuarantined)
	}
	return d.ctrl.Dispatch(req)
}

// fleetInfo answers CmdFleetInfo: a page of the device ids or of the
// live subscriptions from the request's cursor on, the aggregate
// counters, or a checkpoint write.
func (f *Fleet) fleetInfo(req bus.Frame) bus.Frame {
	mode, cursor, ok := pmic.DecodeFleetInfo(req.Payload)
	switch {
	case !ok:
	case mode == pmic.FleetList:
		return pmic.FleetListReply(req, f.idsFrom(cursor))
	case mode == pmic.FleetStat:
		return pmic.FleetStatReply(req, f.Stat())
	case mode == pmic.FleetSubs:
		return pmic.FleetSubsReply(req, f.subStatsFrom(cursor))
	case mode == pmic.FleetSnapshot:
		// Write a checkpoint to the server's configured path and report
		// where it landed. The write itself waits for the tick barrier
		// (WriteCheckpoint takes tickMu), so the snapshot is consistent.
		if f.cfg.Checkpoint == "" {
			break
		}
		size, err := f.WriteCheckpoint(f.cfg.Checkpoint)
		if err != nil {
			f.om.ckptErrs.Inc()
			return pmic.Reply(req, pmic.StatusInternal)
		}
		return pmic.FleetSnapshotReply(req, f.cfg.Checkpoint, size)
	}
	return pmic.Reply(req, pmic.StatusBadArgs)
}
