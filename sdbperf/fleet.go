package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

// The fleet runs in one process on a 2-core host: two shards, the
// default 64-step scheduling slice, and 60 simulated seconds per tick,
// which is what `sdbctl serve` advances per wall second.
const (
	fleetShards     = 2
	fleetBatch      = 64
	tickSteps       = 60
	checkpointEvery = 10 // ticks between auto-checkpoints, sdbctl serve's default
	syncEvery       = 10 // ticks between store syncs, as sdbctl serve does
	soloReplays     = 16
	fleetSetups     = 5 // set-ups per run; setup_s is their median
	loadLevels      = 16
)

// fleetAlertRules use every form the alert engine evaluates: levels
// with hold times, a rate and a delta over windows. Each rule fires on
// some devices: the two levels on those that start or end below about
// 60% charge, which the seed decides, the other two on every device.
// The transition count repeats exactly for a given seed.
const fleetAlertRules = `
alert lowsoc soc < 0.6 for 120s
alert draining rate(soc) < 0 over 120s
alert busy delta(steps) >= 60 over 60s
alert lowenergy energy_j < 15000 for 60s
`

// fleetShape sizes one fleet workload.
type fleetShape struct {
	devices int
	// traceS is each device's trace length in simulated seconds; a paced
	// workload derives it from the run length instead.
	traceS int
	// recordEveryS is the emulator's per-device series cadence; 0 keeps
	// every step, as sdbctl serve provisions its devices.
	recordEveryS float64
	// telemetry turns on alert rules, store recording every recordEvery
	// ticks, auto-checkpoints, and the live push subscriber.
	telemetry   bool
	recordEvery int
	// paced runs one tick per wall second beside a closed-loop operator.
	paced bool
}

// fleetShapes are sized to keep the process under about 1 GB: at
// serve provisioning a device keeps its whole per-step history, so
// heap and checkpoint cost grow with devices times elapsed sim time.
var fleetShapes = map[string]fleetShape{
	"fleet-drain": {devices: 10000, traceS: 3600, recordEveryS: 60},
	"fleet-full":  {devices: 2000, traceS: 1200, telemetry: true, recordEvery: 2},
	"fleet-serve": {devices: 2000, telemetry: true, recordEvery: 1, paced: true},
}

// fleetLayer lists the per-layer metrics of the fleet stack. Shares are
// of the wall time of the traced ticks.
var fleetLayer = []metricDef{
	{Name: "fleet.step_pct", Unit: "%"},
	{Name: "fleet.barrier_pct", Unit: "%"},
	{Name: "fleet.record_pct", Unit: "%"},
	{Name: "fleet.checkpoint_pct", Unit: "%"},
	{Name: "fleet.shard_imbalance", Unit: "ratio"},
	{Name: "fleet.tick_busy_pct", Unit: "%"},
	{Name: "fleet.cmd_server_pct", Unit: "%"},
	{Name: "pmic.write_read_ratio", Unit: "ratio"},
	{Name: "store.sync_pct", Unit: "%"},
	{Name: "store.pages_written", Unit: "count"},
	{Name: "snapshot.bytes", Unit: "B"},
	{Name: "fleet.push_frames", Unit: "count"},
	{Name: "fleet.alert_transitions", Unit: "count"},
	{Name: "push.drop_ratio", Unit: "ratio"},
	{Name: "cmd.error_ratio", Unit: "ratio"},
}

// provisioner builds each device's configuration as a pure function of
// (seed, id), so any device can be rebuilt and replayed alone. Every
// pack is QuickCharge-2000 + Standard-2000 (dense curves, so every
// device runs the struct-of-arrays path); every third device also runs
// the policy runtime.
type provisioner struct {
	seed         int64
	traces       [loadLevels]*workload.Trace
	recordEveryS float64
}

func newProvisioner(seed int64, traceS int, recordEveryS float64) *provisioner {
	p := &provisioner{seed: seed, recordEveryS: recordEveryS}
	for l := range p.traces {
		// 1-3 W constant loads. A pack that starts at half charge still
		// holds more than twice what an hour at 3 W draws, so no pack
		// empties and every device runs its whole trace. Devices share
		// these traces read-only: one copy per load level, not per device.
		w := 1 + 2*float64(l)/(loadLevels-1)
		p.traces[l] = workload.Constant(fmt.Sprintf("load-%d", l), w, float64(traceS), 1)
	}
	return p
}

func (p *provisioner) device(id uint16) (emulator.Config, error) {
	r := splitmix(uint64(p.seed) ^ splitmix(uint64(id)))
	soc := 0.5 + 0.5*float64(r>>11)/(1<<53)
	st, err := emulator.NewStack(soc, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		return emulator.Config{}, err
	}
	cfg := emulator.Config{
		Controller:   st.Controller,
		Trace:        p.traces[splitmix(r)%loadLevels],
		PolicyEveryS: 60,
		RecordEveryS: p.recordEveryS,
	}
	if id%3 == 0 {
		cfg.Runtime = st.Runtime
	}
	return cfg, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// written reports whether the operator client may send writes to id;
// the other devices are the ones replayed alone.
func written(id uint16) bool { return id%4 == 1 }

// replayIDs picks the seed's devices for the solo replay check.
func replayIDs(seed int64, devices int) []uint16 {
	var out []uint16
	for _, i := range rand.New(rand.NewSource(seed)).Perm(devices) {
		if id := uint16(i); !written(id) && len(out) < soloReplays {
			out = append(out, id)
		}
	}
	return out
}

// episode is one fleet built from scratch, ticked to the end of its
// traces, checked and torn down.
type episode struct {
	shape  fleetShape
	f      *fleet.Fleet
	reg    *obs.Registry
	shards []*obs.Histogram
	prev   []float64
	dir    string
	st     *store.Store
	sub    *subscriber
	ticks  int

	servers  sync.WaitGroup
	serveMu  sync.Mutex
	serveErr error
	conns    []net.Conn
}

// newEpisode is the set-up a user waits for: build every device, open
// the store, connect and subscribe.
func newEpisode(shape fleetShape, prov *provisioner, rules []ts.Rule, dir string, tr *tracer) (*episode, error) {
	t0 := time.Now()
	e := &episode{shape: shape, reg: obs.NewRegistry(), dir: dir}
	cfg := fleet.Config{Shards: fleetShards, Batch: fleetBatch, Obs: e.reg}
	if shape.telemetry {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		st, err := store.Create(filepath.Join(dir, "telemetry.sdbstor"), store.Options{})
		if err != nil {
			return nil, err
		}
		e.st = st
		cfg.Record, cfg.RecordEvery, cfg.Rules = st, shape.recordEvery, rules
		cfg.Checkpoint, cfg.CheckpointEvery = filepath.Join(dir, "fleet.sdbsnap"), checkpointEvery
	}
	e.f = fleet.New(cfg)
	for i := 0; i < shape.devices; i++ {
		id := uint16(i)
		dcfg, err := prov.device(id)
		if err == nil {
			err = e.f.Add(id, dcfg)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("device %d: %w", id, err)
		}
	}
	for i := 0; i < fleetShards; i++ {
		e.shards = append(e.shards, e.reg.Histogram(fmt.Sprintf("sdb_fleet_shard%d_batch_seconds", i), nil))
	}
	e.prev = make([]float64, fleetShards)
	if shape.telemetry {
		sub, err := e.subscribe(tr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sub = sub
	}
	tr.add("build", "setup", laneMain, t0, time.Now(), map[string]any{"devices": shape.devices})
	return e, nil
}

// connect opens one in-process connection to the fleet's command loop.
func (e *episode) connect() (*pmic.Client, net.Conn) {
	srv, cli := net.Pipe()
	e.servers.Add(1)
	go func() {
		defer e.servers.Done()
		err := e.f.Serve(srv)
		srv.Close()
		if err != nil {
			e.serveMu.Lock()
			e.serveErr = err
			e.serveMu.Unlock()
		}
	}()
	e.conns = append(e.conns, cli)
	c := pmic.NewClient(cli)
	c.Timeout = 10 * time.Second
	return c, cli
}

// close stops every goroutine the episode started and frees its files.
func (e *episode) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	e.servers.Wait()
	var err error
	if e.sub != nil {
		if rerr := <-e.sub.done; !errors.Is(rerr, io.ErrClosedPipe) {
			err = fmt.Errorf("push reader: %v", rerr)
		}
	}
	if e.f != nil {
		e.f.Close()
	}
	if e.st != nil {
		if cerr := e.st.Close(); err == nil {
			err = cerr
		}
	}
	e.serveMu.Lock()
	if e.serveErr != nil && err == nil {
		err = e.serveErr
	}
	e.serveMu.Unlock()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// tickRec is one timed Tick. The busiest and mean shard busy times come
// from the fleet's own per-shard batch histograms, read between ticks.
type tickRec struct {
	wallMS, stepMaxMS, stepMeanMS float64
	record, checkpoint, traced    bool
}

// tick runs one Tick; it returns the tick's record and the count of
// devices still running afterwards.
func (e *episode) tick(tr *tracer) (tickRec, int) {
	e.ticks++
	t0 := time.Now()
	active := e.f.Tick(tickSteps)
	t1 := time.Now()
	rec := tickRec{wallMS: ms(t1.Sub(t0)), traced: tr.active()}
	for i, h := range e.shards {
		s := h.Sum()
		d := (s - e.prev[i]) * 1e3
		e.prev[i] = s
		rec.stepMeanMS += d / fleetShards
		if d > rec.stepMaxMS {
			rec.stepMaxMS = d
		}
	}
	if e.shape.telemetry {
		rec.record = e.ticks%e.shape.recordEvery == 0
		rec.checkpoint = e.ticks%checkpointEvery == 0
	}
	class := "plain"
	switch {
	case rec.checkpoint:
		class = "checkpoint"
	case rec.record:
		class = "record"
	}
	tr.add("Tick", "fleet", laneMain, t0, t1, map[string]any{"tick": e.ticks, "class": class})
	return rec, active
}

// running checks a tick's count of still-running devices: all of them
// until the traces end, none after the last tick. A device that stops
// early errored, was quarantined or emptied its pack.
func (e *episode) running(m *measurement, active, wantTicks int) bool {
	want := e.shape.devices
	if e.ticks == wantTicks {
		want = 0
	}
	if active == want {
		return true
	}
	m.failed++
	m.problem("tick %d of %d: %d devices running, want %d", e.ticks, wantTicks, active, want)
	return false
}

// maybeSync commits the store every syncEvery ticks; it returns the
// time the commit took (0 when none was due).
func (e *episode) maybeSync(tr *tracer) (float64, error) {
	if e.st == nil || e.ticks%syncEvery != 0 {
		return 0, nil
	}
	t0 := time.Now()
	err := e.st.Sync()
	t1 := time.Now()
	tr.add("Sync", "store", laneMain, t0, t1, nil)
	return ms(t1.Sub(t0)), err
}

// episodeCounts are the per-episode counts that repeat exactly for a
// seed, plus the push ledger totals.
type episodeCounts struct {
	pages, snapshotBytes, transitions float64
	pushed, dropped                   uint64
}

// verify checks an episode whose traces have all ended: every device
// ran every step with no error or quarantine, the telemetry plane lost
// nothing, and the replayed devices match their solo runs bit for bit.
func (e *episode) verify(m *measurement, prov *provisioner, replay []uint16, tr *tracer) episodeCounts {
	var c episodeCounts
	want := uint64(e.shape.devices) * uint64(e.shape.traceS)
	if got := e.f.Stat().Steps; got != want {
		m.problem("fleet ran %d steps, want %d devices x %d", got, e.shape.devices, e.shape.traceS)
	}
	if q := e.f.Quarantined(); len(q) > 0 {
		m.problem("%d devices quarantined, first %d", len(q), q[0])
	}
	for _, id := range e.f.IDs() {
		if err := e.f.Err(id); err != nil {
			m.problem("device %d: %v", id, err)
			break
		}
	}
	if e.shape.telemetry {
		if err := e.f.RecordErr(); err != nil {
			m.problem("recording: %v", err)
		}
		if n := e.reg.Counter("sdb_fleet_checkpoint_errors_total").Value(); n != 0 {
			m.problem("%d checkpoint errors", n)
		}
		pushed, dropped, err := e.sub.settle(e.f)
		if err != nil {
			m.problem("push ledger: %v", err)
		}
		c.pushed, c.dropped = pushed, dropped
		c.pages = float64(e.st.Stats().PagesWritten)
		c.transitions = float64(len(e.f.AlertTransitions()))
		if e.ticks >= checkpointEvery {
			if fi, err := os.Stat(filepath.Join(e.dir, "fleet.sdbsnap")); err != nil {
				m.problem("checkpoint: %v", err)
			} else {
				c.snapshotBytes = float64(fi.Size())
			}
		}
	}
	for _, id := range replay {
		t0 := time.Now()
		if err := soloReplay(e.f, prov, id); err != nil {
			m.problem("solo replay: %v", err)
		}
		tr.add("replay", "check", laneMain, t0, time.Now(), map[string]any{"device": id})
	}
	return c
}

// soloReplay re-runs one device alone through emulator.Run on the
// scalar path and requires its Result to equal the fleet's bit for bit.
func soloReplay(f *fleet.Fleet, prov *provisioner, id uint16) error {
	got, err := f.Result(id)
	if err != nil {
		return fmt.Errorf("device %d: %w", id, err)
	}
	cfg, err := prov.device(id)
	if err != nil {
		return err
	}
	want, err := emulator.Run(cfg)
	if err != nil {
		return fmt.Errorf("device %d alone: %w", id, err)
	}
	if want.DrainedAtS >= 0 {
		return fmt.Errorf("device %d: pack emptied at %gs; the loads are sized so none does", id, want.DrainedAtS)
	}
	a, errA := gobBytes(got)
	b, errB := gobBytes(want)
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("device %d: fleet result differs from its solo run", id)
	}
	return nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// fleetRun accumulates one run's fleet measurements across episodes.
type fleetRun struct {
	setups, heaps   []float64
	ticks           []tickRec
	syncTracedMS    float64
	window, traced  time.Duration // measured wall time, and its traced part
	steps           float64
	counts          *episodeCounts
	pushed, dropped uint64
}

// addCounts totals the push ledger and keeps the first episode's
// counts, which every episode of the run repeats.
func (r *fleetRun) addCounts(c episodeCounts) {
	r.pushed += c.pushed
	r.dropped += c.dropped
	if r.counts == nil {
		r.counts = &c
	}
}

// report sets the end-to-end metrics (ops are the fleet's ticks) and
// the fleet's per-layer metrics.
func (r *fleetRun) report(m *measurement, opsMS []float64) {
	m.set("setup_s", "s", median(r.setups))
	m.set("steps_per_s", "1/s", r.steps/r.window.Seconds())
	m.set("op.p50_ms", "ms", median(opsMS))
	m.set("op_tail_ms", "ms", quantile(opsMS, tailQuantile(len(opsMS))))
	m.set("heap_mb", "MB", median(r.heaps))
	m.set("op.count", "count", float64(len(opsMS)))

	var traced []tickRec
	var tickMS float64
	for _, t := range r.ticks {
		if t.traced {
			traced = append(traced, t)
			tickMS += t.wallMS
		}
	}
	attribute(m, traced)
	if r.traced > 0 {
		m.set("fleet.tick_busy_pct", "%", 100*tickMS/ms(r.traced))
		m.set("store.sync_pct", "%", 100*r.syncTracedMS/ms(r.traced))
	}
	if c := r.counts; c != nil {
		m.set("store.pages_written", "count", c.pages)
		m.set("snapshot.bytes", "B", c.snapshotBytes)
		m.set("fleet.push_frames", "count", float64(c.pushed))
		m.set("fleet.alert_transitions", "count", c.transitions)
	}
	if r.pushed > 0 {
		m.set("push.drop_ratio", "ratio", float64(r.dropped)/float64(r.pushed))
	}
}

// attribute splits the traced ticks' wall time between the busiest
// shard's stepping and the barrier. Barrier work is told apart by tick
// class: every tick evaluates alerts and publishes; record ticks also
// write the store; checkpoint ticks (which also record) also write a
// checkpoint. Each class's extra cost is the difference between class
// medians of wall minus stepping. When every tick records, recording
// is counted in the barrier share.
func attribute(m *measurement, ticks []tickRec) {
	var total, step float64
	var plain, rec, ckpt, imbalance []float64
	for _, t := range ticks {
		total += t.wallMS
		step += t.stepMaxMS
		rest := t.wallMS - t.stepMaxMS
		switch {
		case t.checkpoint:
			ckpt = append(ckpt, rest)
		case t.record:
			rec = append(rec, rest)
		default:
			plain = append(plain, rest)
		}
		if t.stepMeanMS > 0 {
			imbalance = append(imbalance, t.stepMaxMS/t.stepMeanMS)
		}
	}
	if total == 0 {
		return
	}
	base, recCost, ckptCost := median(plain), 0.0, 0.0
	if len(plain) == 0 {
		base = median(rec)
	} else if len(rec) > 0 {
		recCost = median(rec) - base
	}
	if len(ckpt) > 0 {
		ckptCost = median(ckpt) - base - recCost
	}
	n := float64(len(ticks))
	m.set("fleet.step_pct", "%", 100*step/total)
	m.set("fleet.barrier_pct", "%", 100*n*base/total)
	m.set("fleet.record_pct", "%", 100*float64(len(rec)+len(ckpt))*recCost/total)
	m.set("fleet.checkpoint_pct", "%", 100*float64(len(ckpt))*ckptCost/total)
	m.set("fleet.shard_imbalance", "ratio", median(imbalance))
}

// runFleet runs fleet-drain and fleet-full: episode after episode, each
// a fresh fleet ticked unpaced until its traces end, until the window
// is spent. Set-up, checks and teardown fall outside the window.
func runFleet(rc *runConfig, tr *tracer) (*measurement, error) {
	shape := fleetShapes[rc.workload]
	if rc.devices > 0 {
		shape.devices = rc.devices
	}
	if shape.paced {
		return runServe(rc, shape, tr)
	}
	var rules []ts.Rule
	if shape.telemetry {
		var err error
		if rules, err = ts.ParseRules(fleetAlertRules); err != nil {
			return nil, err
		}
	}
	m := newMeasurement()
	m.zero(fleetLayer)
	m.zero(figuresLayer())
	prov := newProvisioner(rc.seed, shape.traceS, shape.recordEveryS)
	replay := replayIDs(rc.seed, shape.devices)
	wantTicks := shape.traceS / tickSteps

	var run fleetRun
	window := seconds(rc.seconds)
	var last time.Duration
	for ep := 0; ep == 0 || keepGoing(run.window, last, window); ep++ {
		traced := rc.trace && ep%2 == 1
		runtime.GC() // the previous episode's garbage, outside the timings
		tr.set(traced)
		t0 := time.Now()
		e, err := newEpisode(shape, prov, rules, filepath.Join(rc.workDir, fmt.Sprintf("ep%d", ep)), tr)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())

		w0 := time.Now()
		var syncMS float64
		for active := shape.devices; active > 0; {
			var rec tickRec
			rec, active = e.tick(tr)
			m.attempted++
			if !e.running(m, active, wantTicks) {
				active = 0
			}
			s, err := e.maybeSync(tr)
			if err != nil {
				m.problem("store sync: %v", err)
			}
			syncMS += s
			run.ticks = append(run.ticks, rec)
		}
		wall := time.Since(w0)
		last = wall
		run.window += wall
		run.steps += float64(e.f.Stat().Steps)
		if traced {
			run.traced += wall
			run.syncTracedMS += syncMS
		}

		logf("%s episode %d: %d ticks in %.2fs, setup %.3fs, traced %v", rc.workload, ep, e.ticks, wall.Seconds(), run.setups[ep], traced)
		run.addCounts(e.verify(m, prov, replay, tr))
		tr.set(false)
		run.heaps = append(run.heaps, liveHeapMB())
		if err := e.close(); err != nil {
			m.problem("teardown: %v", err)
		}
	}
	if err := extraSetups(&run.setups, fleetSetups, shape, prov, rules, rc.workDir); err != nil {
		return nil, err
	}
	var opsMS, tracedMS, plainMS []float64
	for _, t := range run.ticks {
		opsMS = append(opsMS, t.wallMS)
		if t.traced {
			tracedMS = append(tracedMS, t.wallMS)
		} else {
			plainMS = append(plainMS, t.wallMS)
		}
	}
	run.report(m, opsMS)
	m.set("trace.overhead_pct", "%", overheadPct(tracedMS, plainMS))
	return m, nil
}

// extraSetups builds and tears down fleets until there are n set-up
// times to take the median of.
func extraSetups(setups *[]float64, n int, shape fleetShape, prov *provisioner, rules []ts.Rule, workDir string) error {
	for i := 0; len(*setups) < n; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := newEpisode(shape, prov, rules, filepath.Join(workDir, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
		if err := e.close(); err != nil {
			return err
		}
	}
	return nil
}
