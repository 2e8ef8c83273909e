package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sdb/internal/fleet"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// subscriber is the live-telemetry consumer: one connection carrying a
// fleet-wide metrics subscription (one push per device per tick) and an
// alerts subscription, read continuously by its own goroutine until
// the connection closes.
type subscriber struct {
	c      *pmic.Client
	ids    [2]uint64
	mu     sync.Mutex
	got    map[uint64]uint64 // frames received per subscription
	notify chan struct{}     // one pending wake-up after each frame
	done   chan error
}

func (e *episode) subscribe(tr *tracer) (*subscriber, error) {
	c, conn := e.connect()
	s := &subscriber{
		c:      c,
		got:    map[uint64]uint64{},
		notify: make(chan struct{}, 1),
		done:   make(chan error, 1),
	}
	specs := []pmic.SubscriptionSpec{
		{Fleet: true, Signals: pmic.SubSigMetrics, CadenceS: tickSteps},
		{Fleet: true, Signals: pmic.SubSigAlerts},
	}
	for i, spec := range specs {
		id, err := s.c.Subscribe(spec)
		if err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		s.ids[i] = id
	}
	// A call leaves its deadline armed; the reader waits without one.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	go s.read(tr)
	return s, nil
}

func (s *subscriber) read(tr *tracer) {
	for {
		t0 := time.Now()
		p, err := s.c.ReadPush(0)
		if err != nil {
			s.done <- err
			return
		}
		if tr.active() {
			tr.add("ReadPush", "push", laneSubscriber, t0, time.Now(), map[string]any{"sub": p.SubID})
		}
		s.mu.Lock()
		s.got[p.SubID]++
		s.mu.Unlock()
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// settle waits, once ticking has stopped, until every frame the fleet
// queued has arrived, then checks that no frame beyond the ledger
// follows: received = pushed - dropped, per subscription.
func (s *subscriber) settle(f *fleet.Fleet) (pushed, dropped uint64, err error) {
	owed := map[uint64]uint64{}
	for _, st := range f.SubStats() {
		if st.ID == s.ids[0] || st.ID == s.ids[1] {
			owed[st.ID] = st.Pushed - st.Dropped
			pushed += st.Pushed
			dropped += st.Dropped
		}
	}
	caughtUp := func() (bool, string) {
		s.mu.Lock()
		defer s.mu.Unlock()
		ok := true
		for _, id := range s.ids {
			if s.got[id] > owed[id] {
				return false, fmt.Sprintf("subscription %d: %d frames received, ledger owes %d", id, s.got[id], owed[id])
			}
			ok = ok && s.got[id] == owed[id]
		}
		return ok, ""
	}
	deadline := time.After(10 * time.Second)
	for {
		ok, over := caughtUp()
		if over != "" {
			return pushed, dropped, errors.New(over)
		}
		if ok {
			break
		}
		select {
		case <-s.notify:
		case <-deadline:
			return pushed, dropped, fmt.Errorf("frames still missing 10s after the last tick (received %v, owed %v)", s.snapshot(), owed)
		}
	}
	// Nothing signals the absence of a frame: give a stray one time to
	// arrive, then count again.
	time.Sleep(100 * time.Millisecond)
	if _, over := caughtUp(); over != "" {
		return pushed, dropped, fmt.Errorf("frame beyond the ledger: %s", over)
	}
	return pushed, dropped, nil
}

func (s *subscriber) snapshot() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.got))
	for k, v := range s.got {
		out[k] = v
	}
	return out
}

// cmdSample is one operator command, timed from send to reply.
type cmdSample struct {
	ms            float64
	write, traced bool
	err           error
}

// operator is a closed-loop client on its own connection: it sends a
// command, waits for the reply, thinks for 1 ms, and repeats. The mix is
// 60% battery-status reads and 20% ratio reads of any device, and 20%
// discharge-ratio writes to devices with id = 1 (mod 4).
//
// Its calls carry no deadline: arming one per call re-arms a runtime
// timer and can wake the network poller's thread, which added run-to-run
// noise to the command latency on a 2-core VM. finish bounds a hung
// call instead.
type operator struct {
	c       *pmic.Client
	conn    net.Conn
	rng     *rand.Rand
	devices int
	tr      *tracer
	stop    chan struct{}
	done    chan struct{}
	samples []cmdSample // owned by the operator goroutine until done closes
}

func (e *episode) startOperator(seed int64, tr *tracer) *operator {
	c, conn := e.connect()
	c.Timeout = 0
	o := &operator{
		c:       c,
		conn:    conn,
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		devices: e.shape.devices,
		tr:      tr,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go o.run()
	return o
}

func (o *operator) run() {
	defer close(o.done)
	for {
		select {
		case <-o.stop:
			return
		default:
		}
		kind := o.rng.Intn(10)
		dev := uint16(o.rng.Intn(o.devices))
		if kind >= 8 { // a write: only to the devices written() names
			dev = uint16(4*o.rng.Intn((o.devices+2)/4) + 1)
		}
		r := 0.3 + 0.4*o.rng.Float64()
		d := o.c.Device(dev)

		traced := o.tr.active()
		t0 := time.Now()
		var err error
		name := "QueryBatteryStatus"
		switch {
		case kind < 6:
			_, err = d.QueryBatteryStatus()
		case kind < 8:
			name = "Ratios"
			_, _, err = d.Ratios()
		default:
			name = "Discharge"
			err = d.Discharge([]float64{r, 1 - r})
		}
		t1 := time.Now()
		if traced {
			o.tr.add(name, "command", laneOperator, t0, t1, map[string]any{"device": dev})
		}
		o.samples = append(o.samples, cmdSample{ms: ms(t1.Sub(t0)), write: kind >= 8, traced: traced, err: err})
		time.Sleep(time.Millisecond)
	}
}

// finish stops the operator and returns its samples. A call still
// unanswered after 10 s is cut off by closing the connection, and fails.
func (o *operator) finish() []cmdSample {
	close(o.stop)
	select {
	case <-o.done:
	case <-time.After(10 * time.Second):
		o.conn.Close()
		<-o.done
	}
	return o.samples
}

// runServe is fleet-serve: one fleet at serve provisioning, paced at
// one tick per wall second for as many ticks as the window has seconds,
// with the subscriber and the operator running beside it. The fleet is
// built fleetSetups times for the set-up median; the last one is measured.
func runServe(rc *runConfig, shape fleetShape, tr *tracer) (*measurement, error) {
	ticks := int(math.Max(1, math.Round(rc.seconds)))
	shape.traceS = ticks * tickSteps
	rules, err := ts.ParseRules(fleetAlertRules)
	if err != nil {
		return nil, err
	}
	m := newMeasurement()
	m.zero(fleetLayer)
	m.zero(figuresLayer())
	prov := newProvisioner(rc.seed, shape.traceS, shape.recordEveryS)
	var run fleetRun
	if err := extraSetups(&run.setups, fleetSetups-1, shape, prov, rules, rc.workDir); err != nil {
		return nil, err
	}
	runtime.GC()
	tr.set(rc.trace)
	t0 := time.Now()
	e, err := newEpisode(shape, prov, rules, filepath.Join(rc.workDir, "serve"), tr)
	if err != nil {
		return nil, err
	}
	run.setups = append(run.setups, time.Since(t0).Seconds())

	const period = time.Second
	op := e.startOperator(rc.seed, tr)
	var tracedTicks int
	w0 := time.Now()
	for k := 0; k < ticks; k++ {
		time.Sleep(time.Until(w0.Add(time.Duration(k) * period)))
		traced := rc.trace && k%2 == 1
		tr.set(traced)
		rec, active := e.tick(tr)
		if !e.running(m, active, ticks) {
			break
		}
		s, err := e.maybeSync(tr)
		if err != nil {
			m.problem("store sync: %v", err)
		}
		run.ticks = append(run.ticks, rec)
		if traced {
			tracedTicks++
			run.syncTracedMS += s
		}
	}
	time.Sleep(time.Until(w0.Add(time.Duration(ticks) * period)))
	wall := time.Since(w0)
	samples := op.finish()
	tr.set(rc.trace)
	run.window = wall
	run.traced = time.Duration(tracedTicks) * period
	run.steps = float64(e.f.Stat().Steps)

	run.addCounts(e.verify(m, prov, replayIDs(rc.seed, shape.devices), tr))
	tr.set(false)
	run.heaps = append(run.heaps, liveHeapMB())
	server := e.reg.Histogram("sdb_fleet_cmd_seconds", nil)
	serverSumMS, served := 1e3*server.Sum(), server.Count()
	if err := e.close(); err != nil {
		m.problem("teardown: %v", err)
	}

	var all, tracedMS, plainMS, reads, writes []float64
	var failed int64
	for _, s := range samples {
		if s.err != nil {
			if failed == 0 {
				m.problem("command: %v", s.err)
			}
			failed++
			continue
		}
		all = append(all, s.ms)
		if s.traced {
			tracedMS = append(tracedMS, s.ms)
			if s.write {
				writes = append(writes, s.ms)
			} else {
				reads = append(reads, s.ms)
			}
		} else {
			plainMS = append(plainMS, s.ms)
		}
	}
	m.attempted += int64(len(samples))
	m.failed += failed
	if len(samples) == 0 {
		m.problem("the operator completed no command")
	}
	run.report(m, all)
	if n := len(samples); n > 0 {
		m.set("cmd.error_ratio", "ratio", float64(failed)/float64(n))
	}
	if c := sum(all); c > 0 && served > 0 {
		// Mean server-side handling time over the mean round trip.
		m.set("fleet.cmd_server_pct", "%", 100*(serverSumMS/float64(served))/(c/float64(len(all))))
	}
	if r := median(reads); r > 0 {
		m.set("pmic.write_read_ratio", "ratio", median(writes)/r)
	}
	m.set("trace.overhead_pct", "%", overheadPct(tracedMS, plainMS))
	return m, nil
}
