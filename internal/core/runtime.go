package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// Metrics summarizes the two key quantities SDB policies optimize
// (Section 3.3).
type Metrics struct {
	// RBLJoules is the remaining battery lifetime proxy: the useful
	// energy left across the pack assuming no further charging.
	RBLJoules float64
	// CCB is the cycle count balance: max wear ratio over min wear
	// ratio (1 is perfectly balanced).
	CCB float64
	// MeanSoC is the capacity-weighted mean state of charge.
	MeanSoC float64
	// TotalCycles sums cycle counts across batteries.
	TotalCycles float64
}

// ComputeMetrics derives Metrics from a status snapshot.
func ComputeMetrics(sts []pmic.BatteryStatus) Metrics {
	const eps = 1e-9
	var m Metrics
	minW, maxW := -1.0, 0.0
	var capSum, socSum float64
	for _, s := range sts {
		m.RBLJoules += s.EnergyRemainingJ
		m.TotalCycles += s.CycleCount
		capSum += s.CapacityCoulombs
		socSum += s.SoC * s.CapacityCoulombs
		if minW < 0 || s.WearRatio < minW {
			minW = s.WearRatio
		}
		if s.WearRatio > maxW {
			maxW = s.WearRatio
		}
	}
	if capSum > 0 {
		m.MeanSoC = socSum / capSum
	}
	if maxW <= eps {
		m.CCB = 1
	} else {
		if minW <= eps {
			minW = eps
		}
		m.CCB = maxW / minW
	}
	return m
}

// Options configures a Runtime. Zero-value fields get defaults: the
// blended CCB/RBL policies with directives 0 (CCB first).
type Options struct {
	// DischargePolicy overrides the default blended discharge policy.
	DischargePolicy DischargePolicy
	// ChargePolicy overrides the default blended charge policy.
	ChargePolicy ChargePolicy
	// ChargingDirective and DischargingDirective seed the directive
	// parameters (each clamped to [0,1]; NaN counts as 0).
	ChargingDirective    float64
	DischargingDirective float64

	// DegradeAfter, SafeModeAfter, and FailAfter set the consecutive
	// failed-update thresholds of the degradation ladder (see Health).
	// Zero values default to 1, 5, and 25; the three must be
	// non-decreasing.
	DegradeAfter  int
	SafeModeAfter int
	FailAfter     int
	// HealthLogSize bounds the health-transition event log (default 64).
	HealthLogSize int

	// Obs attaches a measurement plane: policy-decision counters, the
	// health gauge, and the structured policy-audit log. Nil falls back
	// to the process default registry; a nil default leaves the runtime
	// uninstrumented (every operation a nil-receiver no-op).
	Obs *obs.Registry
}

// Runtime is the SDB Runtime of Figure 5: it encapsulates the SDB
// microcontroller from the rest of the OS and owns all scheduling
// decisions affecting charging and discharging. Other OS components
// set policies and directive parameters; the power manager calls
// Update with the present load, and the runtime pushes fresh ratio
// vectors to the firmware.
type Runtime struct {
	mu  sync.Mutex
	api pmic.API
	n   int

	disPolicy DischargePolicy
	chgPolicy ChargePolicy
	chgDir    float64
	disDir    float64

	lastDis []float64
	lastChg []float64

	// Degradation ladder state (see health.go).
	health       Health
	consecFails  int
	totalFails   int64
	lastErr      error
	degradeAfter int
	safeAfter    int
	failAfter    int
	healthLog    []HealthEvent
	logCap       int
	eventSeq     int64

	// Measurement plane (nil metrics are no-ops). simTimeS is the
	// caller-provided simulation clock (NoteTime) stamped onto audit
	// records and trace events.
	om       coreMetrics
	simTimeS float64
}

// coreMetrics bundles the runtime's observables.
type coreMetrics struct {
	reg         *obs.Registry
	tracer      *obs.Tracer
	audit       *obs.AuditLog
	decisions   *obs.Counter
	policyErrs  *obs.Counter
	transitions *obs.Counter
	maskedCells *obs.Counter
	healthState *obs.Gauge
}

func newCoreMetrics(reg *obs.Registry) coreMetrics {
	return coreMetrics{
		reg:         reg,
		tracer:      reg.Tracer(),
		audit:       reg.Audit(),
		decisions:   reg.Counter("sdb_core_policy_decisions_total"),
		policyErrs:  reg.Counter("sdb_core_policy_errors_total"),
		transitions: reg.Counter("sdb_core_health_transitions_total"),
		maskedCells: reg.Counter("sdb_core_masked_cells_total"),
		healthState: reg.Gauge("sdb_core_health_state"),
	}
}

// NewRuntime connects a runtime to a controller (in-process or over
// the bus — anything implementing pmic.API).
func NewRuntime(api pmic.API, opts Options) (*Runtime, error) {
	if api == nil {
		return nil, errors.New("core: nil controller API")
	}
	if err := api.Ping(); err != nil {
		return nil, fmt.Errorf("core: controller unreachable: %w", err)
	}
	n, err := api.BatteryCount()
	if err != nil {
		return nil, fmt.Errorf("core: battery count: %w", err)
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: controller reports %d batteries", n)
	}
	r := &Runtime{
		api:          api,
		n:            n,
		chgDir:       clamp01(opts.ChargingDirective),
		disDir:       clamp01(opts.DischargingDirective),
		degradeAfter: defaultInt(opts.DegradeAfter, 1),
		safeAfter:    defaultInt(opts.SafeModeAfter, 5),
		failAfter:    defaultInt(opts.FailAfter, 25),
		logCap:       defaultInt(opts.HealthLogSize, 64),
		om:           newCoreMetrics(opts.Obs.Or(obs.Default())),
	}
	r.om.healthState.Set(float64(Healthy))
	// Defaulted thresholds bend to explicit ones (FailAfter: 3 alone
	// must not collide with the default SafeModeAfter of 5); explicit
	// contradictions are configuration bugs.
	if opts.SafeModeAfter <= 0 && r.safeAfter > r.failAfter {
		r.safeAfter = r.failAfter
	}
	if opts.DegradeAfter <= 0 && r.degradeAfter > r.safeAfter {
		r.degradeAfter = r.safeAfter
	}
	if r.degradeAfter > r.safeAfter || r.safeAfter > r.failAfter {
		return nil, fmt.Errorf("core: degradation thresholds must be non-decreasing: %d/%d/%d",
			r.degradeAfter, r.safeAfter, r.failAfter)
	}
	if opts.DischargePolicy != nil {
		r.disPolicy = opts.DischargePolicy
	}
	if opts.ChargePolicy != nil {
		r.chgPolicy = opts.ChargePolicy
	}
	if r.disPolicy == nil || r.chgPolicy == nil {
		blended := NewBlended(r.Directives)
		if r.disPolicy == nil {
			r.disPolicy = blended
		}
		if r.chgPolicy == nil {
			r.chgPolicy = blended
		}
	}
	return r, nil
}

// Directives returns the current charging and discharging directive
// parameters.
func (r *Runtime) Directives() (chg, dis float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chgDir, r.disDir
}

// SetDirectives updates the directive parameters (clamped to [0,1];
// NaN counts as 0, the zero-value directive). High values prioritize
// RBL (immediate useful charge), low values prioritize CCB (longevity).
func (r *Runtime) SetDirectives(chg, dis float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chgDir = clamp01(chg)
	r.disDir = clamp01(dis)
}

// SetDischargePolicy swaps the discharge policy at runtime — the
// paper's "policies upgraded with a software update" property.
func (r *Runtime) SetDischargePolicy(p DischargePolicy) error {
	if p == nil {
		return errors.New("core: nil discharge policy")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disPolicy = p
	return nil
}

// SetChargePolicy swaps the charge policy at runtime.
func (r *Runtime) SetChargePolicy(p ChargePolicy) error {
	if p == nil {
		return errors.New("core: nil charge policy")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chgPolicy = p
	return nil
}

// PolicyNames reports the active policy names (discharge, charge).
func (r *Runtime) PolicyNames() (dis, chg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.disPolicy.Name(), r.chgPolicy.Name()
}

// BatteryCount returns the number of batteries under management.
func (r *Runtime) BatteryCount() int { return r.n }

// QueryBatteryStatus proxies the firmware status query.
func (r *Runtime) QueryBatteryStatus() ([]pmic.BatteryStatus, error) {
	return r.api.QueryBatteryStatus()
}

// Metrics returns the pack-level CCB/RBL metrics.
func (r *Runtime) Metrics() (Metrics, error) {
	sts, err := r.api.QueryBatteryStatus()
	if err != nil {
		return Metrics{}, err
	}
	return ComputeMetrics(sts), nil
}

// UpdateResult reports what an Update pushed to the firmware. After a
// successful tick the slices are the runtime's own latched vectors,
// valid until the next Update refills them in place; LastRatios
// returns copies that stay valid.
type UpdateResult struct {
	Discharge []float64
	Charge    []float64
}

// tickScratch is one policy tick's working memory: the status records,
// and the ratio buffer that holds the discharge vector, then the
// charge vector, then whatever scratch the policies use past them (see
// DischargePolicy's append contract).
type tickScratch struct {
	sts    []pmic.BatteryStatus
	ratios []float64
}

// tickPool lends tick scratch to every Runtime in the process. Scratch
// kept per Runtime would stay allocated for each of a fleet's
// thousands of runtimes between ticks; pooled, there are only about as
// many buffers as goroutines ticking at once.
var tickPool = sync.Pool{New: func() any { return new(tickScratch) }}

// Update is the runtime's periodic tick (the paper computes ratios "at
// coarse granular time steps"): it queries battery status, runs the
// active policies for the present load and charging power, masks
// firmware-isolated cells out of the ratio vectors, and pushes both
// vectors to the firmware.
//
// A failed tick does not surface an error immediately: the runtime
// walks the degradation ladder (see Health), re-pushing last-known-good
// ratios while Degraded and the uniform safe split in SafeMode, and
// returns an error only once the Failed threshold is crossed. Any
// successful tick restores Healthy.
func (r *Runtime) Update(loadW, chargeW float64) (UpdateResult, error) {
	res, err := r.tryUpdate(loadW, chargeW)
	if err == nil {
		r.noteSuccess()
		return res, nil
	}
	health, fails := r.noteFailure(err)
	switch health {
	case Failed:
		return UpdateResult{}, fmt.Errorf("core: update failed %d consecutive times: %w", fails, err)
	case SafeMode:
		uni := appendUniform(nil, r.n)
		r.pushBestEffort(uni, uni)
		return UpdateResult{Discharge: uni, Charge: uni}, nil
	case Degraded:
		dis, chg := r.LastRatios()
		if dis != nil && chg != nil {
			r.pushBestEffort(dis, chg)
		}
		return UpdateResult{Discharge: dis, Charge: chg}, nil
	}
	// Below every threshold: absorb the blip, keep the latched ratios.
	return UpdateResult{}, nil
}

// tryUpdate is one full status -> policy -> mask -> push cycle. Its
// statuses and ratio vectors live in pooled scratch, so a healthy tick
// allocates nothing.
func (r *Runtime) tryUpdate(loadW, chargeW float64) (UpdateResult, error) {
	sc := tickPool.Get().(*tickScratch)
	defer tickPool.Put(sc)
	sts, err := r.api.QueryBatteryStatusInto(sc.sts)
	if err != nil {
		return UpdateResult{}, fmt.Errorf("core: update status query: %w", err)
	}
	sc.sts = sts
	r.mu.Lock()
	disPolicy, chgPolicy := r.disPolicy, r.chgPolicy
	r.mu.Unlock()

	n := len(sts)
	buf, err := disPolicy.DischargeRatios(sc.ratios[:0], sts, loadW)
	if err == nil && len(buf) != n {
		err = fmt.Errorf("returned %d ratios for %d batteries", len(buf), n)
	}
	if err != nil {
		r.om.policyErrs.Inc()
		return UpdateResult{}, fmt.Errorf("core: %s: %w", disPolicy.Name(), err)
	}
	buf, err = chgPolicy.ChargeRatios(buf, sts, chargeW)
	if err == nil && len(buf) != 2*n {
		err = fmt.Errorf("returned %d ratios for %d batteries", len(buf)-n, n)
	}
	if err != nil {
		r.om.policyErrs.Inc()
		return UpdateResult{}, fmt.Errorf("core: %s: %w", chgPolicy.Name(), err)
	}
	sc.ratios = buf
	masked := 0
	for i := range sts {
		if sts[i].Faulted {
			masked++
		}
	}
	dis := MaskFaulted(buf[:n], sts)
	chg := MaskFaulted(buf[n:], sts)
	if err := r.api.Discharge(dis); err != nil {
		return UpdateResult{}, fmt.Errorf("core: push discharge ratios: %w", err)
	}
	if err := r.api.Charge(chg); err != nil {
		return UpdateResult{}, fmt.Errorf("core: push charge ratios: %w", err)
	}
	r.mu.Lock()
	r.lastDis = append(r.lastDis[:0], dis...)
	r.lastChg = append(r.lastChg[:0], chg...)
	res := UpdateResult{Discharge: r.lastDis, Charge: r.lastChg}
	r.mu.Unlock()
	r.om.decisions.Inc()
	r.om.maskedCells.Add(int64(masked))
	if r.om.audit != nil {
		// The audit record copies the ratio vectors and allocates, so
		// it is built only when an audit log is live — the disabled
		// path stays byte- and allocation-identical to uninstrumented
		// builds.
		r.mu.Lock()
		rec := obs.AuditRecord{
			TimeS:     r.simTimeS,
			LoadW:     loadW,
			ChargeW:   chargeW,
			DisPolicy: disPolicy.Name(),
			ChgPolicy: chgPolicy.Name(),
			ChgDir:    r.chgDir,
			DisDir:    r.disDir,
			MeanSoC:   ComputeMetrics(sts).MeanSoC,
			Health:    r.health.String(),
			Masked:    masked,
			Dis:       append([]float64(nil), dis...),
			Chg:       append([]float64(nil), chg...),
		}
		r.mu.Unlock()
		r.om.audit.Add(rec)
	}
	return res, nil
}

// NoteTime tells the runtime the current simulation time so audit
// records and trace events carry meaningful timestamps. The emulator
// calls it before each policy tick; a live system may feed wall time.
func (r *Runtime) NoteTime(t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simTimeS = t
}

// pushBestEffort pushes ratio vectors ignoring failures — degraded
// modes keep trying so the firmware picks the vectors up the moment the
// link heals, but a still-dead link must not cascade.
func (r *Runtime) pushBestEffort(dis, chg []float64) {
	if err := r.api.Discharge(dis); err != nil {
		return
	}
	if err := r.api.Charge(chg); err != nil {
		return
	}
	// Store copies: the latched vectors are refilled in place by the
	// next healthy tick, and SafeMode passes one slice as both.
	r.mu.Lock()
	r.lastDis = append(r.lastDis[:0], dis...)
	r.lastChg = append(r.lastChg[:0], chg...)
	r.mu.Unlock()
}

// LastRatios returns the ratio vectors most recently pushed (nil
// before the first Update).
func (r *Runtime) LastRatios() (dis, chg []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.lastDis...), append([]float64(nil), r.lastChg...)
}

// RequestTransfer proxies ChargeOneFromAnother.
func (r *Runtime) RequestTransfer(from, to int, powerW, seconds float64) error {
	return r.api.ChargeOneFromAnother(from, to, powerW, seconds)
}

// SetChargeProfile proxies the firmware profile selection.
func (r *Runtime) SetChargeProfile(batt int, profile string) error {
	return r.api.SetChargeProfile(batt, profile)
}

// clamp01 clamps x to [0,1], mapping NaN to 0: a NaN directive
// would otherwise poison every blended vector and fail each tick.
func clamp01(x float64) float64 {
	if !(x > 0) {
		return 0
	}
	return math.Min(1, x)
}

// defaultInt substitutes def for non-positive v.
func defaultInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}
