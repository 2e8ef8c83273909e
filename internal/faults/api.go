package faults

import (
	"errors"
	"math/rand"
	"sync"

	"sdb/internal/pmic"
)

// ErrInjected marks an API error manufactured by FlakyAPI rather than
// produced by the wrapped implementation.
var ErrInjected = errors.New("faults: injected API error")

// APIConfig selects the API-level faults.
type APIConfig struct {
	// Seed makes the fault pattern reproducible.
	Seed int64
	// ErrorRate is the probability any call returns ErrInjected instead
	// of reaching the wrapped API.
	ErrorRate float64
	// StaleRate is the probability QueryBatteryStatus returns the
	// previous snapshot instead of a fresh one — a gauge bus hiccup
	// serving cached registers.
	StaleRate float64
}

// APIStats counts injected API faults.
type APIStats struct {
	Calls          int64
	InjectedErrors int64
	StaleSnapshots int64
}

// FlakyAPI wraps any pmic.API with seeded error returns and stale
// status snapshots. It implements pmic.API.
type FlakyAPI struct {
	mu    sync.Mutex
	api   pmic.API
	rng   *rand.Rand
	cfg   APIConfig
	last  []pmic.BatteryStatus
	stats APIStats
}

// NewFlakyAPI wraps api.
func NewFlakyAPI(api pmic.API, cfg APIConfig) *FlakyAPI {
	return &FlakyAPI{
		api: api,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns a snapshot of the fault counters.
func (f *FlakyAPI) Stats() APIStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// injectLocked decides (under the lock) whether this call fails.
func (f *FlakyAPI) injectLocked() bool {
	f.stats.Calls++
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		f.stats.InjectedErrors++
		return true
	}
	return false
}

// inject returns ErrInjected when this call fails.
func (f *FlakyAPI) inject() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.injectLocked() {
		return ErrInjected
	}
	return nil
}

// Ping implements pmic.API.
func (f *FlakyAPI) Ping() error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.api.Ping()
}

// Charge implements pmic.API.
func (f *FlakyAPI) Charge(ratios []float64) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.api.Charge(ratios)
}

// Discharge implements pmic.API.
func (f *FlakyAPI) Discharge(ratios []float64) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.api.Discharge(ratios)
}

// ChargeOneFromAnother implements pmic.API.
func (f *FlakyAPI) ChargeOneFromAnother(x, y int, w, t float64) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.api.ChargeOneFromAnother(x, y, w, t)
}

// SetChargeProfile implements pmic.API.
func (f *FlakyAPI) SetChargeProfile(batt int, profile string) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.api.SetChargeProfile(batt, profile)
}

// BatteryCount implements pmic.API.
func (f *FlakyAPI) BatteryCount() (int, error) {
	if err := f.inject(); err != nil {
		return 0, err
	}
	return f.api.BatteryCount()
}

// QueryBatteryStatus implements pmic.API: besides injected errors, it
// may replay the previous snapshot — stale data, not an error, which is
// the harder fault for the layer above to notice.
func (f *FlakyAPI) QueryBatteryStatus() ([]pmic.BatteryStatus, error) {
	return f.QueryBatteryStatusInto(nil)
}

// QueryBatteryStatusInto implements pmic.API, faulting like
// QueryBatteryStatus. A stale replay is copied into dst, never
// aliased: the caller may overwrite dst before the next replay.
func (f *FlakyAPI) QueryBatteryStatusInto(dst []pmic.BatteryStatus) ([]pmic.BatteryStatus, error) {
	f.mu.Lock()
	bad := f.injectLocked()
	stale := !bad && f.last != nil &&
		f.cfg.StaleRate > 0 && f.rng.Float64() < f.cfg.StaleRate
	if stale {
		f.stats.StaleSnapshots++
		out := append(dst[:0], f.last...)
		f.mu.Unlock()
		return out, nil
	}
	f.mu.Unlock()
	if bad {
		return nil, ErrInjected
	}

	sts, err := f.api.QueryBatteryStatusInto(dst)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.last = append(f.last[:0], sts...)
	f.mu.Unlock()
	return sts, nil
}
