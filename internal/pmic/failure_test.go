package pmic_test

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"sdb/internal/battery"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// flakyConn corrupts a fraction of written bytes — a noisy Bluetooth
// link like the prototype's.
type flakyConn struct {
	net.Conn
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
}

func (f *flakyConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	buf := make([]byte, len(p))
	copy(buf, p)
	for i := range buf {
		if f.rng.Float64() < f.rate {
			buf[i] ^= byte(1 + f.rng.Intn(255))
		}
	}
	f.mu.Unlock()
	return f.Conn.Write(buf)
}

// TestNoisyLinkNeverSilentlyCorrupts drives requests over a link that
// corrupts ~2% of bytes. Every call must either succeed (frame got
// through clean both ways) or fail loudly; the firmware's latched state
// must never reflect a corrupted command.
func TestNoisyLinkNeverSilentlyCorrupts(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	noisy := &flakyConn{Conn: b, rng: rand.New(rand.NewSource(99)), rate: 0.02}
	cl := pmic.NewClient(noisy)
	// Corrupted requests are dropped by the firmware's resync, so the
	// response may never come: bound each round trip.
	cl.Timeout = 200 * time.Millisecond

	okCount := 0
	for k := 0; k < 60; k++ {
		want := []float64{0.25, 0.75}
		err := cl.Discharge(want)
		if err != nil {
			continue // detected: acceptable
		}
		okCount++
		dis, _ := ctrl.Ratios()
		if dis[0] != 0.25 || dis[1] != 0.75 {
			t.Fatalf("call %d reported success but firmware latched %v", k, dis)
		}
	}
	// A 2% byte-corruption rate on ~30-byte frames leaves plenty of
	// clean round trips; if literally everything failed, the recovery
	// path is broken.
	if okCount == 0 {
		t.Error("no request survived the noisy link")
	}
	t.Logf("noisy link: %d/60 calls clean", okCount)
}

// BenchmarkControllerStep lives in perf_test.go alongside the
// zero-allocation regression tests.

func BenchmarkQueryBatteryStatusDirect(b *testing.B) {
	ctrl, err := firmware.NewController(firmware.DefaultConfig(benchPack(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.QueryBatteryStatus(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPack(b *testing.B) *battery.Pack {
	b.Helper()
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	c := battery.MustNew(battery.MustByName("EnergyMax-4000"))
	a.SetSoC(0.8)
	c.SetSoC(0.8)
	return battery.MustNewPack(a, c)
}
