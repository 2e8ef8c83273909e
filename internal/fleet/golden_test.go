package fleet

// Golden pin for the fleet alert engine: the chaos-seeded run's
// transition log must match a committed file byte for byte, so the
// lifecycle is held to a fixed expectation, not only to agreement
// between shard counts.

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"sdb/internal/faults"
	"sdb/internal/obs"
)

func TestFleetAlertTransitionsGolden(t *testing.T) {
	// The default chaos seed, pinned: SDB_CHAOS_SEED must not move the
	// golden.
	rng := rand.New(rand.NewSource(20150927))
	f := New(Config{Shards: 3, Batch: 32, Obs: obs.NewRegistry(), Rules: alertRules(t)})
	defer f.Close()
	for id := uint16(1); id <= 16; id++ {
		cfg := deviceConfig(t, id, 600)
		if rng.Intn(3) == 0 {
			cfg.Faults = faults.NewSchedule(
				faults.CellEvent{AtS: 30 + float64(rng.Intn(200)), Cell: 0, Kind: faults.FaultOpenCircuit},
				faults.CellEvent{AtS: 300 + float64(rng.Intn(100)), Cell: 1,
					Kind: faults.FaultCapacityFade, Fraction: 0.3 + 0.4*rng.Float64()},
			)
		}
		if err := f.Add(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	f.RunToCompletion(64)
	checkGolden(t, "testdata/alert_transitions.golden", FormatAlertTransitions(f.AlertTransitions()))
}

// checkGolden fails on the first line where got departs from the
// committed file.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
