package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/emulator"
)

// Digests of what TestShardCellsShareModels's fleet writes and
// computes, taken before fleet cells shared their model's Params:
// sharing moves no arithmetic, so neither may change. A deliberate
// change to the checkpoint format re-pins shareCkptDigest, as it
// re-pins TestJournalGolden.
const (
	shareCkptDigest   = "2a3554b41cbac855a2835cac6946c9eb8356475af7a191693d1aad864f866418"
	shareResultDigest = "7cd65e9747cfbb68553a598294169f651ab8fd68b2d2ac8b7c1dedfba3d69711"
)

// TestShardCellsShareModels holds a fleet built by Add and one rebuilt
// by Restore to one copy of each cell model per shard engine: every
// device's cells of one model on a shard point at the same Params, and
// each shard holds its own. Both fleets must write the checkpoint bytes
// and finish with the Results they did while every cell held a private
// copy, and each Result must equal the device's solo run.
func TestShardCellsShareModels(t *testing.T) {
	const durS = 600
	const n = 24
	f := New(Config{Shards: 3, Batch: 37})
	for i := 1; i <= n; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
			t.Fatal(err)
		}
	}
	checkShardModels(t, "Add", f)
	for i := 0; i < 5; i++ {
		f.Tick(64)
	}
	var ckpt bytes.Buffer
	if err := f.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := fmt.Sprintf("%x", sha256.Sum256(ckpt.Bytes())); got != shareCkptDigest {
		t.Errorf("checkpoint digest %s, want %s", got, shareCkptDigest)
	}

	g, err := Restore(bytes.NewReader(ckpt.Bytes()), Config{Shards: 2, Batch: 51, Provision: provision(t, durS)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	checkShardModels(t, "Restore", g)
	var again bytes.Buffer
	if err := g.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ckpt.Bytes()) {
		t.Error("the restored fleet checkpoints other bytes than the fleet it was restored from")
	}
	g.RunToCompletion(64)
	h := sha256.New()
	for i := 1; i <= n; i++ {
		got, err := g.Result(uint16(i))
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		want, err := emulator.Run(deviceConfig(t, uint16(i), durS))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("device %d's Result differs from its solo run", i)
		}
		r := *got
		r.Series = nil
		fmt.Fprintf(h, "%d %+v %+v\n", i, r, *got.Series)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != shareResultDigest {
		t.Errorf("result digest %s, want %s", got, shareResultDigest)
	}
}

// checkShardModels requires one Params per cell model on each shard,
// shared by every device there, and none shared between shards.
func checkShardModels(t *testing.T, how string, f *Fleet) {
	t.Helper()
	seen := map[*battery.Params]int{}
	for _, s := range f.shards {
		models := map[string]*battery.Params{}
		for _, d := range s.devices {
			for _, c := range d.ctrl.Pack().Cells() {
				m, ok := models[c.Name()]
				if !ok {
					models[c.Name()] = c.Model()
					continue
				}
				if c.Model() != m {
					t.Fatalf("%s: device %d's %s on shard %d holds its own Params", how, d.id, c.Name(), s.idx)
				}
			}
		}
		if len(models) != 2 {
			t.Fatalf("%s: shard %d holds %d models, want 2", how, s.idx, len(models))
		}
		for _, m := range models {
			if prev, ok := seen[m]; ok {
				t.Fatalf("%s: shards %d and %d share the Params of %s", how, prev, s.idx, m.Name)
			}
			seen[m] = s.idx
		}
	}
}
