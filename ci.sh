#!/bin/sh
# CI gate. Lanes, in order (each lane's comment below says what it
# holds):
#
#   - build, vet, the wire split (internal/pmic links no firmware or
#     cell physics), tier-1 tests, and the same suite under -race; fuzz
#     seed corpora run as ordinary tests in both passes, and the
#     1000-device fleet byte-identity soak runs in both (see
#     internal/fleet/soak_size_race_test.go).
#   - sdbperf: vet and toy-scale tests of the nested benchmark module.
#   - sim determinism: the experiment fan-out, every experiment's
#     committed table digest and the generated EXPERIMENTS.md at one
#     core and at two.
#   - chaos: emulator and fleet chaos soaks under -race, seeds logged,
#     and a fuzz burst of the firmware's command dispatch.
#   - bench smoke: every Go benchmark once, so benchmark code cannot rot.
#   - batch equivalence: struct-of-arrays vs scalar bit-identity (the
#     sim drivers' batched runs against emulator.Run and the firmware's
#     surplus-charging fast steps against Step included), the exact
#     fast OCV inversion against its 60-round bisection, the
#     zero-allocation batch step, status query and policy tick, an
#     inversion fuzz burst, and a fuzz burst of the in-place policies
#     against their allocating reference.
#   - crash chaos: kill points, restore byte-identity, quarantine,
#     shard restart, drain, the checkpoint byte goldens and the
#     encoder's refusal of undecodable states, and a checkpoint-decoder
#     fuzz burst.
#   - store: the paged store's differential day, corruption battery
#     (every read path, the export walk included), torn-append crash
#     test, the unbounded and windowed walks, and a fuzz burst.
#   - live telemetry: the push plane and fleet alerts (the fleet window
#     tests included) under -race, the id-ordered registry's two
#     guarantees (byte-identical store files at any shard count, fresh
#     alert state for a re-added device) under -race, the shared alert
#     engine's tests under -race, an alert-grammar fuzz burst, a push-decoder fuzz
#     burst, a fuzz burst of the client's reply decoders, a fuzz burst of
#     the requests a fleet endpoint answers itself, and three real
#     servers over TCP: a `sdbctl serve -fleet 32` + `sdbtop -once`
#     smoke, a `sdbctl serve -fleet 2100` whose `fleet list` and
#     `fleet broadcast ping` page past one frame, then
#     a plain one-device `sdbctl serve` with -store, -checkpoint and
#     -rules (sdbtop sees one device, metrics reach its firmware,
#     SIGTERM drains it to a final checkpoint that `fleet restore` reads
#     back).
#   - coverage ratchet: per-package floors in COVERAGE.ratchet.
#   - exact counts: the figures and fleet-full benchmark workloads must
#     check correct and reproduce PERF_COUNTS.json exactly.
#   - fleet heap: the fleet-drain (10,000 devices) and untraced
#     fleet-full (2,000 devices) benchmark workloads at seed 1 must
#     check correct with heap_mb <= 66 and <= 110.
#   - recorder smoke: sdbsim -store -> sdbtrace export/query, with the
#     query series listing's header and a row pinned, raw query and
#     export of one series over one window byte-identical, and a NaN
#     -since refused with exit status 2.
set -eux

go build ./...
go vet ./...
# Wire split: the protocol package is the codec, client and
# subscriptions only, so an operator's client links none of the
# firmware or the cell physics.
if go list -deps ./internal/pmic | grep -E '^sdb/internal/(firmware|battery|battery/batch|circuit|fuelgauge)$'; then
  echo "ci: internal/pmic depends on the firmware or the cell physics" >&2
  exit 1
fi
go test ./...
# The concurrent experiment engine (internal/sim.Runner and the
# in-driver sweeps) and the fleet must stay race-clean.
go test -race ./...
# The repository benchmark is a nested module, so the blanket ./...
# passes above never reach it: vet it and run its toy-scale workload
# checks explicitly.
go -C sdbperf vet ./...
go -C sdbperf test ./...

# Sim determinism lane: forEach starts every sweep point at once, so
# the Go scheduler, not a worker pool, decides how points share the
# cores. At GOMAXPROCS 1 and 2 every point must still start, the
# lowest-index error must still win, every registry experiment must
# render the table digest sdbperf/figures.sha256 pins, and the run must
# generate the committed EXPERIMENTS.md byte for byte.
go test -cpu 1,2 -run 'TestForEach|TestExperimentsMatchDigests|TestExperimentsDocument|TestRunnerDeterministicAcrossPoolSizes' -v ./internal/sim/

# Chaos lane: the full stack (runtime over the wire protocol over a
# seeded faulty link, cell faults striking mid-run) and the fleet chaos
# suite under -race. Deterministic per seed; -v logs the seed so a
# failure replays with SDB_CHAOS_SEED=<seed from the log>. Then a
# short live fuzz burst of the firmware's command dispatch: any
# command byte and payload against a stepped controller must get a
# well-formed reply and leave the controller steppable. The target
# sits in internal/pmic's external tests, next to the codec it feeds.
go test -race -short -run 'Chaos' -v ./internal/emulator/
go test -race -run 'FleetChaos' -v ./internal/fleet/
go test -fuzz 'FuzzDispatch' -fuzztime 5s -run '^$' ./internal/pmic/

# Bench smoke lane: every benchmark once (-short skips the slow registry
# experiments), so the benchmarks, including the zero-allocation Step
# contract their tests exercise, cannot silently rot.
go test -short -run '^$' -bench . -benchtime=1x ./...

# Batch-equivalence lane: scalar vs struct-of-arrays bit-identity
# (differential + fuzz seeds + emulator byte-identity, the firmware's
# surplus-charging fast steps against Step and the emulator's admission
# of them, and every internal/sim driver shape stepped through the
# batch kernel against emulator.Run) and the fast OCV inversion's
# bit-exactness against the 60-round bisection it replaces, under
# -race; then the zero-alloc assertions (batch step, OCV inversion,
# status query into a reused slice, policy tick) without -race so
# AllocsPerRun is exact; then short live fuzz bursts of the inversion
# on arbitrary tables and of the in-place policies against their
# allocating reference, on top of their seeds.
go test -race -run 'Batch|FastPath|FastRunLen|TestFastStepSuppliedMatchesStep|TestDriversMatchScalarRun|TestInvertOCVExact|TestBisectBracketExact' -v ./internal/battery/batch/ ./internal/emulator/ ./internal/pmic/ ./internal/sim/ ./internal/fuelgauge/ ./internal/battery/
go test -run 'TestBatchStepNoAllocs|TestInvertOCVNoAllocs|TestQueryBatteryStatusIntoNoAllocs|TestUpdateNoAllocs' -v ./internal/battery/batch/ ./internal/fuelgauge/ ./internal/pmic/ ./internal/core/
go test -fuzz 'FuzzInvertOCV' -fuzztime 5s -run '^$' ./internal/fuelgauge/
go test -fuzz 'FuzzPolicies' -fuzztime 5s -run '^$' ./internal/core/

# Crash-chaos lane: SIGKILL-equivalent process death at a tick barrier
# and halfway through appending a checkpoint delta record (an armed
# SDB_KILLPOINT re-execs the test binary and asserts exit 137), restore
# from the surviving auto-checkpoint journal, and byte-identity with
# the uninterrupted run; then the supervision suite — seeded device
# panics quarantining exactly the poison device while shard neighbors
# keep stepping, shard-restart escalation, and drain semantics — under
# the race detector; then the checkpoint bytes pinned (a parent-written
# base record, and SHA-256 goldens of a journal and of a transfer in
# flight), the encoder refusing every state the decoder would reject,
# and a short live fuzz burst on the checkpoint decoder (base records,
# journals, torn tails) on top of its seeds.
go test -run 'TestCrashRestoreByteIdentical|TestCrashTornDeltaRestore' -v ./internal/fleet/
go test -race -run 'TestQuarantine|TestShardRestart|TestDrain|TestCloseIdempotent' -v ./internal/fleet/
go test -run 'TestJournalGolden|TestEncodeRefusesUndecodable|TestDecodeParentFile' -v ./internal/fleet/snapshot/
go test -fuzz 'FuzzSnapshot' -fuzztime 5s -run '^$' ./internal/fleet/snapshot/

# Store lane: differential chaos day, corruption battery, the
# SDB_KILLPOINT torn-append crash test, and the whole-store and
# windowed walks export reads through, under -race; then a short live
# fuzz burst (the seed corpus already ran in the blanket test passes).
go test -race -run 'TestDifferentialChaosDay|TestCrashRecovery|TestRejects|TestFleetRecording|TestWalk|TestWalkRange' -v ./internal/obs/ts/store/ ./internal/fleet/
go test -fuzz 'FuzzStore' -fuzztime 5s -run '^$' ./internal/obs/ts/store/

# Live-telemetry lane. First the -race soak: the 200-device fleet with
# several live subscribers plus one that never reads — the barrier must
# not stall and every subscriber's drop ledger must balance exactly —
# together with the rest of the subscription plane (delta/reset decode,
# lifecycle churn, legacy-client downgrade) and the seeded-chaos alert
# determinism suite (TestFleetAlert* also holds the fleet window tests:
# recorder/fleet edge parity, a window longer than any fixed history,
# folded rule names). Then the one alert engine the recorder, the fleet
# and `sdbctl watch` share — its window rule, bounded history and
# zero-allocation evaluation — a live fuzz burst on the alert rule
# grammar on top of its committed seed corpus, one on the client's
# push-frame decoder (no panic, dictionary growth bounded by the frame),
# one on the client's reply decoders (a value or an error, never a panic
# or room for more items than the reply holds), and one on the fleet
# endpoint's own requests (fleet info with any cursor, subscribe,
# unsubscribe: one frame back, the connection still answering).
go test -race -run 'TestSlowSubscriberNeverStallsBarrier|TestSubscribe|TestSubscription|TestPushResetAfterDrop|TestLegacyClientIgnoresPushes|TestTracePushDelivery|TestUnsubscribeForeignConn|TestFleetAlert' -v ./internal/fleet/
# The registry is one id-sorted slice and every barrier walk follows it:
# the same seeded fleet must write a byte-identical store file at 1, 2
# and 4 shards and on a rerun, and a device removed and re-added under
# its id must start with fresh alert state.
go test -race -run 'TestFleetRecordingBytesDeterministic|TestFleetReaddStartsFreshAlertState' -v ./internal/fleet/
go test -race -run 'TestEngine|TestDerivedSignals' -v ./internal/obs/ts/
go test -fuzz 'FuzzParseRules' -fuzztime 5s -run '^$' ./internal/obs/ts/
go test -fuzz 'FuzzPushDecode' -fuzztime 5s -run '^$' ./internal/pmic/
go test -fuzz 'FuzzClientReplies' -fuzztime 5s -run '^$' ./internal/pmic/
go test -fuzz 'FuzzFleetRequest' -fuzztime 5s -run '^$' ./internal/fleet/
# End-to-end CLI smoke: a real fleet server with alert rules, a real
# sdbtop one-shot dashboard over TCP. The grep asserts the dashboard
# assembled the fleet rollup and the device table from push frames.
printf 'alert busy steps >= 1\n' > rules.lane.txt
go build -o sdbctl.lane ./cmd/sdbctl
go build -o sdbtop.lane ./cmd/sdbtop
./sdbctl.lane serve -addr 127.0.0.1:7391 -fleet 32 -shards 4 -rules rules.lane.txt > /dev/null 2>&1 &
SDBCTL_PID=$!
# The trap stops the server if sdbtop fails: set -e would exit before
# the kill below, and the orphaned server would keep the port.
trap 'kill "$SDBCTL_PID" 2>/dev/null || true' EXIT
sleep 2
./sdbtop.lane -addr 127.0.0.1:7391 -once -every 2s > sdbtop.lane.txt
kill "$SDBCTL_PID" || true
trap - EXIT
cat sdbtop.lane.txt
grep -q 'fleet: 32 devices' sdbtop.lane.txt
grep -q 'top 15 by soc' sdbtop.lane.txt
# More devices than one list frame holds (2,036 ids at 2 bytes each):
# `fleet list` pages through every id, and `fleet broadcast` reaches
# every device.
./sdbctl.lane serve -addr 127.0.0.1:7393 -fleet 2100 -shards 4 > /dev/null 2>&1 &
SDBCTL_PID=$!
trap 'kill "$SDBCTL_PID" 2>/dev/null || true' EXIT
sleep 2
./sdbctl.lane -addr 127.0.0.1:7393 fleet list > list.lane.txt
./sdbctl.lane -addr 127.0.0.1:7393 fleet broadcast ping > broadcast.lane.txt
kill "$SDBCTL_PID" || true
trap - EXIT
tail -n 1 list.lane.txt
cat broadcast.lane.txt
tail -n 1 list.lane.txt | grep -qx '2100 device(s)'
grep -qx 'broadcast ping: 2100 ok, 0 failed' broadcast.lane.txt
# A plain `sdbctl serve` is a one-device fleet on the same server path:
# it records, checkpoints and runs rules like -fleet N, sdbtop sees its
# one device, metrics reach the device's instrumented firmware, SIGTERM
# drains it (exit 0, final checkpoint written), and `fleet restore`
# reads one device back from the checkpoint.
rm -f one.lane.ckpt one.lane.sdbstor
./sdbctl.lane serve -addr 127.0.0.1:7392 -store one.lane.sdbstor -checkpoint one.lane.ckpt -rules rules.lane.txt > serve.lane.txt 2>&1 &
SDBCTL_PID=$!
trap 'kill "$SDBCTL_PID" 2>/dev/null || true' EXIT
sleep 2
./sdbtop.lane -addr 127.0.0.1:7392 -once -every 2s > sdbtop.lane.txt
./sdbctl.lane -addr 127.0.0.1:7392 metrics > metrics.lane.txt
kill -TERM "$SDBCTL_PID"
wait "$SDBCTL_PID"
trap - EXIT
cat sdbtop.lane.txt serve.lane.txt
grep -q 'fleet: 1 devices' sdbtop.lane.txt
grep -q 'sdb_pmic_steps_total' metrics.lane.txt
grep -q 'drained; final checkpoint at one.lane.ckpt' serve.lane.txt
./sdbctl.lane fleet restore one.lane.ckpt > restore.lane.txt
cat restore.lane.txt
grep -q '^devices: *1$' restore.lane.txt
rm -f rules.lane.txt sdbtop.lane.txt list.lane.txt broadcast.lane.txt serve.lane.txt metrics.lane.txt restore.lane.txt one.lane.ckpt one.lane.sdbstor sdbctl.lane sdbtop.lane

# Coverage ratchet lane: a package below its COVERAGE.ratchet floor,
# or an enforced package missing from the output, fails.
go test -cover ./internal/... > cover.lane.txt
cat cover.lane.txt
awk '
  NR == FNR {
    if ($0 ~ /^#/ || NF == 0) next
    floor[$1] = $2
    next
  }
  /coverage:/ {
    pkg = $2; sub(".*/", "", pkg)
    cov = ""
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { cov = $i; sub("%", "", cov) }
    seen[pkg] = 1
    if (pkg in floor && cov + 0 < floor[pkg] + 0) {
      printf "coverage ratchet: %s at %s%% is below its %s%% floor\n", pkg, cov, floor[pkg]
      bad = 1
    }
  }
  END {
    for (p in floor) if (!(p in seen)) {
      printf "coverage ratchet: enforced package %s missing from test output\n", p
      bad = 1
    }
    exit bad
  }' COVERAGE.ratchet cover.lane.txt
rm -f cover.lane.txt

# Exact-count lane. Both runs are traced (--trace 1), so they measure
# the per-layer ledger too; each must report correct:true (run.sh also
# exits 1 on a failed check). Timings are noisy on a shared runner, but
# these counts repeat exactly for a seed: the figures' firmware steps,
# the fleet's alert transitions, push frames, store pages and checkpoint
# bytes, and every heap-allocation count, floored because
# testing.Benchmark reports a fractional per-op average. Any difference
# from PERF_COUNTS.json fails. A change that moves a count on purpose
# updates PERF_COUNTS.json.
PERF_COUNTS='.metrics | with_entries(select(.key | test("_allocs$|^sim[.](steps|allocs_per_step)$|^fleet[.](alert_transitions|push_frames)$|^store[.]pages_written$|^snapshot[.]bytes$")) | .value |= (.value | floor))'
rm -f counts.lane.json
for w in figures fleet-full; do
  bash sdbperf/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 > perf.lane.txt
  tail -n 1 perf.lane.txt | jq -e .correct > /dev/null
  tail -n 1 perf.lane.txt | jq --arg w "$w" "{(\$w): ($PERF_COUNTS)}" >> counts.lane.json
done
jq -S -s add counts.lane.json | diff PERF_COUNTS.json -
rm -f perf.lane.txt counts.lane.json

# Fleet heap lane. The live heap after GC of a provisioned fleet is
# deterministic for a seed, unlike a timing. fleet-drain's 10,000
# devices hold 63.4 MB at seed 1: a device that again rebuilds shared
# model tables, oversizes its series (89.5 MB before they were shared
# and sized exactly) or copies the trace's time and load columns into
# its series (72.1 MB) fails the 66 MB bound. fleet-full's 2,000
# devices record every step, so the column copies show there most
# (104.7 MB at seed 1, 141.5 MB with them): its bound is 110 MB.
bash sdbperf/run.sh --workload fleet-drain --seed 1 --seconds 1 --trace 0 > perf.lane.txt
tail -n 1 perf.lane.txt | jq -e '.correct and .metrics.heap_mb.value <= 66' > /dev/null
bash sdbperf/run.sh --workload fleet-full --seed 1 --seconds 1 --trace 0 > perf.lane.txt
tail -n 1 perf.lane.txt | jq -e '.correct and .metrics.heap_mb.value <= 110' > /dev/null
rm -f perf.lane.txt

# Recorder smoke lane: record a short run into a paged store, export
# it both ways and through a time window, and confirm the recorded
# step counter reached the store; then the series listing (its header
# columns and the step counter's row are pinned) and a downsampled
# query through the real CLI. Raw `query -series` and `export -series`
# are one read path, so their CSV over one window must be
# byte-identical, and a NaN window bound is a usage error (exit 2).
go run ./cmd/sdbsim -load 2 -hours 1 -store smoke.lane.sdbstor > /dev/null
go build -o sdbtrace.lane ./cmd/sdbtrace
./sdbtrace.lane export -in smoke.lane.sdbstor -series sdb_pmic_steps_total | grep -q 'sdb_pmic_steps_total,counter,'
./sdbtrace.lane export -in smoke.lane.sdbstor -format json | grep -q '"sdb_pmic_steps_total"'
./sdbtrace.lane export -in smoke.lane.sdbstor -since 600 -until 1800 | grep -q 'sdb_pmic_steps_total,counter,600,'
./sdbtrace.lane query -in smoke.lane.sdbstor > query.lane.txt
grep -q '^series  *kind  *step_s  *samples  *first_t  *last_t$' query.lane.txt
grep -q '^sdb_pmic_steps_total  *counter  ' query.lane.txt
./sdbtrace.lane query -in smoke.lane.sdbstor -series sdb_pmic_cell0_soc -from 600 -to 1800 > query.lane.txt
./sdbtrace.lane export -in smoke.lane.sdbstor -series sdb_pmic_cell0_soc -since 600 -until 1800 > export.lane.txt
grep -q '^sdb_pmic_cell0_soc,gauge,600,' query.lane.txt
cmp query.lane.txt export.lane.txt
status=0
./sdbtrace.lane export -in smoke.lane.sdbstor -since NaN > /dev/null 2>&1 || status=$?
test "$status" -eq 2
rm -f query.lane.txt export.lane.txt
./sdbtrace.lane query -in smoke.lane.sdbstor -series sdb_pmic_cell0_soc -down 600 | grep -q '^sdb_pmic_cell0_soc,'
rm -f smoke.lane.sdbstor sdbtrace.lane
