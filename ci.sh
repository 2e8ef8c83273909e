#!/bin/sh
# CI gate. Lanes, in order (each lane's comment below says what it
# holds):
#
#   - build, vet, tier-1 tests, and the same suite under -race; fuzz
#     seed corpora run as ordinary tests in both passes, and the
#     1000-device fleet byte-identity soak runs in both (see
#     internal/fleet/soak_size_race_test.go).
#   - sdbperf: vet and toy-scale tests of the nested benchmark module.
#   - chaos: emulator and fleet chaos soaks under -race, seeds logged.
#   - bench smoke: every Go benchmark once, so benchmark code cannot rot.
#   - batch equivalence: struct-of-arrays vs scalar bit-identity, and
#     the zero-allocation batch step.
#   - crash chaos: kill points, restore byte-identity, quarantine,
#     shard restart, drain, and a checkpoint-decoder fuzz burst.
#   - store: the paged store's differential day, corruption battery,
#     torn-append crash test, and a fuzz burst.
#   - live telemetry: the push plane and fleet alerts under -race, an
#     alert-grammar fuzz burst, and a real `sdbctl serve` + `sdbtop
#     -once` smoke over TCP.
#   - coverage ratchet: per-package floors in COVERAGE.ratchet.
#   - exact counts: the figures and fleet-full benchmark workloads must
#     check correct and reproduce PERF_COUNTS.json exactly.
#   - recorder smoke: sdbsim -store -> sdbtrace export/query.
set -eux

go build ./...
go vet ./...
go test ./...
# The concurrent experiment engine (internal/sim.Runner and the
# in-driver sweeps) and the fleet must stay race-clean.
go test -race ./...
# The repository benchmark is a nested module, so the blanket ./...
# passes above never reach it: vet it and run its toy-scale workload
# checks explicitly.
go -C sdbperf vet ./...
go -C sdbperf test ./...

# Chaos lane: the full stack (runtime over the wire protocol over a
# seeded faulty link, cell faults striking mid-run) and the fleet chaos
# suite under -race. Deterministic per seed; -v logs the seed so a
# failure replays with SDB_CHAOS_SEED=<seed from the log>.
go test -race -short -run 'Chaos' -v ./internal/emulator/
go test -race -run 'FleetChaos' -v ./internal/fleet/

# Bench smoke lane: every benchmark once (-short skips the slow registry
# experiments), so the benchmarks, including the zero-allocation Step
# contract their tests exercise, cannot silently rot.
go test -short -run '^$' -bench . -benchtime=1x ./...

# Batch-equivalence lane: scalar vs struct-of-arrays bit-identity
# (differential + fuzz seeds + emulator byte-identity) under -race,
# then the zero-alloc assertion without -race so AllocsPerRun is exact.
go test -race -run 'Batch|FastPath' -v ./internal/battery/batch/ ./internal/emulator/
go test -run 'TestBatchStepNoAllocs' -v ./internal/battery/batch/

# Crash-chaos lane: SIGKILL-equivalent process death at a tick barrier
# and halfway through appending a checkpoint delta record (an armed
# SDB_KILLPOINT re-execs the test binary and asserts exit 137), restore
# from the surviving auto-checkpoint journal, and byte-identity with
# the uninterrupted run; then the supervision suite — seeded device
# panics quarantining exactly the poison device while shard neighbors
# keep stepping, shard-restart escalation, and drain semantics — under
# the race detector; then a short live fuzz burst on the checkpoint
# decoder (base records, journals, torn tails) on top of its seeds.
go test -run 'TestCrashRestoreByteIdentical|TestCrashTornDeltaRestore' -v ./internal/fleet/
go test -race -run 'TestQuarantine|TestShardRestart|TestDrain|TestCloseIdempotent' -v ./internal/fleet/
go test -fuzz 'FuzzSnapshot' -fuzztime 5s -run '^$' ./internal/fleet/snapshot/

# Store lane: differential chaos day, corruption battery, and the
# SDB_KILLPOINT torn-append crash test under -race; then a short live
# fuzz burst (the seed corpus already ran in the blanket test passes).
go test -race -run 'TestDifferentialChaosDay|TestCrashRecovery|TestRejects|TestFleetRecording' -v ./internal/obs/ts/store/ ./internal/fleet/
go test -fuzz 'FuzzStore' -fuzztime 5s -run '^$' ./internal/obs/ts/store/

# Live-telemetry lane. First the -race soak: the 200-device fleet with
# several live subscribers plus one that never reads — the barrier must
# not stall and every subscriber's drop ledger must balance exactly —
# together with the rest of the subscription plane (delta/reset decode,
# lifecycle churn, legacy-client downgrade) and the seeded-chaos alert
# determinism suite. Then a live fuzz burst on the alert rule grammar
# on top of its committed seed corpus.
go test -race -run 'TestSlowSubscriberNeverStallsBarrier|TestSubscribe|TestSubscription|TestPushResetAfterDrop|TestLegacyClientIgnoresPushes|TestTracePushDelivery|TestUnsubscribeForeignConn|TestFleetAlert' -v ./internal/fleet/
go test -fuzz 'FuzzParseRules' -fuzztime 5s -run '^$' ./internal/obs/ts/
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
rm -f rules.lane.txt sdbtop.lane.txt sdbctl.lane sdbtop.lane

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

# Recorder smoke lane: record a short run into a paged store, export
# it both ways and through a time window, and confirm the recorded
# step counter reached the store; then a downsampled query through the
# real CLI.
go run ./cmd/sdbsim -load 2 -hours 1 -store smoke.lane.sdbstor > /dev/null
go run ./cmd/sdbtrace export -in smoke.lane.sdbstor -series sdb_pmic_steps_total | grep -q 'sdb_pmic_steps_total,counter,'
go run ./cmd/sdbtrace export -in smoke.lane.sdbstor -format json | grep -q '"sdb_pmic_steps_total"'
go run ./cmd/sdbtrace export -in smoke.lane.sdbstor -since 600 -until 1800 | grep -q 'sdb_pmic_steps_total,counter,600,'
go run ./cmd/sdbtrace query -in smoke.lane.sdbstor -series sdb_pmic_cell0_soc -down 600 | grep -q '^sdb_pmic_cell0_soc,'
rm -f smoke.lane.sdbstor
