#!/bin/sh
# CI gate: build, tier-1 tests, the race lane, a chaos lane, then a
# bench smoke lane. The race pass runs the same suite under the race
# detector; the concurrent experiment engine (internal/sim.Runner and
# the in-driver sweeps) must stay race-clean. Fuzz seed corpora run as
# ordinary tests in both lanes. The chaos lane soaks the full stack —
# runtime over the wire protocol over a seeded faulty link, cell faults
# striking mid-run — under the race detector; it is deterministic per
# seed, and a failure replays with SDB_CHAOS_SEED=<seed from the log>.
# The bench smoke lane executes every benchmark once (-short skips the
# slow registry experiments) so the perf harness — including the
# zero-allocation Step contract exercised by its tests — cannot
# silently rot. The coverage lane ratchets per-package statement
# coverage against the floors committed in COVERAGE.ratchet: a change
# that drops an enforced package below its floor fails CI. The bench
# regression lane re-times every experiment against the committed
# baseline (BENCH_PR10.json) and fails on a >3x wall-clock regression —
# generous enough to absorb shared-runner noise, tight enough to catch
# an accidental hot-loop allocation or O(n^2) slip. The recorder smoke
# lane runs the record -> series file -> export pipeline end to end
# through the real CLIs, then migrates the legacy file into the paged
# store and asserts the two export paths agree byte for byte.
#
# Store lane: the paged on-disk telemetry store (internal/obs/ts/store)
# is gated by its differential chaos day (ring vs store vs migrated
# store, bit-exact), the corruption battery, and the torn-append crash
# test (an armed SDB_KILLPOINT re-execs the test binary and kills it
# mid page-commit; recovery must drop exactly the torn tail) — all
# under the race detector — plus a short live fuzz burst on top of the
# committed seed corpus.
#
# Fleet lanes: the 1000-device byte-identity soak and the fleet serve/
# protocol tests run in both plain and -race passes via the blanket
# ./... invocations (the race pass keeps the full 1000 devices — see
# internal/fleet/soak_size_race_test.go). The explicit fleet chaos lane
# below surfaces the chaos seed with -v so a failure is replayable, and
# the fleet bench smoke drives a small fleet through the real sdbbench
# path — both backends — to keep the BENCH_PR10 fleet figures
# reproducible. The crash-chaos lane covers the crash-safety tentpole:
# kill-point process death, checkpoint restore byte-identity, panic
# quarantine, and graceful drain.
#
# Live-telemetry lane: the push subscription plane and the fleet alert
# engine under -race — the 200-device slow-subscriber soak (several
# live subscribers plus one that reads nothing; the tick barrier must
# never stall and every drop ledger must balance exactly), delta/reset
# decode, subscription lifecycle churn, legacy-client downgrade, and
# the seeded-chaos alert determinism suite — plus a live fuzz burst on
# the alert rule grammar, and an end-to-end CLI smoke: a real
# `sdbctl serve -fleet -rules` server with a real `sdbtop -once`
# dashboard client over TCP.
#
# Batch-equivalence lanes: the struct-of-arrays engine
# (internal/battery/batch) is only acceptable while it is bit-identical
# to the scalar reference and allocation-free per step. The explicit
# lanes below run the differential/fuzz-seed equivalence suite and the
# emulator byte-identity tests under -race, then assert the
# zero-allocation contract (testing.AllocsPerRun) in a plain pass where
# allocation counts are exact.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./...
# The repository benchmark is a nested module, so the blanket ./...
# passes above never reach it: vet it and run its toy-scale workload
# checks explicitly.
go -C sdbperf vet ./...
go -C sdbperf test ./...
go test -race -short -run 'Chaos' -v ./internal/emulator/
go test -race -run 'FleetChaos' -v ./internal/fleet/
go test -short -run '^$' -bench . -benchtime=1x ./...

# Batch-equivalence lane: scalar vs struct-of-arrays bit-identity
# (differential + fuzz seeds + emulator byte-identity) under -race,
# then the zero-alloc assertion without -race so AllocsPerRun is exact.
go test -race -run 'Batch|FastPath' -v ./internal/battery/batch/ ./internal/emulator/
go test -run 'TestBatchStepNoAllocs' -v ./internal/battery/batch/

# Crash-chaos lane: SIGKILL-equivalent process death at a tick barrier
# (an armed SDB_KILLPOINT re-execs the test binary and asserts exit
# 137), restore from the surviving auto-checkpoint, and byte-identity
# with the uninterrupted run; then the supervision suite — seeded
# device panics quarantining exactly the poison device while shard
# neighbors keep stepping, shard-restart escalation, and drain
# semantics — under the race detector.
go test -run 'TestCrashRestoreByteIdentical' -v ./internal/fleet/
go test -race -run 'TestQuarantine|TestShardRestart|TestDrain|TestCloseIdempotent' -v ./internal/fleet/

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
sleep 2
./sdbtop.lane -addr 127.0.0.1:7391 -once -every 2s > sdbtop.lane.txt
kill "$SDBCTL_PID" || true
cat sdbtop.lane.txt
grep -q 'fleet: 32 devices' sdbtop.lane.txt
grep -q 'top 15 by soc' sdbtop.lane.txt
rm -f rules.lane.txt sdbtop.lane.txt sdbctl.lane sdbtop.lane

# Fleet bench smoke: a scaled-down run of the 10k-device figure, once
# per stepping backend, plus one stalled-subscriber fan-out point with
# its exact frame-ledger check.
go run ./cmd/sdbbench -fleet 200 -fleetshards 4 -fleetsubs 2
go run ./cmd/sdbbench -fleet 200 -fleetshards 4 -backend scalar

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

# Bench regression lane: every experiment, serially, vs the committed
# baseline. 3x tolerance; newly added experiments (absent from the
# baseline) pass until the baseline is regenerated.
go run ./cmd/sdbbench -benchjson bench.lane.json -baseline BENCH_PR10.json -gate 3 -benchreps 2 -q
rm -f bench.lane.json

# Recorder smoke lane: record a short run, export the series file both
# ways, and confirm the recorded step counter reached the file.
go run ./cmd/sdbsim -load 2 -hours 1 -record smoke.lane.sdbts > /dev/null
go run ./cmd/sdbtrace export -in smoke.lane.sdbts -series sdb_pmic_steps_total | grep -q 'sdb_pmic_steps_total,counter,'
go run ./cmd/sdbtrace export -in smoke.lane.sdbts -format json | grep -q '"sdb_pmic_steps_total"'

# Store smoke: migrate the legacy series file into a paged store; the
# export CLI reads both formats and must produce identical bytes. Then
# a windowed downsample query through the real CLI.
go run ./cmd/sdbtrace migrate -in smoke.lane.sdbts -out smoke.lane.sdbstor > /dev/null
go run ./cmd/sdbtrace export -in smoke.lane.sdbts > smoke.a.csv
go run ./cmd/sdbtrace export -in smoke.lane.sdbstor > smoke.b.csv
cmp smoke.a.csv smoke.b.csv
go run ./cmd/sdbtrace query -in smoke.lane.sdbstor -series sdb_pmic_cell0_soc -down 600 | grep -q '^sdb_pmic_cell0_soc,'
# Windowed export: the store's index-pruned WalkRange and the legacy
# file's generic clip must agree byte for byte on the same window.
go run ./cmd/sdbtrace export -in smoke.lane.sdbts -since 600 -until 1800 > smoke.wa.csv
go run ./cmd/sdbtrace export -in smoke.lane.sdbstor -since 600 -until 1800 > smoke.wb.csv
cmp smoke.wa.csv smoke.wb.csv
grep -q 'sdb_pmic_steps_total,counter,' smoke.wa.csv
rm -f smoke.lane.sdbts smoke.lane.sdbstor smoke.a.csv smoke.b.csv smoke.wa.csv smoke.wb.csv
