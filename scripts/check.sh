#!/usr/bin/env bash
# Standard verification pass (see README "Testing"):
#   1. tier-1: default build + full ctest suite
#   2. ThreadSanitizer pass of the HTM substrate and Collect tests
#      (-DDC_SANITIZE=thread)
#   3. AddressSanitizer pass of the HTM, memory, and obs tests
#      (-DDC_SANITIZE=address; leak detection is off because the pool and
#      the stats/trace registries intentionally never free — see
#      src/htm/stats.hpp for the retention contract)
#   4. (--fault) fault-injection smoke: reruns the robustness suite and the
#      nondeterministic collect stress tests with DC_FAULT=0.1, i.e. 10% of
#      transaction attempts killed by Rock-style spurious aborts. Only
#      suites that assert invariants (not exact abort counts) are eligible.
#   5. (--crash) thread-death smoke: reruns the robustness suite with
#      DC_CRASH exported (scripted + seeded kills of opted-in victim
#      threads, including deaths while holding the TLE lock), then runs
#      bench_crash_recovery twice — injected, validated with
#      --expect-crashes, and clean at --crash-rate 0, where the validator
#      enforces the zero-overhead guard (all crash counters exactly zero).
#   6. (--service) open-loop service smoke: runs bench_service three ways —
#      a sustainable-rate clean run (exit 0, zero sheds), an over-rate run
#      against a tiny queue (must shed, still exit 0 — shedding is the
#      designed overload response, never an error), and a chaos run
#      (fault storm + worker kills + rate spike) against an unmeetable SLO
#      that must exit 3 (violated) while the report still validates with
#      finite recovery bookkeeping. Every report goes through
#      validate_report.py --schema 10 with the matching --expect-* flags,
#      which re-prove the session conservation laws offline.
#   7. (--mem) memory-pressure smoke: runs bench_service three ways — an
#      unbounded clean run where the validator's dormancy guard proves every
#      memory-pressure counter stayed exactly zero, a seeded
#      allocation-fault run (--alloc-fault-rate) whose denials must surface
#      as counted per-session OOM outcomes (--expect-alloc-faults), and a
#      bounded run squeezed mid-flight by bench/chaos_mem.txt that must shed
#      on the pool watermark, re-attain its SLO with a finite MTTR, and
#      close the pressure episode (--expect-mem-squeeze). All exit 0: memory
#      exhaustion is a recoverable, counted condition, never a crash.
#   8. (--sched) deterministic-schedule stage: runs the scheduled suite
#      (exploration batteries, exact-race scripts, the seed sweep, replay
#      of the tests/schedules regression corpus) honoring DC_SCHED_SEEDS,
#      then builds build-nosched/ with -DDC_SCHED=OFF and runs the
#      substrate suite there, proving the checkpoint hooks are zero-cost
#      when compiled out.
#
# Usage: scripts/check.sh [--skip-tsan] [--skip-asan] [--fault] [--crash]
#                         [--service] [--mem] [--sched] [--clock gv1|gv5]
#
# --clock pins the global-clock policy (DC_CLOCK) for every stage, so one
# invocation verifies the whole suite under one policy; CI runs both.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
skip_tsan=0
skip_asan=0
fault=0
crash=0
service=0
mem=0
sched=0
clock=""
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--clock" ]]; then
    clock="$arg"
    prev=""
    continue
  fi
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    --fault) fault=1 ;;
    --crash) crash=1 ;;
    --service) service=1 ;;
    --mem) mem=1 ;;
    --sched) sched=1 ;;
    --clock) prev="--clock" ;;
    *) echo "unknown option: $arg (supported: --skip-tsan --skip-asan --fault --crash --service --mem --sched --clock gv1|gv5)" >&2; exit 2 ;;
  esac
done
if [[ -n "$prev" ]]; then
  echo "missing value for $prev" >&2
  exit 2
fi
if [[ -n "$clock" ]]; then
  case "$clock" in
    gv1|gv5) export DC_CLOCK="$clock"; echo "== clock policy pinned: DC_CLOCK=$clock ==" ;;
    *) echo "unknown clock policy: $clock (gv1|gv5)" >&2; exit 2 ;;
  esac
fi

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

if [[ "$skip_tsan" == 1 ]]; then
  echo "== TSan pass skipped (--skip-tsan) =="
else
  echo "== ThreadSanitizer pass: tests/htm + tests/collect =="
  cmake -B build-tsan -S . -DDC_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" --target htm_test collect_test
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" ./build-tsan/tests/htm_test
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" ./build-tsan/tests/collect_test
fi

if [[ "$skip_asan" == 1 ]]; then
  echo "== ASan pass skipped (--skip-asan) =="
else
  echo "== AddressSanitizer pass: tests/htm + tests/memory + tests/obs =="
  cmake -B build-asan -S . -DDC_SANITIZE=address
  cmake --build build-asan -j "$jobs" --target htm_test memory_test obs_test
  ASAN_OPTIONS="detect_leaks=0" ./build-asan/tests/htm_test
  ASAN_OPTIONS="detect_leaks=0" ./build-asan/tests/memory_test
  ASAN_OPTIONS="detect_leaks=0" ./build-asan/tests/obs_test
fi

if [[ "$fault" == 1 ]]; then
  echo "== fault-injection smoke: DC_FAULT=0.1 (10% spurious aborts) =="
  # robust_test is built for this (it also exercises rate 1.0 internally);
  # the collect fuzz/stress filters assert model equivalence and liveness
  # invariants, so they must hold under any interleaving of spurious aborts.
  DC_FAULT=0.1 ./build/tests/robust_test
  DC_FAULT=0.1 ./build/tests/collect_test \
    --gtest_filter='*CollectModelFuzz*:*CollectYieldStress*'
fi

if [[ "$crash" == 1 ]]; then
  echo "== thread-death smoke: DC_CRASH=0.005 (crash-crossed robustness) =="
  # Rate kills land only on opted-in victim threads, so the fault tier runs
  # unchanged alongside; the crash tier additionally scripts one death while
  # holding the TLE fallback lock per run.
  DC_CRASH=0.005 ./build/tests/robust_test
  echo "== bench_crash_recovery: injected run must trip every counter =="
  ./build/bench/bench_crash_recovery \
    --duration-ms 50 --repeats 2 --max-threads 4 \
    --crash-rate 0.05 --json crash-report.json
  python3 scripts/validate_report.py crash-report.json \
    --schema 10 --expect-crashes
  echo "== bench_crash_recovery: clean run must keep every counter at 0 =="
  ./build/bench/bench_crash_recovery \
    --duration-ms 50 --repeats 2 --max-threads 4 \
    --crash-rate 0 --json crash-clean-report.json
  python3 scripts/validate_report.py crash-clean-report.json --schema 10
fi

if [[ "$service" == 1 ]]; then
  echo "== service smoke: sustainable rate must hold with zero sheds =="
  ./build/bench/bench_service \
    --arrival-rate 1000 --workers 2 --duration-ms 500 \
    --sample-interval 25 --json service-clean-report.json
  python3 scripts/validate_report.py service-clean-report.json \
    --schema 10 --expect-service
  python3 - service-clean-report.json <<'EOF'
import json, sys
svc = json.load(open(sys.argv[1]))["service"]
assert svc["sessions_shed"] == 0, f"clean run shed {svc['sessions_shed']}"
EOF
  echo "== service smoke: over-rate run must shed, not block or fail =="
  ./build/bench/bench_service \
    --arrival-rate 50000 --workers 2 --queue-capacity 16 --duration-ms 500 \
    --json service-shed-report.json
  python3 scripts/validate_report.py service-shed-report.json \
    --schema 10 --expect-service --expect-shed
  echo "== service smoke: chaos run vs an unmeetable SLO must exit 3 =="
  # update_p999<1us is unattainable (a software-TM update alone costs more):
  # every window violates, the bench reports the breach via exit 3, and the
  # orchestrated chaos (storm + kills + spike) must still leave a validating
  # report — conservation intact, every death respawned, phases annotated.
  rc=0
  ./build/bench/bench_service \
    --arrival-rate 1000 --workers 2 --duration-ms 2000 \
    --sample-interval 25 --slo "update_p999<1us" \
    --chaos bench/chaos_service.txt --json service-chaos-report.json || rc=$?
  if [[ "$rc" != 3 ]]; then
    echo "expected exit 3 (SLO violated) from the chaos run, got $rc" >&2
    exit 1
  fi
  python3 scripts/validate_report.py service-chaos-report.json \
    --schema 10 --expect-service
  python3 - service-chaos-report.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
tot = doc["timeline"]["annotation_totals"]
assert tot["chaos_phase"] >= 1, "no chaos_phase annotation on the timeline"
svc = doc["service"]
assert svc["worker_deaths"] > 0 and \
    svc["worker_respawns"] == svc["worker_deaths"], \
    f"kill recovery broken: {svc['worker_deaths']} deaths, " \
    f"{svc['worker_respawns']} respawns"
EOF
  echo "== service smoke: chaos run with headroom SLO must recover (exit 0) =="
  # Same chaos script, but an SLO the service can actually re-attain between
  # phases; --slo-observe keeps baseline scheduling noise from failing the
  # run. --expect-chaos then requires a finite MTTR for every applied phase
  # — the "survived the storm and the kills" acceptance check.
  ./build/bench/bench_service \
    --arrival-rate 1000 --workers 2 --duration-ms 2000 \
    --sample-interval 25 --slo "update_p999<2ms" --slo-observe \
    --chaos bench/chaos_service.txt --json service-recovery-report.json
  python3 scripts/validate_report.py service-recovery-report.json \
    --schema 10 --expect-service --expect-chaos
fi

if [[ "$mem" == 1 ]]; then
  echo "== mem smoke: unbounded clean run must keep every mem counter at 0 =="
  # No bound, no injection: the validator's memory dormancy guard fails the leg
  # if any failure-path counter (alloc_failures, injected faults, pressure
  # onsets/exits, alloc-failed aborts) moved at all.
  ./build/bench/bench_service \
    --arrival-rate 1000 --workers 2 --duration-ms 500 \
    --sample-interval 25 --json mem-clean-report.json
  python3 scripts/validate_report.py mem-clean-report.json \
    --schema 10 --expect-service
  python3 - mem-clean-report.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
svc = doc["service"]
assert svc["sessions_shed_mem"] == 0, \
    f"clean run shed {svc['sessions_shed_mem']} on the watermark"
assert svc["sessions_oom"] == 0, f"clean run counted {svc['sessions_oom']} oom"
EOF
  echo "== mem smoke: injected denials must surface as counted oom sessions =="
  # Seeded allocation-fault injection, no capacity bound: every denial lands
  # on one session's Register, is counted as that session's OOM outcome, and
  # the run still exits 0 — exhaustion is an outcome, not a crash.
  ./build/bench/bench_service \
    --arrival-rate 1000 --workers 2 --duration-ms 500 \
    --alloc-fault-rate 0.05 \
    --sample-interval 25 --json mem-fault-report.json
  python3 scripts/validate_report.py mem-fault-report.json \
    --schema 10 --expect-service --expect-alloc-faults
  python3 - mem-fault-report.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
svc, mem = doc["service"], doc["mem"]
assert svc["sessions_oom"] > 0, "injected denials but no oom session counted"
assert svc["sessions_completed"] > 0, "nothing survived rate-0.05 injection"
assert mem["alloc_faults_injected"] == mem["alloc_failures"], \
    "unbounded run: every failure must be an injected one " \
    f"({mem['alloc_faults_injected']} != {mem['alloc_failures']})"
EOF
  echo "== mem smoke: mid-run squeeze must shed, recover, and close the episode =="
  # Bounded pool pre-warmed near the cap, then bench/chaos_mem.txt squeezes
  # the bound below the mapped footprint mid-run: admission sheds on the
  # watermark (shed_mem), the SLO re-attains with a finite MTTR after the
  # release, and the pressure episode opens and closes exactly.
  ./build/bench/bench_service \
    --arrival-rate 1000 --workers 2 --duration-ms 1500 --mem-limit 512k \
    --chaos bench/chaos_mem.txt \
    --sample-interval 25 --slo "update_p999<2ms" --slo-observe \
    --json mem-squeeze-report.json
  python3 scripts/validate_report.py mem-squeeze-report.json \
    --schema 10 --expect-service --expect-mem-squeeze
  python3 - mem-squeeze-report.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
svc = doc["service"]
assert svc["sessions_shed_mem"] > 0, "squeeze window shed nothing"
assert svc["sessions_completed"] > 0, "nothing completed around the squeeze"
squeezes = [p for p in svc["phases"] if p["kind"] == "mem-squeeze"]
assert squeezes and all(p["onset_ms"] >= 0 for p in squeezes), \
    "mem-squeeze phase never applied"
assert all(p["mttr_ms"] >= 0 for p in squeezes), \
    f"SLO never re-attained after the squeeze ({squeezes})"
EOF
fi

if [[ "$sched" == 1 ]]; then
  echo "== deterministic-schedule stage: sched_test (DC_SCHED_SEEDS=${DC_SCHED_SEEDS:-default}) =="
  # The scheduled suite: exploration batteries over the TLE steal/release
  # and lease stamp/reap races, exact-race callback scripts, the seed
  # sweep (width from DC_SCHED_SEEDS), and step-for-step replay of the
  # checked-in tests/schedules corpus.
  ./build/tests/sched_test
  echo "== zero-cost check: -DDC_SCHED=OFF build + substrate suite =="
  # With the gate off, sched::checkpoint must compile to nothing: the
  # substrate suite has to pass in a build that has no scheduler at all.
  cmake -B build-nosched -S . -DDC_SCHED=OFF
  cmake --build build-nosched -j "$jobs" --target htm_test
  ./build-nosched/tests/htm_test
fi

echo "== all checks passed =="
