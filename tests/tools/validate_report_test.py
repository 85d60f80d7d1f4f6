#!/usr/bin/env python3
"""Self-test for scripts/validate_report.py.

The validator guards CI's smoke legs: a bug that makes it accept a broken
report — or reject a good one — is itself a CI escape, so it gets the same
treatment as the C++ code: known-good and known-bad inputs with asserted
exit codes, run out of process exactly as CI runs it.

Usage: validate_report_test.py /path/to/validate_report.py
"""
import json
import os
import subprocess
import sys
import tempfile

ABORT_CODES = ("none", "conflict", "overflow", "explicit", "illegal-access",
               "interrupt", "tlb-miss", "save-restore", "alloc-failed")
OPS = ("register", "update", "deregister", "collect", "commit", "validate")
COUNTER_KEYS = ("commits", "aborts", "lock_fallbacks", "tle_entries",
                "faults_injected", "crashes_injected", "storm_entries",
                "storm_exits", "lock_recoveries", "orphans_reaped",
                "sessions_shed", "chaos_phases", "pool_allocations",
                "pool_deallocations", "pool_os_bytes", "alloc_failures",
                "alloc_faults_injected", "pool_caches_reaped",
                "mem_pressure_onsets", "mem_pressure_exits",
                "sessions_shed_mem")
ANNOTATION_KINDS = ("storm_onset", "storm_exit", "lock_recovery",
                    "orphan_reap", "thread_crash", "shed_onset",
                    "chaos_phase", "mem_pressure_onset", "mem_pressure_exit",
                    "mem_shed_onset", "alloc_fault_burst")


def good_report():
    """The one base fixture: a minimal schema-10 report carrying every field
    the validator checks, shaped like a real clean, unsampled bench --json
    output. The mem ledgers balance: one thread did ten allocations and ten
    frees against one mapped slab. Every other fixture derives from it."""
    return {
        "schema_version": 10,
        "bench": "self_test",
        "generated_utc": "2026-01-01T00:00:00Z",
        "options": {"duration_ms": 50, "repeats": 2, "max_threads": 4,
                    "hist": False, "trace": False, "clock": "gv5",
                    "fault_rate": 0, "crash_rate": 0, "mem_limit": 0,
                    "alloc_fault_rate": 0, "sample_interval_ms": 0,
                    "slo": "", "slo_observe": False},
        "htm": {
            "commits": 1000, "aborts": 3, "abort_rate": 0.003,
            "lock_fallbacks": 1, "clock_bumps": 0, "writer_commits": 900,
            "sloppy_stamps": 500, "clock_resamples": 10,
            "clock_catchups": 10, "coalesced_stores": 0,
            "faults_injected": 0, "tle_entries": 1, "storm_entries": 0,
            "storm_exits": 0, "max_consec_aborts": 2,
            "crashes_injected": 0, "lock_recoveries": 0,
            "orphans_reaped": 0,
            "aborts_by_code": {c: (3 if c == "conflict" else 0)
                               for c in ABORT_CODES},
        },
        "retry": {
            "by_cause": {c: {"count": 0, "p50_attempt": 0.0,
                             "p99_attempt": 0.0, "max_attempt": 0}
                         for c in ABORT_CODES},
        },
        "op_latency_ns": {op: {"count": 2, "p50": 100.0, "p90": 150.0,
                               "p99": 200.0, "max": 210.0, "mean": 120.0}
                          for op in OPS},
        "conflicts": {"recorded": 0, "dropped": 0, "top": []},
        "trace": {"compiled": False, "requested": False,
                  "enabled": False, "events_emitted": 0},
        "mem": {"limit_bytes": 0, "os_bytes": 65536, "live_bytes": 0,
                "live_blocks": 0, "allocations": 10, "deallocations": 10,
                "alloc_failures": 0, "alloc_faults_injected": 0,
                "cache_blocks_stranded": 0, "cache_blocks_reaped": 0,
                "mem_pressure_onsets": 0, "mem_pressure_exits": 0,
                "alloc_fault_rate": 0,
                "threads": [{"tid": 0, "allocations": 10,
                             "deallocations": 10, "alloc_failures": 0,
                             "alloc_faults_injected": 0}]},
        "columns": ["threads", "algo"],
        "rows": [[1, 2.5], [2, 4.75]],
    }


def crash_injected_report():
    """A run with crash injection on, all three crash counters hot."""
    doc = good_report()
    doc["options"]["crash_rate"] = 0.05
    doc["htm"]["crashes_injected"] = 11
    doc["htm"]["lock_recoveries"] = 3
    doc["htm"]["orphans_reaped"] = 47
    return doc


def counters(**kw):
    base = dict.fromkeys(COUNTER_KEYS, 0)
    base.update(kw)
    return base


def sampled_report():
    """A sampled, stormy run: two tumbling windows whose deltas telescope
    exactly to the htm and mem counters, annotations whose per-kind value
    sums decompose storm_entries/storm_exits, and one SLO target with a
    violation."""
    doc = good_report()
    doc["options"]["sample_interval_ms"] = 10
    doc["options"]["slo"] = "update_p99<50us"
    doc["htm"]["storm_entries"] = 2
    doc["htm"]["storm_exits"] = 1
    ops = {"update": {"count": 5, "p50_ns": 100.0, "p90_ns": 150.0,
                      "p99_ns": 60000.0, "p999_ns": 61000.0}}
    doc["timeline"] = {
        "sample_interval_ms": 10,
        "windows_total": 2, "windows_dropped": 0, "events_dropped": 0,
        # The base fixture's lock_fallbacks/tle_entries and pool state
        # predate the sampler here: counters accumulated before start()
        # land in the baseline.
        "baseline": counters(commits=100, lock_fallbacks=1, tle_entries=1,
                             pool_allocations=10, pool_deallocations=10,
                             pool_os_bytes=65536),
        "windows": [
            dict(i=0, t_start_ms=0.0, t_end_ms=10.0,
                 **counters(commits=400, aborts=2, storm_entries=2),
                 ops=ops),
            dict(i=1, t_start_ms=10.0, t_end_ms=20.0,
                 **counters(commits=500, aborts=1, storm_exits=1),
                 ops={}),
        ],
        "annotations": [
            {"t_ms": 10.0, "window": 0, "kind": "storm_onset", "value": 2},
            {"t_ms": 20.0, "window": 1, "kind": "storm_exit", "value": 1},
        ],
        "annotation_totals": dict(dict.fromkeys(ANNOTATION_KINDS, 0),
                                  storm_onset=2, storm_exit=1),
        "slo": {"violations_total": 1, "targets": [
            {"spec": "update_p99<50us", "op": "update", "quantile": "p99",
             "bound_ns": 50000.0, "windows_evaluated": 2, "violations": 1,
             "worst_ns": 60000.0},
        ], "reattainments": 0, "episodes": []},
    }
    return doc


def clean_sampled_report():
    """A sampled run with no anomalies at all (the clean smoke leg)."""
    doc = sampled_report()
    doc["htm"]["storm_entries"] = 0
    doc["htm"]["storm_exits"] = 0
    tl = doc["timeline"]
    tl["windows"][0]["storm_entries"] = 0
    tl["windows"][1]["storm_exits"] = 0
    tl["annotations"] = []
    tl["annotation_totals"] = dict.fromkeys(ANNOTATION_KINDS, 0)
    tl["slo"]["violations_total"] = 0
    tl["slo"]["targets"][0].update(violations=0, worst_ns=200.0)
    return doc


def service_report():
    """A bench_service report from a sampled chaos run: one fault-storm
    and one kill applied (one rate-spike never fired), 10 sessions shed,
    one worker death whose in-flight session was killed, orphan reaped,
    and the SLO violated once then re-attained. Timeline service counters
    telescope to the service totals; htm fault/crash counters are hot with
    the rate options at 0 — legal precisely because chaos phases fired."""
    doc = sampled_report()
    doc["bench"] = "service"
    doc["htm"]["faults_injected"] = 50
    doc["htm"]["crashes_injected"] = 1
    doc["htm"]["orphans_reaped"] = 1
    tl = doc["timeline"]
    w0, w1 = tl["windows"]
    w0["faults_injected"] = 50
    w0["sessions_shed"] = 6
    w0["chaos_phases"] = 2
    w1["crashes_injected"] = 1
    w1["orphans_reaped"] = 1
    w1["sessions_shed"] = 4
    tl["annotations"] += [
        {"t_ms": 10.0, "window": 0, "kind": "shed_onset", "value": 6},
        {"t_ms": 10.0, "window": 0, "kind": "chaos_phase", "value": 2},
        {"t_ms": 20.0, "window": 1, "kind": "shed_onset", "value": 4},
        {"t_ms": 20.0, "window": 1, "kind": "orphan_reap", "value": 1},
        {"t_ms": 20.0, "window": 1, "kind": "thread_crash", "value": 1},
    ]
    tl["annotation_totals"].update(shed_onset=10, chaos_phase=2,
                                   orphan_reap=1, thread_crash=1)
    tl["slo"]["reattainments"] = 1
    tl["slo"]["episodes"] = [
        {"start_window": 0, "t_start_ms": 0.0, "end_window": 1,
         "t_end_ms": 10.0, "recovered": True, "violating_windows": 1},
    ]
    doc["service"] = {
        "arrival_rate": 1000.0, "burstiness": 0.0, "workers": 2,
        "queue_capacity": 64, "duration_ms": 100.0,
        "chaos_script": "bench/chaos_service.txt",
        "sessions_generated": 100, "sessions_accepted": 90,
        "sessions_shed": 10, "sessions_completed": 89,
        "sessions_killed": 1, "requests": 500, "worker_deaths": 1,
        "worker_respawns": 1, "reap_batches": 1, "chaos_phases": 2,
        "sessions_shed_mem": 0, "sessions_oom": 0,
        "phases": [
            {"spec": "@10 fault-storm rate=0.5 for=20",
             "kind": "fault-storm", "at_ms": 10, "onset_ms": 10.5,
             "mttr_ms": 5.0, "shed_during": 4, "orphans_reaped": 0,
             "reap_latency_ms": -1.0},
            {"spec": "@50 kill worker=0 point=txn_op after=1",
             "kind": "kill", "at_ms": 50, "onset_ms": 50.2,
             "mttr_ms": 12.0, "shed_during": 6, "orphans_reaped": 1,
             "reap_latency_ms": 8.0},
            {"spec": "@500 rate-spike x=8 for=20", "kind": "rate-spike",
             "at_ms": 500, "onset_ms": -1.0, "mttr_ms": -1.0,
             "shed_during": 0, "orphans_reaped": 0,
             "reap_latency_ms": -1.0},
        ],
    }
    return doc


def alloc_injected_report():
    """An --alloc-fault-rate run: seeded denials were injected and every one
    was counted as a failure, dormancy waived by the nonzero rate option."""
    doc = good_report()
    doc["options"]["alloc_fault_rate"] = 0.05
    mem = doc["mem"]
    mem["alloc_fault_rate"] = 0.05
    mem["alloc_failures"] = 3
    mem["alloc_faults_injected"] = 3
    mem["threads"][0]["alloc_failures"] = 3
    mem["threads"][0]["alloc_faults_injected"] = 3
    return doc


def squeeze_report():
    """A bench_service report whose chaos script also ran a mem-squeeze:
    five sessions shed on the pool watermark during the squeeze window, one
    pressure episode opened and closed, everything telescoping through the
    timeline to the mem and service sections."""
    doc = service_report()
    svc = doc["service"]
    svc["chaos_script"] = "bench/chaos_mem.txt"
    svc["phases"].append(
        {"spec": "@30 mem-squeeze limit=460k for=40", "kind": "mem-squeeze",
         "at_ms": 30, "onset_ms": 30.4, "mttr_ms": 6.0, "shed_during": 5,
         "orphans_reaped": 0, "reap_latency_ms": -1.0})
    svc["chaos_phases"] = 3
    svc["sessions_shed_mem"] = 5
    svc["sessions_accepted"] = 85
    svc["sessions_completed"] = 84
    doc["mem"]["mem_pressure_onsets"] = 1
    doc["mem"]["mem_pressure_exits"] = 1
    tl = doc["timeline"]
    w1 = tl["windows"][1]
    w1["chaos_phases"] = 1
    w1["sessions_shed_mem"] = 5
    w1["mem_pressure_onsets"] = 1
    w1["mem_pressure_exits"] = 1
    tl["annotations"] += [
        {"t_ms": 20.0, "window": 1, "kind": "chaos_phase", "value": 1},
        {"t_ms": 20.0, "window": 1, "kind": "mem_shed_onset", "value": 5},
        {"t_ms": 20.0, "window": 1, "kind": "mem_pressure_onset", "value": 1},
        {"t_ms": 20.0, "window": 1, "kind": "mem_pressure_exit", "value": 1},
    ]
    tl["annotation_totals"].update(chaos_phase=3, mem_shed_onset=5,
                                  mem_pressure_onset=1, mem_pressure_exit=1)
    return doc


def run_validator(validator, doc, flags=()):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False,
                                     encoding="utf-8") as f:
        json.dump(doc, f)
        path = f.name
    try:
        proc = subprocess.run(
            [sys.executable, validator, path, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stderr
    finally:
        os.unlink(path)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    validator = sys.argv[1]
    failures = []

    def expect(label, doc, want_code, flags=(), want_err=""):
        code, err = run_validator(validator, doc, flags)
        if code != want_code:
            failures.append(f"{label}: exit {code}, wanted {want_code}"
                            f" (stderr: {err.strip()})")
        elif want_code == 1 and "validate_report: FAIL" not in err:
            # A traceback also exits 1; only a diagnosed rejection counts.
            failures.append(f"{label}: crashed instead of rejecting"
                            f" (stderr: {err.strip()})")
        elif want_err and want_err not in err:
            failures.append(f"{label}: stderr {err.strip()!r} lacks"
                            f" {want_err!r}")
        else:
            print(f"  ok: {label}")

    # --- Known-good inputs must pass. ---
    expect("good clean run", good_report(), 0)
    expect("exact --schema match", good_report(), 0, ["--schema", "10"])
    expect("crash-injected run with --expect-crashes",
           crash_injected_report(), 0, ["--expect-crashes"])
    expect("crash-injected run without the flag", crash_injected_report(), 0)
    expect("sampled stormy run", sampled_report(), 0)
    expect("sampled clean run", clean_sampled_report(), 0)
    expect("service chaos run with all expect flags", service_report(), 0,
           ["--expect-service", "--expect-shed", "--expect-chaos"])
    expect("alloc-fault run with --expect-alloc-faults",
           alloc_injected_report(), 0, ["--expect-alloc-faults"])
    expect("squeeze run with all expect flags", squeeze_report(), 0,
           ["--expect-service", "--expect-chaos", "--expect-mem-squeeze"])

    # --- Schema version: only 10 is accepted. ---
    bad = good_report()
    bad["schema_version"] = 9
    expect("older schema_version", bad, 1, (), "schema_version")
    expect("--schema mismatch", good_report(), 1, ["--schema", "9"],
           "--schema 9")

    # Keys schema 10 dropped with the retry and validation policies.
    for section, key, value in (("options", "retry", "cause"),
                                ("options", "validation", "exact"),
                                ("htm", "sig_validations", 0),
                                ("retry", "policy", "cause")):
        bad = good_report()
        bad[section][key] = value
        expect(f"dropped key {section}.{key} present", bad, 1, (),
               "dropped in schema 10")
    bad = sampled_report()
    bad["timeline"]["annotation_totals"]["sig_saturation"] = 0
    expect("dropped sig_saturation annotation kind", bad, 1, (),
           "whitelist")

    # --- Required fields. ---
    for section, key in (("htm", "crashes_injected"),
                         ("options", "crash_rate"),
                         ("options", "sample_interval_ms"),
                         ("options", "slo"), ("options", "slo_observe"),
                         ("options", "mem_limit"),
                         ("options", "alloc_fault_rate"),
                         ("trace", "requested"), ("op_latency_ns", "validate")):
        bad = good_report()
        del bad[section][key]
        expect(f"missing {section}.{key}", bad, 1, (), key)

    bad = good_report()
    del bad["htm"]["aborts_by_code"]["alloc-failed"]
    expect("missing the alloc-failed abort code", bad, 1, (), "alloc-failed")

    bad = good_report()
    del bad["retry"]["by_cause"]["alloc-failed"]
    expect("missing the alloc-failed retry cause", bad, 1, (), "alloc-failed")

    bad = good_report()
    bad["htm"]["aborts_by_code"]["conflict"] = 99
    expect("aborts_by_code sum mismatch", bad, 1, (), "sum")

    bad = good_report()
    bad["rows"] = []
    expect("empty rows", bad, 1, (), "rows")

    bad = good_report()
    bad["trace"]["enabled"] = True  # requested=False, compiled=False
    expect("trace.enabled inconsistent with requested/compiled", bad, 1, (),
           "enabled")

    # --- Crash dormancy guard and --expect-crashes. ---
    bad = good_report()
    bad["htm"]["orphans_reaped"] = 1
    expect("clean run with nonzero orphans_reaped", bad, 1, (),
           "crash injection off")
    expect("--expect-crashes on a clean report", good_report(), 1,
           ["--expect-crashes"], "--expect-crashes")
    # A partially-hot triple is suspicious under --expect-crashes: crashes
    # happened but no orphan was ever reaped means the reaper never ran.
    bad = crash_injected_report()
    bad["htm"]["orphans_reaped"] = 0
    expect("--expect-crashes with cold orphans_reaped", bad, 1,
           ["--expect-crashes"], "orphans_reaped")

    # --- Timeline. ---
    expect("--expect-storms on a stormy run", sampled_report(), 0,
           ["--expect-storms"])
    expect("--expect-storms on a clean run", clean_sampled_report(), 1,
           ["--expect-storms"], "--expect-storms")
    expect("--expect-clean-timeline on a clean run",
           clean_sampled_report(), 0, ["--expect-clean-timeline"])
    expect("--expect-clean-timeline on a stormy run", sampled_report(), 1,
           ["--expect-clean-timeline"], "--expect-clean-timeline")
    expect("--expect-storms on an unsampled run", good_report(), 1,
           ["--expect-storms"], "sampled run")

    # Zero-overhead guard, both directions: a timeline on an unsampled run
    # and a missing timeline on a sampled run are each an error.
    bad = good_report()
    bad["timeline"] = sampled_report()["timeline"]
    expect("sampling off but timeline present", bad, 1, (),
           "zero-overhead")

    bad = sampled_report()
    del bad["timeline"]
    expect("sampling on but timeline absent", bad, 1, (), "timeline")

    # Conservation: window deltas must telescope to the htm counters...
    bad = sampled_report()
    bad["timeline"]["windows"][1]["commits"] = 499
    expect("window deltas do not decompose htm.commits", bad, 1, (),
           "decompose")

    # ...and annotation totals must equal counter minus baseline.
    bad = sampled_report()
    bad["timeline"]["annotation_totals"]["storm_onset"] = 1
    expect("annotation_totals mismatch", bad, 1, (), "storm_onset")

    bad = sampled_report()
    bad["timeline"]["annotations"][0]["kind"] = "gremlin"
    expect("unknown annotation kind", bad, 1, (), "whitelist")

    bad = sampled_report()
    bad["timeline"]["annotations"][0]["value"] = 1  # sums no longer match
    expect("annotation event values do not sum to totals", bad, 1, (),
           "sum")

    bad = sampled_report()
    ops = bad["timeline"]["windows"][0]["ops"]["update"]
    ops["p99_ns"] = 10.0  # below p90
    expect("window quantiles out of order", bad, 1, (), "out of order")

    bad = sampled_report()
    bad["timeline"]["windows"][0]["ops"]["update"]["count"] = 0
    expect("quiet op not omitted from window", bad, 1, (), "count")

    bad = sampled_report()
    bad["timeline"]["windows"][1]["t_start_ms"] = 12.0
    expect("windows do not tile", bad, 1, (), "tile")

    bad = sampled_report()
    bad["timeline"]["slo"]["violations_total"] = 5
    expect("slo violations_total mismatch", bad, 1, (), "violations_total")

    bad = sampled_report()
    bad["timeline"]["slo"]["targets"][0]["violations"] = 99
    expect("slo violations exceed evaluated windows", bad, 1, (),
           "violations")

    bad = sampled_report()
    del bad["timeline"]["slo"]["reattainments"]
    expect("slo missing reattainments", bad, 1, (), "reattainments")

    for kind in ("shed_onset", "mem_pressure_onset"):
        bad = sampled_report()
        del bad["timeline"]["annotation_totals"][kind]
        expect(f"annotation whitelist missing {kind}", bad, 1, (),
               "whitelist")

    bad = sampled_report()
    del bad["timeline"]["baseline"]["pool_allocations"]
    expect("baseline missing a memory counter", bad, 1, (),
           "pool_allocations")

    bad = sampled_report()
    bad["timeline"]["windows"][0]["pool_allocations"] = 1
    expect("timeline pool counters do not telescope to mem", bad, 1, (),
           "decompose")

    # --- Service. ---
    # Present-iff-service, both directions.
    bad = good_report()
    bad["service"] = service_report()["service"]
    expect("service section on a non-service bench", bad, 1, (), "iff")

    bad = service_report()
    del bad["service"]
    expect("bench=service without a service section", bad, 1, (), "iff")

    # The conservation laws, both halves.
    bad = service_report()
    bad["service"]["sessions_shed"] = 9  # silently lost one shed session
    expect("generated != accepted + shed", bad, 1, (), "conservation")

    bad = service_report()
    bad["service"]["sessions_completed"] = 90  # invented a completion
    expect("accepted != completed + killed", bad, 1, (), "conservation")

    bad = service_report()
    bad["service"]["sessions_killed"] = 0
    bad["service"]["sessions_completed"] = 90
    expect("worker died but no session killed", bad, 1, (), "death")

    bad = service_report()
    bad["service"]["worker_respawns"] = 3
    expect("more respawns than deaths", bad, 1, (), "respawns")

    # Timeline/service cross-checks: the service counters must telescope
    # to the section totals in a service report...
    bad = service_report()
    bad["timeline"]["windows"][1]["sessions_shed"] = 3
    expect("timeline shed does not telescope to service total", bad, 1, (),
           "decompose")

    # ...and to exactly zero in a non-service report (dormancy guard).
    bad = sampled_report()
    bad["timeline"]["windows"][0]["sessions_shed"] = 1
    expect("non-service report ticked sessions_shed", bad, 1, (),
           "decompose")

    # The episode ledger.
    bad = service_report()
    bad["timeline"]["slo"]["episodes"][0]["recovered"] = False
    expect("recovered episodes != reattainments", bad, 1, (),
           "reattainments")

    bad = service_report()
    bad["timeline"]["slo"]["episodes"][0]["violating_windows"] = 0
    expect("episode with zero violating windows", bad, 1, (), "episode")

    # Phase reports: an unapplied phase must be inert, the applied count
    # must reconcile with the chaos_phases counter, and kinds are a closed
    # set.
    bad = service_report()
    bad["service"]["phases"][2]["shed_during"] = 5
    expect("unapplied phase reports activity", bad, 1, (), "unapplied")

    bad = service_report()
    bad["service"]["chaos_phases"] = 3
    expect("chaos_phases != phases with an onset", bad, 1, (), "onset")

    bad = service_report()
    bad["service"]["phases"][2]["kind"] = "meteor-strike"
    expect("unknown chaos phase kind", bad, 1, (), "kind")

    # Chaos can legitimately heat fault/crash counters with the rate
    # options at 0 — but only the phase kinds that fired. A kill-free
    # report with hot crash counters is still a leak.
    bad = service_report()
    bad["service"]["phases"][1].update(onset_ms=-1.0, mttr_ms=-1.0,
                                       shed_during=0, orphans_reaped=0,
                                       reap_latency_ms=-1.0)
    bad["service"].update(chaos_phases=1, sessions_killed=0,
                          sessions_completed=90, worker_deaths=0,
                          worker_respawns=0)
    expect("crash counters hot without an applied kill phase", bad, 1, (),
           "crash injection off")

    # The expect flags.
    bad = service_report()
    bad["service"].update(sessions_shed=0, sessions_accepted=100,
                          sessions_completed=99)
    for w in bad["timeline"]["windows"]:
        w["sessions_shed"] = 0
    bad["timeline"]["annotation_totals"]["shed_onset"] = 0
    bad["timeline"]["annotations"] = [
        a for a in bad["timeline"]["annotations"]
        if a["kind"] != "shed_onset"]
    expect("--expect-shed on a shed-free run", bad, 1, ["--expect-shed"],
           "--expect-shed")

    bad = service_report()
    bad["service"]["phases"][1]["mttr_ms"] = -1.0
    expect("--expect-chaos with an unrecovered phase", bad, 1,
           ["--expect-chaos"], "re-attained")

    expect("--expect-service on a non-service report", good_report(), 1,
           ["--expect-service"], "bench_service")
    expect("--expect-chaos on a non-service report", good_report(), 1,
           ["--expect-chaos"], "bench_service")

    # --- Memory. ---
    bad = good_report()
    del bad["mem"]
    expect("report without a mem section", bad, 1, (), "mem")

    # The conservation laws that tie the ledgers together.
    bad = good_report()
    bad["mem"]["threads"][0]["allocations"] = 9
    expect("per-thread ledgers do not sum to globals", bad, 1, (),
           "per-thread")

    bad = good_report()
    bad["mem"]["live_blocks"] = 1
    expect("allocations - deallocations != live_blocks", bad, 1, (),
           "live_blocks")

    bad = alloc_injected_report()
    bad["mem"]["alloc_failures"] = 2
    bad["mem"]["threads"][0]["alloc_failures"] = 2
    expect("more injected faults than failures", bad, 1, (), "injected")

    bad = good_report()
    bad["mem"]["mem_pressure_exits"] = 1
    bad["mem"]["mem_pressure_onsets"] = 0
    expect("more pressure exits than onsets", bad, 1, (), "exits")

    # Dormancy guards: clean runs must be provably clean.
    bad = good_report()
    bad["mem"]["alloc_failures"] = 1
    bad["mem"]["threads"][0]["alloc_failures"] = 1
    expect("bound off but alloc_failures hot", bad, 1, (), "machinery off")

    bad = good_report()
    bad["htm"]["aborts_by_code"]["alloc-failed"] = 3
    bad["htm"]["aborts_by_code"]["conflict"] = 0
    expect("bound off but alloc-failed aborts recorded", bad, 1, (),
           "alloc-failed")

    bad = good_report()
    bad["mem"]["cache_blocks_stranded"] = 2
    bad["mem"]["cache_blocks_reaped"] = 1
    expect("crash injection off but stranded-cache counters hot", bad, 1, (),
           "crash injection off")

    # The squeeze fixture's telescoping is load-bearing: break one leg.
    bad = squeeze_report()
    bad["timeline"]["windows"][1]["sessions_shed_mem"] = 4
    expect("timeline shed_mem does not telescope to service", bad, 1, (),
           "decompose")

    bad = squeeze_report()
    bad["service"]["sessions_shed_mem"] = 4
    expect("generated != accepted + shed + shed_mem", bad, 1, (),
           "conservation")

    bad = squeeze_report()
    bad["service"]["sessions_oom"] = 1
    expect("accepted != completed + killed + oom", bad, 1, (),
           "conservation")

    expect("--expect-alloc-faults on a clean report", good_report(), 1,
           ["--expect-alloc-faults"], "--expect-alloc-faults")
    expect("--expect-mem-squeeze without a squeeze phase",
           service_report(), 1, ["--expect-mem-squeeze"],
           "--expect-mem-squeeze")

    if failures:
        print("validate_report_test: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("validate_report_test: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
