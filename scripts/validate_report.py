#!/usr/bin/env python3
"""Validate a benchmark --json report (schema_version 10) and, optionally,
a Chrome trace-event file produced by --trace.

Usage: scripts/validate_report.py REPORT.json [TRACE.json] [--expect-events]
           [--expect-faults] [--expect-crashes] [--expect-storms]
           [--expect-clean-timeline] [--expect-service] [--expect-shed]
           [--expect-chaos] [--expect-alloc-faults] [--expect-mem-squeeze]
           [--schema N]

The C++ unit tests (tests/obs/export_schema_test.cpp) validate the same
schema in-process; this script is the out-of-process check CI runs against
a real benchmark binary's output, so a packaging or flushing bug that the
in-process test cannot see still fails the pipeline. Only schema 10 is
accepted: no binary in the repository writes anything older. --schema N
pins the exact version (CI legs assert the binary they just built emits
the current one).

Dormancy guards. With options.fault_rate == 0 (and no fault-storm chaos
phase) a run must report zero injected faults and zero spurious aborts;
--expect-faults instead requires htm.faults_injected > 0. With
options.crash_rate == 0 (and no kill phase) htm.crashes_injected /
htm.lock_recoveries / htm.orphans_reaped must be exactly zero;
--expect-crashes instead requires all three > 0. --expect-events makes an
empty trace an error (the DC_TRACE=ON smoke leg).

Timeline. When options.sample_interval_ms > 0 a "timeline" section is
REQUIRED and fully checked: window shape and quantile ordering, the
annotation-kind whitelist, and — whenever nothing was dropped — exact
conservation (baseline + window deltas telescope to the cumulative
counters; per-kind annotation totals equal the matching counter minus its
baseline). With sampling off the section must be ABSENT. --expect-storms
requires at least one storm_onset annotation; --expect-clean-timeline
requires zero annotations of every kind.

Service. The "service" section must be present iff bench == "service".
The validator re-proves the harness's conservation laws offline:
generated == accepted + shed + shed_mem, accepted == completed + killed +
oom, killed == worker_deaths. On every other report the timeline's service
counters must be exactly zero. --expect-service requires the section with
nonzero traffic; --expect-shed requires sessions_shed > 0; --expect-chaos
requires at least one fault-storm AND one kill phase survived with every
worker death recovered.

Memory. The always-present "mem" section is conservation-checked: the
per-thread ledgers sum to the global counters, allocations - deallocations
== live_blocks, reaped <= stranded, injected faults <= failures. With no
capacity bound, no allocation-fault injection, no crash injection and no
mem-squeeze phase every failure/pressure/stranding counter must be zero;
--expect-alloc-faults requires injected faults > 0 and
--expect-mem-squeeze requires an applied mem-squeeze phase with at least
one pressure onset AND a matching exit.
"""
import json
import sys

SCHEMA_VERSION = 10

OPS = ("register", "update", "deregister", "collect", "commit", "validate")
ABORT_CODES = ("none", "conflict", "overflow", "explicit", "illegal-access",
               "interrupt", "tlb-miss", "save-restore", "alloc-failed")
SPURIOUS_CODES = ("interrupt", "tlb-miss", "save-restore")
CRASH_KEYS = ("crashes_injected", "lock_recoveries", "orphans_reaped")
# Keys schema 10 dropped with the retry and validation policies; a report
# that still carries one was written by a stale binary.
REMOVED_OPTION_KEYS = ("retry", "validation")
REMOVED_HTM_KEYS = ("sig_validations", "sig_false_aborts",
                    "sig_ring_overflows")

# Timeline vocabulary (obs/timeline.hpp). Annotation kinds map 1:1 onto the
# cumulative counter their per-window values decompose. The htm counters
# telescope to the htm section; the service pair to the service section
# (implicitly zero when the report is not from bench_service); the memory
# tier to the mem section (sessions_shed_mem to the service section).
HTM_COUNTER_KEYS = ("commits", "aborts", "lock_fallbacks", "tle_entries",
                    "faults_injected", "crashes_injected", "storm_entries",
                    "storm_exits", "lock_recoveries", "orphans_reaped")
SERVICE_COUNTER_KEYS = ("sessions_shed", "chaos_phases")
MEM_COUNTER_KEYS = ("pool_allocations", "pool_deallocations", "pool_os_bytes",
                    "alloc_failures", "alloc_faults_injected",
                    "pool_caches_reaped", "mem_pressure_onsets",
                    "mem_pressure_exits", "sessions_shed_mem")
COUNTER_KEYS = HTM_COUNTER_KEYS + SERVICE_COUNTER_KEYS + MEM_COUNTER_KEYS
# timeline counter key -> mem section key it telescopes to.
MEM_COUNTER_REF = {
    "pool_allocations": "allocations",
    "pool_deallocations": "deallocations",
    "pool_os_bytes": "os_bytes",
    "alloc_failures": "alloc_failures",
    "alloc_faults_injected": "alloc_faults_injected",
    "pool_caches_reaped": "cache_blocks_reaped",
    "mem_pressure_onsets": "mem_pressure_onsets",
    "mem_pressure_exits": "mem_pressure_exits",
}
ANNOTATION_COUNTER = {
    "storm_onset": "storm_entries",
    "storm_exit": "storm_exits",
    "lock_recovery": "lock_recoveries",
    "orphan_reap": "orphans_reaped",
    "thread_crash": "crashes_injected",
    "shed_onset": "sessions_shed",
    "chaos_phase": "chaos_phases",
    "mem_pressure_onset": "mem_pressure_onsets",
    "mem_pressure_exit": "mem_pressure_exits",
    "mem_shed_onset": "sessions_shed_mem",
    "alloc_fault_burst": "alloc_failures",
}
QUANTILE_KEYS = ("p50_ns", "p90_ns", "p99_ns", "p999_ns")
SLO_QUANTILES = ("p50", "p90", "p99", "p999")
CHAOS_KINDS = ("fault-storm", "kill", "rate-spike", "mem-squeeze")


def fail(msg):
    print(f"validate_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def validate_timeline(doc, expect_storms, expect_clean):
    """Checks the timeline section against the report's own counters.

    The section is an exact decomposition, not a sketch: when nothing was
    dropped, baseline + per-window deltas must telescope to the cumulative
    counters, and per-kind annotation totals must equal the matching
    counter minus its baseline (each annotation carries its window's
    delta). Sampling skew is not tolerated because the sampler's final
    tick runs after the workers join (bench::report stops it first).

    The service counters (sessions_shed, chaos_phases, sessions_shed_mem)
    have no htm counterpart: they telescope to the service section's
    totals when the report carries one, and to exactly zero otherwise —
    the dormancy guard that proves non-service benchmarks never tick
    them."""
    htm = doc["htm"]
    keys = COUNTER_KEYS
    ann_counter = ANNOTATION_COUNTER
    # The cumulative reference each counter must telescope to.
    ref = {key: htm[key] for key in HTM_COUNTER_KEYS}
    svc = doc.get("service")
    for key in ("sessions_shed", "chaos_phases", "sessions_shed_mem"):
        ref[key] = svc[key] if svc else 0
    for tl_key, mem_key in MEM_COUNTER_REF.items():
        ref[tl_key] = doc["mem"][mem_key]
    tl = doc.get("timeline")
    require(isinstance(tl, dict), "timeline must be an object")
    require(isinstance(tl.get("sample_interval_ms"), (int, float)) and
            tl["sample_interval_ms"] > 0, "timeline.sample_interval_ms")
    for key in ("windows_total", "windows_dropped", "events_dropped"):
        require(isinstance(tl.get(key), int), f"timeline.{key}")
    baseline = tl.get("baseline")
    require(isinstance(baseline, dict), "timeline.baseline")
    for key in keys:
        require(isinstance(baseline.get(key), int),
                f"timeline.baseline.{key}")
    windows = tl.get("windows")
    require(isinstance(windows, list) and windows,
            "timeline.windows must be non-empty")
    require(len(windows) ==
            tl["windows_total"] - tl["windows_dropped"],
            "retained window count != windows_total - windows_dropped")
    sums = dict.fromkeys(keys, 0)
    prev_index = None
    prev_end = None
    for w in windows:
        require(isinstance(w.get("i"), int), "window.i")
        for key in ("t_start_ms", "t_end_ms"):
            require(isinstance(w.get(key), (int, float)), f"window.{key}")
        require(w["t_end_ms"] >= w["t_start_ms"], "window time runs backward")
        if prev_index is not None:
            require(w["i"] == prev_index + 1, "window indices not contiguous")
            require(abs(w["t_start_ms"] - prev_end) < 1e-6,
                    "windows do not tile (t_start != previous t_end)")
        prev_index, prev_end = w["i"], w["t_end_ms"]
        for key in keys:
            require(isinstance(w.get(key), int), f"window.{key}")
            sums[key] += w[key]
        ops = w.get("ops")
        require(isinstance(ops, dict), "window.ops")
        for op, entry in ops.items():
            require(op in OPS, f"window.ops has unknown op {op!r}")
            require(isinstance(entry, dict), f"window.ops.{op}")
            require(isinstance(entry.get("count"), int) and
                    entry["count"] > 0,
                    f"window.ops.{op}.count (quiet ops must be omitted)")
            for q in QUANTILE_KEYS:
                require(isinstance(entry.get(q), (int, float)),
                        f"window.ops.{op}.{q}")
            require(entry["p50_ns"] <= entry["p90_ns"] <= entry["p99_ns"]
                    <= entry["p999_ns"],
                    f"window.ops.{op} quantiles out of order")
    if tl["windows_dropped"] == 0:
        for key in keys:
            require(baseline[key] + sums[key] == ref[key],
                    f"timeline windows do not decompose {key}: "
                    f"{baseline[key]} + {sums[key]} != {ref[key]}")
    totals = tl.get("annotation_totals")
    require(isinstance(totals, dict), "timeline.annotation_totals")
    require(set(totals) == set(ann_counter),
            "annotation_totals kinds != the documented whitelist")
    for kind, counter in ann_counter.items():
        require(isinstance(totals[kind], int),
                f"annotation_totals.{kind}")
        require(totals[kind] == ref[counter] - baseline[counter],
                f"annotation_totals.{kind} != {counter} - baseline "
                f"({totals[kind]} != {ref[counter]} - {baseline[counter]})")
    events = tl.get("annotations")
    require(isinstance(events, list), "timeline.annotations")
    event_sums = dict.fromkeys(ann_counter, 0)
    for e in events:
        require(e.get("kind") in ann_counter,
                f"annotation kind {e.get('kind')!r} not in whitelist")
        require(isinstance(e.get("t_ms"), (int, float)), "annotation.t_ms")
        require(isinstance(e.get("window"), int), "annotation.window")
        require(isinstance(e.get("value"), int) and e["value"] > 0,
                "annotation.value must be a positive delta")
        event_sums[e["kind"]] += e["value"]
    if tl["events_dropped"] == 0:
        for kind in ann_counter:
            require(event_sums[kind] == totals[kind],
                    f"annotation event values for {kind} do not sum to "
                    f"annotation_totals ({event_sums[kind]} != "
                    f"{totals[kind]})")
    slo = tl.get("slo")
    require(isinstance(slo, dict), "timeline.slo")
    require(isinstance(slo.get("violations_total"), int),
            "timeline.slo.violations_total")
    targets = slo.get("targets")
    require(isinstance(targets, list), "timeline.slo.targets")
    for t in targets:
        require(isinstance(t.get("spec"), str), "slo target.spec")
        require(t.get("op") in OPS, "slo target.op")
        require(t.get("quantile") in SLO_QUANTILES, "slo target.quantile")
        for key in ("bound_ns", "worst_ns"):
            require(isinstance(t.get(key), (int, float)), f"slo target.{key}")
        for key in ("windows_evaluated", "violations"):
            require(isinstance(t.get(key), int), f"slo target.{key}")
        require(t["violations"] <= t["windows_evaluated"],
                "slo target has more violations than evaluated windows")
    require(sum(t["violations"] for t in targets) ==
            slo["violations_total"],
            "slo per-target violations do not sum to violations_total")
    # The episode ledger: contiguous violation runs and whether each
    # re-attained the SLO. Reattainments must count exactly the recovered
    # episodes — the scalar MTTR feeds on.
    require(isinstance(slo.get("reattainments"), int),
            "timeline.slo.reattainments")
    episodes = slo.get("episodes")
    require(isinstance(episodes, list), "timeline.slo.episodes")
    recovered = 0
    for e in episodes:
        for key in ("start_window", "end_window", "violating_windows"):
            require(isinstance(e.get(key), int), f"episode.{key}")
        for key in ("t_start_ms", "t_end_ms"):
            require(isinstance(e.get(key), (int, float)), f"episode.{key}")
        require(isinstance(e.get("recovered"), bool), "episode.recovered")
        require(e["violating_windows"] >= 1,
                "episode with zero violating windows")
        require(e["end_window"] >= e["start_window"] and
                e["t_end_ms"] >= e["t_start_ms"],
                "episode runs backward")
        recovered += e["recovered"]
    require(recovered == slo["reattainments"],
            f"recovered episodes != slo.reattainments "
            f"({recovered} != {slo['reattainments']})")
    require(not episodes or slo["violations_total"] > 0,
            "episodes present but violations_total == 0")
    if expect_storms:
        require(totals["storm_onset"] > 0,
                "--expect-storms: no storm_onset annotations")
    if expect_clean:
        require(all(v == 0 for v in totals.values()),
                "--expect-clean-timeline: annotations present "
                f"({ {k: v for k, v in totals.items() if v} })")


def validate_service(doc, expect_service, expect_shed, expect_chaos):
    """Checks the service section: harness config, session accounting, and
    per-chaos-phase recovery reports.

    The conservation laws are the section's whole point — an open-loop
    harness that loses track of a session under overload or chaos would
    silently understate latency and overstate availability. All must hold
    exactly, in every run, chaos or not. Watermark sheds (shed_mem) and
    mid-flight pool exhaustion (oom) are distinct, counted outcomes, never
    silent drops."""
    svc = doc["service"]
    require(isinstance(svc, dict), "service must be an object")
    for key in ("arrival_rate", "burstiness", "duration_ms"):
        require(isinstance(svc.get(key), (int, float)), f"service.{key}")
    for key in ("workers", "queue_capacity"):
        require(isinstance(svc.get(key), int) and svc[key] > 0,
                f"service.{key}")
    require(isinstance(svc.get("chaos_script"), str), "service.chaos_script")
    for key in ("sessions_generated", "sessions_accepted", "sessions_shed",
                "sessions_completed", "sessions_killed", "requests",
                "worker_deaths", "worker_respawns", "reap_batches",
                "chaos_phases", "sessions_shed_mem", "sessions_oom"):
        require(isinstance(svc.get(key), int), f"service.{key}")
    shed_mem = svc["sessions_shed_mem"]
    oom = svc["sessions_oom"]
    require(svc["sessions_generated"] ==
            svc["sessions_accepted"] + svc["sessions_shed"] + shed_mem,
            "service conservation broken: generated != accepted + shed "
            f"+ shed_mem ({svc['sessions_generated']} != "
            f"{svc['sessions_accepted']} + {svc['sessions_shed']} + "
            f"{shed_mem})")
    require(svc["sessions_accepted"] ==
            svc["sessions_completed"] + svc["sessions_killed"] + oom,
            "service conservation broken: accepted != completed + killed "
            f"+ oom ({svc['sessions_accepted']} != "
            f"{svc['sessions_completed']} + {svc['sessions_killed']} + "
            f"{oom})")
    require(svc["sessions_killed"] == svc["worker_deaths"],
            "each worker death must take exactly its in-flight session "
            f"({svc['sessions_killed']} killed, {svc['worker_deaths']} "
            "deaths)")
    require(svc["worker_respawns"] <= svc["worker_deaths"],
            "more respawns than deaths")
    phases = svc.get("phases")
    require(isinstance(phases, list), "service.phases")
    kinds = set()
    applied = 0
    for p in phases:
        require(isinstance(p.get("spec"), str), "phase.spec")
        require(p.get("kind") in CHAOS_KINDS,
                f"phase.kind {p.get('kind')!r} not in {CHAOS_KINDS}")
        for key in ("at_ms", "onset_ms", "mttr_ms", "reap_latency_ms"):
            require(isinstance(p.get(key), (int, float)), f"phase.{key}")
        for key in ("shed_during", "orphans_reaped"):
            require(isinstance(p.get(key), int), f"phase.{key}")
        # onset_ms < 0 is the "never applied" sentinel (the run ended
        # before the phase's @<ms>); such a phase can have no recovery.
        if p["onset_ms"] < 0:
            require(p["mttr_ms"] < 0 and p["shed_during"] == 0 and
                    p["orphans_reaped"] == 0,
                    "unapplied phase reports recovery activity")
            continue
        applied += 1
        kinds.add(p["kind"])
        if expect_chaos:
            # The survival criterion: every applied phase must have a
            # finite MTTR — 0 if the SLO never buckled, positive if it
            # buckled and was re-attained. -1 (never re-attained) is a
            # legal report (e.g. an unmeetable-SLO run) but fails the
            # chaos leg, whose whole point is proven recovery.
            require(p["mttr_ms"] >= 0,
                    "--expect-chaos: SLO never re-attained after "
                    f"{p['spec']!r}")
    require(applied == svc["chaos_phases"],
            f"phases with an onset ({applied}) != service.chaos_phases "
            f"({svc['chaos_phases']})")
    if expect_service:
        require(svc["sessions_generated"] > 0,
                "--expect-service: no sessions were generated")
        require(svc["sessions_completed"] > 0,
                "--expect-service: no session ever completed")
    if expect_shed:
        require(svc["sessions_shed"] > 0,
                "--expect-shed: overload run shed nothing")
    if expect_chaos:
        require(svc["chaos_phases"] > 0, "--expect-chaos: no phase applied")
        require("fault-storm" in kinds and "kill" in kinds,
                "--expect-chaos: need at least one fault-storm and one "
                f"kill phase (got {sorted(kinds)})")
        require(svc["worker_deaths"] > 0,
                "--expect-chaos: kill phase but no worker died")
        require(svc["worker_respawns"] == svc["worker_deaths"],
                "--expect-chaos: a dead worker slot was never respawned "
                f"({svc['worker_respawns']} respawns, "
                f"{svc['worker_deaths']} deaths)")
        require(svc["sessions_completed"] > 0,
                "--expect-chaos: the pool never served through the chaos")


def validate_mem(doc, mem_active, crash_active, expect_alloc_faults,
                 expect_mem_squeeze, chaos_squeeze):
    """Checks the mem section: global pool accounting, per-thread
    ledgers, and the conservation laws that tie them together.

    The global counters and the per-thread ledgers are maintained
    independently (one atomic set, one thread-local set); a double free,
    a lost ledger, or a stranded-cache miscount splits them. The offline
    re-proof here is the same discipline the service section gets."""
    mem = doc["mem"]
    require(isinstance(mem, dict), "mem must be an object")
    for key in ("limit_bytes", "os_bytes", "live_bytes", "live_blocks",
                "allocations", "deallocations", "alloc_failures",
                "alloc_faults_injected", "cache_blocks_stranded",
                "cache_blocks_reaped", "mem_pressure_onsets",
                "mem_pressure_exits"):
        require(isinstance(mem.get(key), int), f"mem.{key}")
    require(isinstance(mem.get("alloc_fault_rate"), (int, float)),
            "mem.alloc_fault_rate")
    threads = mem.get("threads")
    require(isinstance(threads, list), "mem.threads")
    sums = dict.fromkeys(("allocations", "deallocations", "alloc_failures",
                          "alloc_faults_injected"), 0)
    tids = set()
    for t in threads:
        require(isinstance(t.get("tid"), int), "mem.threads[].tid")
        require(t["tid"] not in tids, f"duplicate thread ledger {t['tid']}")
        tids.add(t["tid"])
        for key in sums:
            require(isinstance(t.get(key), int), f"mem.threads[].{key}")
            sums[key] += t[key]
    for key in sums:
        require(sums[key] == mem[key],
                f"mem conservation broken: per-thread {key} sum to "
                f"{sums[key]}, global says {mem[key]}")
    require(mem["allocations"] - mem["deallocations"] == mem["live_blocks"],
            "mem conservation broken: allocations - deallocations != "
            f"live_blocks ({mem['allocations']} - {mem['deallocations']} "
            f"!= {mem['live_blocks']})")
    require(mem["alloc_faults_injected"] <= mem["alloc_failures"],
            "more injected allocation faults than failures")
    require(mem["cache_blocks_reaped"] <= mem["cache_blocks_stranded"],
            "more stranded-cache blocks reaped than ever stranded")
    require(mem["mem_pressure_exits"] <= mem["mem_pressure_onsets"],
            "more pressure exits than onsets")
    if not crash_active:
        for key in ("cache_blocks_stranded", "cache_blocks_reaped"):
            require(mem[key] == 0,
                    f"crash injection off but mem.{key} != 0")
    if not mem_active:
        # The zero-overhead guard: with no capacity bound (configured or
        # chaos-injected) and no fault injection, the failure paths must be
        # provably untaken.
        for key in ("alloc_failures", "alloc_faults_injected",
                    "mem_pressure_onsets", "mem_pressure_exits"):
            require(mem[key] == 0,
                    f"memory pressure machinery off but mem.{key} != 0")
        if not chaos_squeeze:
            require(doc["htm"]["aborts_by_code"].get("alloc-failed", 0) == 0,
                    "memory pressure machinery off but alloc-failed "
                    "aborts recorded")
    if expect_alloc_faults:
        require(mem["alloc_faults_injected"] > 0,
                "--expect-alloc-faults: no allocation faults were injected")
    if expect_mem_squeeze:
        require(chaos_squeeze,
                "--expect-mem-squeeze: no mem-squeeze phase was applied")
        require(mem["mem_pressure_onsets"] > 0,
                "--expect-mem-squeeze: squeeze never produced a pressure "
                "onset")
        require(mem["mem_pressure_exits"] > 0,
                "--expect-mem-squeeze: pressure never exited after the "
                "squeeze released")


def validate_report(path, expect_faults=False, expect_crashes=False,
                    expect_storms=False, expect_clean_timeline=False,
                    expect_service=False, expect_shed=False,
                    expect_chaos=False, expect_alloc_faults=False,
                    expect_mem_squeeze=False, exact_schema=None):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    version = doc.get("schema_version")
    require(version == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION} (got {version!r})")
    if exact_schema is not None:
        require(version == exact_schema,
                f"--schema {exact_schema}: report is v{version}")
    require(isinstance(doc.get("bench"), str), "bench must be a string")
    opts = doc.get("options")
    require(isinstance(opts, dict), "options must be an object")
    for key in ("duration_ms", "repeats", "max_threads", "fault_rate",
                "crash_rate", "sample_interval_ms", "alloc_fault_rate"):
        require(isinstance(opts.get(key), (int, float)), f"options.{key}")
    require(opts.get("clock") in ("gv1", "gv5"), "options.clock")
    require(isinstance(opts.get("slo"), str), "options.slo")
    require(isinstance(opts.get("slo_observe"), bool), "options.slo_observe")
    require(isinstance(opts.get("mem_limit"), int), "options.mem_limit")
    for key in REMOVED_OPTION_KEYS:
        require(key not in opts, f"options.{key} was dropped in schema 10")
    # The service section is bench_service's alone: present iff this is a
    # service report.
    require(("service" in doc) == (doc["bench"] == "service"),
            "service section present iff bench == \"service\"")
    if "service" in doc:
        validate_service(doc, expect_service, expect_shed, expect_chaos)
    else:
        require(not (expect_service or expect_shed or expect_chaos),
                "--expect-service/--expect-shed/--expect-chaos need a "
                "bench_service report")
    # Chaos phases are the one legitimate way fault/crash/memory counters
    # go hot while the --fault-rate/--crash-rate/--mem-limit options stay
    # 0: a fault-storm flips the injector's override, a kill phase injects
    # a thread death, a mem-squeeze installs a pool limit override. The
    # dormancy guards below must not misread orchestrated chaos as a
    # counter leak — but only the kinds that actually fired get a pass.
    chaos_storm = chaos_kill = chaos_squeeze = False
    for p in doc.get("service", {}).get("phases", []):
        if p.get("onset_ms", -1) >= 0:
            chaos_storm |= p.get("kind") == "fault-storm"
            chaos_kill |= p.get("kind") == "kill"
            chaos_squeeze |= p.get("kind") == "mem-squeeze"
    htm = doc.get("htm")
    require(isinstance(htm, dict), "htm must be an object")
    for key in ("commits", "aborts", "abort_rate", "lock_fallbacks",
                "clock_bumps", "writer_commits", "sloppy_stamps",
                "clock_resamples", "clock_catchups", "coalesced_stores",
                "faults_injected", "tle_entries", "storm_entries",
                "storm_exits", "max_consec_aborts") + CRASH_KEYS:
        require(isinstance(htm.get(key), (int, float)), f"htm.{key}")
    for key in REMOVED_HTM_KEYS:
        require(key not in htm, f"htm.{key} was dropped in schema 10")
    if opts["clock"] == "gv5":
        require(htm["clock_bumps"] == 0,
                "gv5 run performed shared-clock fetch_adds")
    by_code = htm.get("aborts_by_code")
    require(isinstance(by_code, dict), "htm.aborts_by_code must be an object")
    for code in ABORT_CODES:
        require(isinstance(by_code.get(code), int), f"aborts_by_code.{code}")
    require(sum(by_code.values()) == htm["aborts"],
            "aborts_by_code must sum to htm.aborts")
    if expect_faults:
        require(htm["faults_injected"] > 0,
                "--expect-faults: no faults were injected")
    elif opts["fault_rate"] == 0 and not chaos_storm:
        require(htm["faults_injected"] == 0,
                "injection off but htm.faults_injected != 0")
        for code in SPURIOUS_CODES:
            require(by_code[code] == 0,
                    f"injection off but aborts_by_code.{code} != 0")
    if expect_crashes:
        for key in CRASH_KEYS:
            require(htm[key] > 0, f"--expect-crashes: htm.{key} == 0")
    elif opts["crash_rate"] == 0 and not chaos_kill:
        for key in CRASH_KEYS:
            require(htm[key] == 0,
                    f"crash injection off but htm.{key} != 0")
    # The mem section is on EVERY report (the pool is always live).
    require("mem" in doc, "report is missing the mem section")
    mem_active = (opts["mem_limit"] != 0 or opts["alloc_fault_rate"] != 0 or
                  chaos_squeeze)
    crash_active = expect_crashes or opts["crash_rate"] != 0 or chaos_kill
    validate_mem(doc, mem_active, crash_active, expect_alloc_faults,
                 expect_mem_squeeze, chaos_squeeze)
    retry = doc.get("retry")
    require(isinstance(retry, dict), "retry must be an object")
    require("policy" not in retry, "retry.policy was dropped in schema 10")
    by_cause = retry.get("by_cause")
    require(isinstance(by_cause, dict), "retry.by_cause must be an object")
    for cause in ABORT_CODES:
        entry = by_cause.get(cause)
        require(isinstance(entry, dict), f"retry.by_cause.{cause}")
        for key in ("count", "p50_attempt", "p99_attempt", "max_attempt"):
            require(isinstance(entry.get(key), (int, float)),
                    f"retry.by_cause.{cause}.{key}")
        if entry["count"] > 0:
            require(entry["p50_attempt"] <= entry["p99_attempt"],
                    f"retry.by_cause.{cause} quantiles out of order")
    lat = doc.get("op_latency_ns")
    require(isinstance(lat, dict), "op_latency_ns must be an object")
    for op in OPS:
        entry = lat.get(op)
        require(isinstance(entry, dict), f"op_latency_ns.{op}")
        for key in ("count", "p50", "p90", "p99", "max", "mean"):
            require(isinstance(entry.get(key), (int, float)),
                    f"op_latency_ns.{op}.{key}")
        if entry["count"] > 0:
            require(entry["p50"] <= entry["p90"] <= entry["p99"],
                    f"op_latency_ns.{op} quantiles out of order")
    conflicts = doc.get("conflicts")
    require(isinstance(conflicts, dict), "conflicts must be an object")
    require(isinstance(conflicts.get("recorded"), int), "conflicts.recorded")
    require(isinstance(conflicts.get("top"), list), "conflicts.top")
    for entry in conflicts["top"]:
        require(isinstance(entry.get("orec"), int), "conflicts.top[].orec")
        require(isinstance(entry.get("count"), int), "conflicts.top[].count")
        require(isinstance(entry.get("by_algo"), dict),
                "conflicts.top[].by_algo")
    trace = doc.get("trace")
    require(isinstance(trace, dict), "trace must be an object")
    require(isinstance(trace.get("compiled"), bool), "trace.compiled")
    require(isinstance(trace.get("events_emitted"), int),
            "trace.events_emitted")
    require(isinstance(trace.get("requested"), bool), "trace.requested")
    require(isinstance(trace.get("enabled"), bool), "trace.enabled")
    require(trace["enabled"] == (trace["requested"] and trace["compiled"]),
            "trace.enabled must be requested AND compiled")
    if not trace["enabled"]:
        require(trace["events_emitted"] == 0,
                "trace disabled but events were emitted")
    if opts["sample_interval_ms"] > 0:
        validate_timeline(doc, expect_storms, expect_clean_timeline)
    else:
        require("timeline" not in doc,
                "sampling off but a timeline section is present "
                "(zero-overhead guard)")
        require(not (expect_storms or expect_clean_timeline),
                "--expect-storms/--expect-clean-timeline need a sampled run "
                "(options.sample_interval_ms > 0)")
    require(isinstance(doc.get("columns"), list), "columns must be an array")
    rows = doc.get("rows")
    require(isinstance(rows, list) and rows, "rows must be non-empty")
    for row in rows:
        require(len(row) == len(doc["columns"]), "row width != column count")
    return doc


def validate_trace(path, expect_events):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    require(isinstance(events, list), "traceEvents must be an array")
    if expect_events:
        require(events, "trace has no events (DC_TRACE build expected)")
        require(any(e.get("ph") == "X" for e in events),
                "trace has no complete ('X') transaction spans")
    for e in events:
        # "C" = the telemetry sampler's per-window counter tracks (timeline
        # overlay); counters are process-scoped, so they carry no tid.
        require(e.get("ph") in ("X", "i", "C"),
                f"unexpected phase {e.get('ph')}")
        require(isinstance(e.get("ts"), (int, float)), "event missing ts")
        require(isinstance(e.get("name"), str), "event missing name")
        if e["ph"] != "C":
            require(isinstance(e.get("tid"), int), "event missing tid")
        if e["ph"] == "X":
            require(isinstance(e.get("dur"), (int, float)), "X event dur")
            require(e.get("args", {}).get("outcome") in ("commit", "abort"),
                    "X event outcome")
        if e["ph"] == "C":
            args = e.get("args")
            require(isinstance(args, dict) and args and
                    all(isinstance(v, (int, float)) for v in args.values()),
                    "C event args must be a non-empty numeric series map")
    return events


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    args = argv[2:]
    expect_events = "--expect-events" in args
    expect_faults = "--expect-faults" in args
    expect_crashes = "--expect-crashes" in args
    expect_storms = "--expect-storms" in args
    expect_clean_timeline = "--expect-clean-timeline" in args
    expect_service = "--expect-service" in args
    expect_shed = "--expect-shed" in args
    expect_chaos = "--expect-chaos" in args
    expect_alloc_faults = "--expect-alloc-faults" in args
    expect_mem_squeeze = "--expect-mem-squeeze" in args
    exact_schema = None
    trace_paths = []
    i = 0
    while i < len(args):
        if args[i] == "--schema":
            if i + 1 >= len(args) or not args[i + 1].isdigit():
                print("validate_report: --schema needs an integer",
                      file=sys.stderr)
                return 2
            exact_schema = int(args[i + 1])
            i += 2
            continue
        if not args[i].startswith("--"):
            trace_paths.append(args[i])
        i += 1
    report = validate_report(argv[1], expect_faults, expect_crashes,
                             expect_storms, expect_clean_timeline,
                             expect_service, expect_shed, expect_chaos,
                             expect_alloc_faults, expect_mem_squeeze,
                             exact_schema)
    summary = [f"report ok (bench={report['bench']}, "
               f"commits={report['htm']['commits']}, "
               f"faults={report['htm']['faults_injected']}, "
               f"crashes={report['htm']['crashes_injected']})"]
    if "timeline" in report:
        tl = report["timeline"]
        storms = tl["annotation_totals"]["storm_onset"]
        summary.append(f"timeline ok ({tl['windows_total']} windows, "
                       f"{storms} storm onsets, "
                       f"{tl['slo']['violations_total']} SLO violations)")
    if "mem" in report:
        mem = report["mem"]
        summary.append(f"mem ok (allocs={mem['allocations']}, "
                       f"failures={mem['alloc_failures']}, "
                       f"injected={mem['alloc_faults_injected']}, "
                       f"pressure={mem['mem_pressure_onsets']}/"
                       f"{mem['mem_pressure_exits']})")
    if "service" in report:
        svc = report["service"]
        summary.append(f"service ok (generated={svc['sessions_generated']}, "
                       f"shed={svc['sessions_shed']}, "
                       f"shed_mem={svc['sessions_shed_mem']}, "
                       f"killed={svc['sessions_killed']}, "
                       f"oom={svc['sessions_oom']}, "
                       f"chaos_phases={svc['chaos_phases']})")
    if trace_paths:
        events = validate_trace(trace_paths[0], expect_events)
        summary.append(f"trace ok ({len(events)} events)")
    print("validate_report: " + "; ".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
