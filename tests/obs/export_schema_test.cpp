// Validates the two exporter schemas by parsing what they write:
//  * export_chrome_trace — Chrome trace-event JSON (Perfetto-loadable);
//  * bench::write_json_report — the versioned --json benchmark report
//    (schema_version 10: aborts_by_code incl. spurious causes and the v9
//    alloc-failed code, op_latency_ns incl. the validate op, conflicts,
//    trace requested/enabled split, clock policy and
//    fault-rate/crash-rate/sample-interval/slo options plus the v8
//    slo_observe flag and the v9 mem_limit/alloc_fault_rate pair,
//    robustness counters incl. the crash triple, per-cause retry
//    quantiles, the
//    always-present v9 `mem` section (global pool accounting plus
//    per-thread ledgers), and — only when the telemetry sampler ran — the
//    timeline section, whose shape (incl. the v8 SLO episode ledger and
//    the shed_onset/chaos_phase/mem_pressure annotations) is covered by
//    tests/obs/timeline_test.cpp; the v8 `service` section is emitted only
//    by bench_service and is absent from every other report).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/conflict_map.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace dc;
using dc::util::Json;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

const Json* field(const Json& v, const std::string& key, Json::Type type) {
  const Json* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  if (f != nullptr) {
    EXPECT_EQ(f->type(), type) << "field " << key;
  }
  return f;
}

TEST(ChromeTrace, PairsBeginWithOutcomeIntoCompleteEvents) {
  obs::clear_trace();
  using obs::EventKind;
  // A committing transaction, an aborting one, and three instants.
  obs::detail::emit(EventKind::kTxnBegin, 0, /*lock_mode=*/0, 0, 0);
  obs::detail::emit(EventKind::kTxnCommit, 0, /*rs=*/3, /*ws=*/2, /*att=*/1);
  obs::detail::emit(EventKind::kTxnBegin, 0, 0, 0, 0);
  obs::detail::emit(EventKind::kTxnAbort, /*conflict*/ 1, 5, 0, 2);
  obs::detail::emit(EventKind::kTleFallback, 0, /*attempt=*/3, 0, 0);
  obs::detail::emit(EventKind::kStepChange, /*grow*/ 1, 4, 8, 0);
  obs::detail::emit(EventKind::kPoolAlloc, 0, /*bytes=*/64, 0, 0);

  const std::string path = testing::TempDir() + "chrome_trace_test.json";
  ASSERT_TRUE(obs::export_chrome_trace(path));
  obs::clear_trace();

  const auto doc = Json::parse(read_file(path));
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(field(*doc, "displayTimeUnit", Json::Type::kString)->str(), "ns");
  const Json* events = field(*doc, "traceEvents", Json::Type::kArray);
  ASSERT_NE(events, nullptr);
  // 2 complete spans + 3 instants; begins are folded, not emitted.
  ASSERT_EQ(events->items().size(), 5u);

  int complete = 0;
  int instants = 0;
  for (const Json& e : events->items()) {
    const std::string ph = field(e, "ph", Json::Type::kString)->str();
    field(e, "ts", Json::Type::kNumber);
    field(e, "tid", Json::Type::kNumber);
    field(e, "pid", Json::Type::kNumber);
    if (ph == "X") {
      ++complete;
      field(e, "dur", Json::Type::kNumber);
      const Json* args = field(e, "args", Json::Type::kObject);
      const std::string outcome = args->find("outcome")->str();
      if (outcome == "commit") {
        EXPECT_DOUBLE_EQ(args->find("read_set")->number(), 3.0);
        EXPECT_DOUBLE_EQ(args->find("write_set")->number(), 2.0);
        EXPECT_DOUBLE_EQ(args->find("attempt")->number(), 1.0);
        EXPECT_EQ(args->find("abort")->str(), "none");
      } else {
        EXPECT_EQ(outcome, "abort");
        EXPECT_EQ(args->find("abort")->str(), "conflict");
        EXPECT_DOUBLE_EQ(args->find("read_set")->number(), 5.0);
      }
    } else {
      ++instants;
      EXPECT_EQ(ph, "i");
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 3);
  std::remove(path.c_str());
}

TEST(ChromeTrace, OrphanEndBecomesInstant) {
  obs::clear_trace();
  // A commit whose begin was overwritten by ring wrap-around.
  obs::detail::emit(obs::EventKind::kTxnCommit, 0, 1, 1, 0);
  const std::string path = testing::TempDir() + "chrome_trace_orphan.json";
  ASSERT_TRUE(obs::export_chrome_trace(path));
  obs::clear_trace();
  const auto doc = Json::parse(read_file(path));
  ASSERT_TRUE(doc.has_value());
  const Json* events = doc->find("traceEvents");
  ASSERT_EQ(events->items().size(), 1u);
  EXPECT_EQ(events->items()[0].find("ph")->str(), "i");
  EXPECT_EQ(events->items()[0].find("name")->str(), "txn_commit");
  std::remove(path.c_str());
}

TEST(ChromeTrace, EmptyTraceIsValidJson) {
  obs::clear_trace();
  const std::string path = testing::TempDir() + "chrome_trace_empty.json";
  ASSERT_TRUE(obs::export_chrome_trace(path));
  const auto doc = Json::parse(read_file(path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->items().size(), 0u);
  std::remove(path.c_str());
}

TEST(OpSummary, QuantilesAreOrderedAndInNanoseconds) {
  obs::reset_histograms();
  for (uint64_t c = 100; c <= 100000; c += 100) {
    obs::record_op(obs::OpKind::kUpdate, c);
  }
  const obs::OpSummary s = obs::summarize_op(obs::OpKind::kUpdate);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GT(s.p50_ns, 0.0);
  EXPECT_LE(s.p50_ns, s.p90_ns);
  EXPECT_LE(s.p90_ns, s.p99_ns);
  EXPECT_LE(s.p99_ns, s.max_ns * 1.07);  // bucket-midpoint error bound
  obs::reset_histograms();
  EXPECT_EQ(obs::summarize_op(obs::OpKind::kUpdate).count, 0u);
}

TEST(JsonReport, SchemaV9CarriesObsSections) {
  obs::reset_histograms();
  obs::reset_conflicts();
  obs::reset_retry_stats();
  // Populate every op histogram plus the conflict table with known data.
  for (int op = 0; op < static_cast<int>(obs::OpKind::kNumOps); ++op) {
    obs::record_op(static_cast<obs::OpKind>(op), 1000 + 100 * op);
    obs::record_op(static_cast<obs::OpKind>(op), 2000 + 100 * op);
  }
  // Two conflict retries at attempts 0 and 3 for the retry section.
  obs::record_retry(/*cause=conflict*/ 1, 0);
  obs::record_retry(1, 3);
  const uint8_t ctx = obs::register_context("SchemaAlgo");
  obs::set_thread_context(ctx);
  for (int i = 0; i < 3; ++i) obs::record_conflict(99);
  obs::set_thread_context(0);

  util::Table table({"threads", "SchemaAlgo"});
  table.add_row({"1", "2.5"});
  table.add_row({"2", "4.75"});
  sim::Options opts;
  opts.hist = true;
  const std::string path = testing::TempDir() + "report_schema_test.json";
  bench::write_json_report(path, "schema_test", table, opts);

  const auto doc = Json::parse(read_file(path));
  ASSERT_TRUE(doc.has_value()) << "report is not valid JSON";
  EXPECT_DOUBLE_EQ(field(*doc, "schema_version", Json::Type::kNumber)->number(),
                   10.0);
  EXPECT_EQ(field(*doc, "bench", Json::Type::kString)->str(), "schema_test");

  const Json* options = field(*doc, "options", Json::Type::kObject);
  EXPECT_TRUE(options->find("hist")->boolean());
  EXPECT_FALSE(options->find("trace")->boolean());
  const std::string clock = field(*options, "clock", Json::Type::kString)->str();
  EXPECT_TRUE(clock == "gv1" || clock == "gv5") << clock;
  // Schema 10 dropped the fixed retry and validation policies.
  EXPECT_EQ(options->find("retry"), nullptr);
  EXPECT_EQ(options->find("validation"), nullptr);
  field(*options, "fault_rate", Json::Type::kNumber);
  field(*options, "crash_rate", Json::Type::kNumber);
  // Telemetry off in this run: interval 0, empty SLO spec, and (checked
  // below) no timeline section at all — the zero-overhead shape.
  EXPECT_DOUBLE_EQ(
      field(*options, "sample_interval_ms", Json::Type::kNumber)->number(),
      0.0);
  EXPECT_EQ(field(*options, "slo", Json::Type::kString)->str(), "");
  EXPECT_FALSE(field(*options, "slo_observe", Json::Type::kBool)->boolean());
  // v9 memory-tier options: no bound, no injection in this run.
  EXPECT_DOUBLE_EQ(field(*options, "mem_limit", Json::Type::kNumber)->number(),
                   0.0);
  EXPECT_DOUBLE_EQ(
      field(*options, "alloc_fault_rate", Json::Type::kNumber)->number(), 0.0);

  // HTM counters with the per-code abort breakdown.
  const Json* htm = field(*doc, "htm", Json::Type::kObject);
  field(*htm, "commits", Json::Type::kNumber);
  for (const char* counter :
       {"writer_commits", "clock_bumps", "sloppy_stamps", "clock_resamples",
        "clock_catchups", "coalesced_stores", "faults_injected",
        "crashes_injected", "lock_recoveries", "orphans_reaped",
        "tle_entries", "storm_entries", "storm_exits", "max_consec_aborts"}) {
    field(*htm, counter, Json::Type::kNumber);
  }
  // This in-process run injected nothing: the crash triple must be exactly
  // zero (the zero-overhead guard the validator enforces out of process).
  EXPECT_DOUBLE_EQ(htm->find("crashes_injected")->number(), 0.0);
  EXPECT_DOUBLE_EQ(htm->find("lock_recoveries")->number(), 0.0);
  EXPECT_DOUBLE_EQ(htm->find("orphans_reaped")->number(), 0.0);
  EXPECT_EQ(htm->find("sig_validations"), nullptr);
  const Json* by_code = field(*htm, "aborts_by_code", Json::Type::kObject);
  for (const char* code :
       {"none", "conflict", "overflow", "explicit", "illegal-access",
        "interrupt", "tlb-miss", "save-restore", "alloc-failed"}) {
    field(*by_code, code, Json::Type::kNumber);
  }

  // Per-cause retry quantiles, with the two conflict samples we recorded.
  const Json* retry = field(*doc, "retry", Json::Type::kObject);
  EXPECT_EQ(retry->find("policy"), nullptr);
  const Json* by_cause = field(*retry, "by_cause", Json::Type::kObject);
  for (const char* cause :
       {"none", "conflict", "overflow", "explicit", "illegal-access",
        "interrupt", "tlb-miss", "save-restore", "alloc-failed"}) {
    const Json* entry = field(*by_cause, cause, Json::Type::kObject);
    field(*entry, "count", Json::Type::kNumber);
    field(*entry, "p50_attempt", Json::Type::kNumber);
    field(*entry, "p99_attempt", Json::Type::kNumber);
    field(*entry, "max_attempt", Json::Type::kNumber);
  }
  const Json* conflict_retry = by_cause->find("conflict");
  EXPECT_DOUBLE_EQ(conflict_retry->find("count")->number(), 2.0);
  EXPECT_DOUBLE_EQ(conflict_retry->find("max_attempt")->number(), 3.0);

  // Per-operation latency quantiles for every op, with our recorded counts.
  const Json* lat = field(*doc, "op_latency_ns", Json::Type::kObject);
  for (const char* op :
       {"register", "update", "deregister", "collect", "commit",
        "validate"}) {
    const Json* entry = field(*lat, op, Json::Type::kObject);
    EXPECT_DOUBLE_EQ(field(*entry, "count", Json::Type::kNumber)->number(),
                     2.0);
    EXPECT_GT(field(*entry, "p50", Json::Type::kNumber)->number(), 0.0);
    field(*entry, "p90", Json::Type::kNumber);
    EXPECT_GE(field(*entry, "p99", Json::Type::kNumber)->number(),
              entry->find("p50")->number());
    field(*entry, "max", Json::Type::kNumber);
    field(*entry, "mean", Json::Type::kNumber);
  }

  // Top-K conflict attribution keyed by algorithm label.
  const Json* conflicts = field(*doc, "conflicts", Json::Type::kObject);
  EXPECT_DOUBLE_EQ(conflicts->find("recorded")->number(), 3.0);
  EXPECT_DOUBLE_EQ(conflicts->find("dropped")->number(), 0.0);
  const Json* top = field(*conflicts, "top", Json::Type::kArray);
  ASSERT_EQ(top->items().size(), 1u);
  EXPECT_DOUBLE_EQ(top->items()[0].find("orec")->number(), 99.0);
  EXPECT_DOUBLE_EQ(top->items()[0].find("count")->number(), 3.0);
  const Json* by_algo =
      field(top->items()[0], "by_algo", Json::Type::kObject);
  ASSERT_NE(by_algo->find("SchemaAlgo"), nullptr);
  EXPECT_DOUBLE_EQ(by_algo->find("SchemaAlgo")->number(), 3.0);

  // Trace section mirrors the build's compile-time gate and the runtime
  // switch: no --trace here, so requested and enabled are both false
  // regardless of how the binary was compiled.
  const Json* trace = field(*doc, "trace", Json::Type::kObject);
  EXPECT_EQ(trace->find("compiled")->boolean(), obs::kTraceCompiled);
  EXPECT_FALSE(field(*trace, "requested", Json::Type::kBool)->boolean());
  EXPECT_FALSE(field(*trace, "enabled", Json::Type::kBool)->boolean());
  field(*trace, "events_emitted", Json::Type::kNumber);

  // The v9 mem section is on every report (the pool is always live):
  // global pool accounting plus one ledger per thread that ever touched
  // the pool. This run bounded nothing and injected nothing, so the
  // failure-path counters must be exactly zero and the global ledger must
  // balance.
  const Json* mem = field(*doc, "mem", Json::Type::kObject);
  for (const char* counter :
       {"limit_bytes", "os_bytes", "live_bytes", "live_blocks",
        "allocations", "deallocations", "alloc_failures",
        "alloc_faults_injected", "cache_blocks_stranded",
        "cache_blocks_reaped", "mem_pressure_onsets", "mem_pressure_exits",
        "alloc_fault_rate"}) {
    field(*mem, counter, Json::Type::kNumber);
  }
  EXPECT_DOUBLE_EQ(mem->find("alloc_failures")->number(), 0.0);
  EXPECT_DOUBLE_EQ(mem->find("alloc_faults_injected")->number(), 0.0);
  EXPECT_DOUBLE_EQ(mem->find("mem_pressure_onsets")->number(), 0.0);
  EXPECT_DOUBLE_EQ(mem->find("mem_pressure_exits")->number(), 0.0);
  EXPECT_DOUBLE_EQ(mem->find("allocations")->number() -
                       mem->find("deallocations")->number(),
                   mem->find("live_blocks")->number());
  const Json* threads = field(*mem, "threads", Json::Type::kArray);
  double thread_allocs = 0.0;
  for (const Json& t : threads->items()) {
    field(t, "tid", Json::Type::kNumber);
    field(t, "deallocations", Json::Type::kNumber);
    field(t, "alloc_failures", Json::Type::kNumber);
    field(t, "alloc_faults_injected", Json::Type::kNumber);
    thread_allocs += field(t, "allocations", Json::Type::kNumber)->number();
  }
  EXPECT_DOUBLE_EQ(thread_allocs, mem->find("allocations")->number());

  // Sampler never ran: the timeline section must be absent entirely. And
  // this is not a bench_service report, so the v8 service section must be
  // absent too — only the service harness may emit it.
  EXPECT_EQ(doc->find("timeline"), nullptr);
  EXPECT_EQ(doc->find("service"), nullptr);

  // The swept table survives unchanged, with numeric cells as numbers.
  const Json* columns = field(*doc, "columns", Json::Type::kArray);
  ASSERT_EQ(columns->items().size(), 2u);
  EXPECT_EQ(columns->items()[0].str(), "threads");
  const Json* rows = field(*doc, "rows", Json::Type::kArray);
  ASSERT_EQ(rows->items().size(), 2u);
  EXPECT_DOUBLE_EQ(rows->items()[1].items()[1].number(), 4.75);

  obs::reset_histograms();
  obs::reset_conflicts();
  obs::reset_retry_stats();
  std::remove(path.c_str());
}

}  // namespace
