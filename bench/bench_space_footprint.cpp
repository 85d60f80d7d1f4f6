// The paper's space claims (§1.1, §1.2, §5.5) as a table.
//
// §1.2: non-dynamic announcement schemes make quiescent memory proportional
// to the data structure's *historical* footprint; Dynamic Collect makes it
// proportional to the *current* one. For every algorithm we report shared
// bytes at four points of one history:
//   floor -> 16 registered -> 256 registered -> back to 16 registered
// plus how many slots its Collect traverses afterwards (the time-side echo
// of the same property, Figure 8).
#include <vector>

#include "bench_common.hpp"
#include "memory/pool.hpp"
#include "queue/htm_queue.hpp"
#include "queue/ms_queue.hpp"

int main(int argc, char** argv) {
  using namespace dc;
  const auto opts = sim::Options::parse(argc, argv);
  if (!opts.json_path.empty()) {
    // The space table has no report schema; refuse rather than exit 0
    // having written nothing.
    std::fprintf(stderr,
                 "bench_space_footprint: --json is not supported (this bench "
                 "prints its table only)\n");
    return 1;
  }
  const bench::ObsSession obs_session(opts);
  if (!opts.csv) {
    std::printf(
        "== Space: quiescent shared memory vs registration history ==\n"
        "(history: register 16 -> grow to 256 -> deregister back to 16)\n\n");
  }
  util::Table table({"algorithm", "floor_B", "at16_B", "at256_B",
                     "back_to16_B", "collect_len@16", "dynamic"});
  for (const auto& info : collect::all_algorithms()) {
    auto obj = info.make(bench::params_for(256, 1));  // single-threaded history
    const std::size_t floor_b = obj->footprint_bytes();
    std::vector<collect::Handle> handles;
    for (collect::Value v = 0; v < 16; ++v) {
      handles.push_back(obj->register_handle(v));
    }
    const std::size_t at16 = obj->footprint_bytes();
    for (collect::Value v = 16; v < 256; ++v) {
      handles.push_back(obj->register_handle(v));
    }
    const std::size_t at256 = obj->footprint_bytes();
    while (handles.size() > 16) {
      obj->deregister(handles.back());
      handles.pop_back();
    }
    std::vector<collect::Value> out;
    obj->collect(out);  // lets list algorithms prune; measures scan length
    const std::size_t back16 = obj->footprint_bytes();
    table.add_row({info.name, util::Table::fmt(uint64_t{floor_b}),
                   util::Table::fmt(uint64_t{at16}),
                   util::Table::fmt(uint64_t{at256}),
                   util::Table::fmt(uint64_t{back16}),
                   util::Table::fmt(uint64_t{out.size()}),
                   info.is_dynamic ? "yes" : "no"});
    for (collect::Handle h : handles) obj->deregister(h);
  }
  if (opts.csv) {
    table.print_csv();
  } else {
    table.print();
  }

  // The queue half of the story (§1.1).
  mem::pool_flush_thread_cache();
  const auto base = mem::pool_stats();
  uint64_t htm_quiescent = 0, ms_quiescent = 0;
  {
    queue::HtmQueue q;
    for (queue::Value i = 0; i < 4096; ++i) q.enqueue(i);
    queue::Value v;
    while (q.dequeue(&v)) {
    }
    htm_quiescent = mem::pool_stats().live_blocks - base.live_blocks;
  }
  {
    queue::MsQueue q;
    for (queue::Value i = 0; i < 4096; ++i) q.enqueue(i);
    queue::Value v;
    while (q.dequeue(&v)) {
    }
    ms_quiescent = q.pooled_nodes();
  }
  if (!opts.csv) {
    std::printf(
        "\nqueues after a 4096-entry burst, drained:\n"
        "  HtmQueue quiescent nodes      : %llu (frees on dequeue)\n"
        "  MsQueue pooled nodes          : %llu (historical maximum, §1.1)\n",
        (unsigned long long)htm_quiescent, (unsigned long long)ms_quiescent);
  }
  return 0;
}
