#include "sim/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace dc::sim {

Options Options::parse(int argc, char** argv) {
  Options opts;
  // Default thread budget: the paper's 16 when the hardware plausibly
  // supports it, scaled down on small hosts (oversubscribing a single core
  // 16:1 starves the measured thread; see src/sim/pacing.hpp).
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned suggested = hw == 0 ? 16 : hw * 4;
  opts.max_threads = suggested > 16 ? 16 : (suggested < 4 ? 4 : suggested);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--csv") == 0) {
      opts.csv = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      opts.json_path = next_value();
    } else if (std::strcmp(arg, "--trace") == 0) {
      opts.trace_path = next_value();
    } else if (std::strcmp(arg, "--clock") == 0) {
      opts.clock = next_value();
    } else if (std::strcmp(arg, "--fault-rate") == 0) {
      opts.fault_rate = std::atof(next_value());
    } else if (std::strcmp(arg, "--crash-rate") == 0) {
      opts.crash_rate = std::atof(next_value());
    } else if (std::strcmp(arg, "--mem-limit") == 0) {
      const char* v = next_value();
      char* end = nullptr;
      unsigned long long bytes = std::strtoull(v, &end, 0);
      if (*end == 'k' || *end == 'K') {
        bytes <<= 10;
      } else if (*end == 'm' || *end == 'M') {
        bytes <<= 20;
      } else if (*end == 'g' || *end == 'G') {
        bytes <<= 30;
      } else if (*end != '\0' || end == v) {
        std::fprintf(stderr, "--mem-limit wants BYTES[k|m|g], got %s\n", v);
        std::exit(2);
      }
      opts.mem_limit = bytes;
    } else if (std::strcmp(arg, "--alloc-fault-rate") == 0) {
      opts.alloc_fault_rate = std::atof(next_value());
    } else if (std::strcmp(arg, "--sample-interval") == 0) {
      opts.sample_interval_ms = std::atof(next_value());
    } else if (std::strcmp(arg, "--slo") == 0) {
      opts.slo = next_value();
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      opts.metrics_path = next_value();
    } else if (std::strcmp(arg, "--slo-observe") == 0) {
      opts.slo_observe = true;
    } else if (std::strcmp(arg, "--arrival-rate") == 0) {
      opts.arrival_rate = std::atof(next_value());
    } else if (std::strcmp(arg, "--burstiness") == 0) {
      opts.burstiness = std::atof(next_value());
    } else if (std::strcmp(arg, "--chaos") == 0) {
      opts.chaos_path = next_value();
    } else if (std::strcmp(arg, "--workers") == 0) {
      opts.workers = static_cast<uint32_t>(std::atoi(next_value()));
    } else if (std::strcmp(arg, "--queue-capacity") == 0) {
      opts.queue_capacity = static_cast<uint32_t>(std::atoi(next_value()));
    } else if (std::strcmp(arg, "--longtail") == 0) {
      const char* v = next_value();
      char* end = nullptr;
      const double frac = std::strtod(v, &end);
      if (end == v || *end != ':' || frac < 0.0 || frac > 1.0) {
        std::fprintf(stderr, "--longtail wants FRAC:DWELL, got %s\n", v);
        std::exit(2);
      }
      const int dwell = std::atoi(end + 1);
      if (dwell <= 0) {
        std::fprintf(stderr, "--longtail DWELL must be positive\n");
        std::exit(2);
      }
      opts.longtail_fraction = frac;
      opts.longtail_requests = static_cast<uint32_t>(dwell);
    } else if (std::strcmp(arg, "--hist") == 0) {
      opts.hist = true;
    } else if (std::strcmp(arg, "--duration-ms") == 0) {
      opts.duration_ms = std::atof(next_value());
    } else if (std::strcmp(arg, "--repeats") == 0) {
      opts.repeats = std::atoi(next_value());
    } else if (std::strcmp(arg, "--max-threads") == 0) {
      opts.max_threads = static_cast<uint32_t>(std::atoi(next_value()));
    } else if (std::strcmp(arg, "--full") == 0) {
      opts.duration_ms = 200.0;
      opts.repeats = 10;  // the paper averages 10 runs per point
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_help(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s (see --help)\n", arg);
      std::exit(2);
    }
  }
  if (opts.repeats < 1) opts.repeats = 1;
  if (opts.duration_ms < 1.0) opts.duration_ms = 1.0;
  if (opts.max_threads < 1) opts.max_threads = 1;
  if (opts.fault_rate > 1.0) opts.fault_rate = 1.0;
  if (opts.crash_rate > 1.0) opts.crash_rate = 1.0;
  if (opts.alloc_fault_rate > 1.0) opts.alloc_fault_rate = 1.0;
  if (opts.arrival_rate < 0.0) opts.arrival_rate = 0.0;
  if (opts.burstiness < 0.0) opts.burstiness = 0.0;
  if (opts.burstiness > 0.95) opts.burstiness = 0.95;
  if (opts.sample_interval_ms < 0.0) opts.sample_interval_ms = 0.0;
  // SLO targets and the Prometheus exposition are computed by the sampler;
  // asking for either without a sampling interval implies the 10 ms
  // default rather than silently producing nothing.
  if (opts.sample_interval_ms == 0.0 &&
      (!opts.slo.empty() || !opts.metrics_path.empty())) {
    opts.sample_interval_ms = 10.0;
  }
  return opts;
}

void Options::print_help(const char* prog) {
  std::printf(
      "usage: %s [--csv] [--json PATH] [--trace PATH] [--clock gv1|gv5] "
      "[--fault-rate P] [--crash-rate P] [--mem-limit BYTES[k|m|g]] "
      "[--alloc-fault-rate P] "
      "[--sample-interval MS] [--slo SPEC] "
      "[--metrics-out PATH] [--slo-observe] [--arrival-rate R] "
      "[--burstiness B] [--chaos PATH] [--workers N] [--queue-capacity N] "
      "[--longtail FRAC:DWELL] [--hist] [--duration-ms N] [--repeats N] "
      "[--max-threads N] [--full]\n",
      prog);
}

std::vector<uint32_t> thread_sweep(const Options& opts) {
  std::vector<uint32_t> sweep;
  for (uint32_t t : {1u, 2u, 4u, 8u, 12u, 16u}) {
    if (t <= opts.max_threads) sweep.push_back(t);
  }
  if (sweep.empty()) sweep.push_back(1);
  return sweep;
}

}  // namespace dc::sim
