#include "htm/config.hpp"

#include <cstdlib>
#include <cstring>

namespace dc::htm {

const char* to_string(ClockPolicy policy) noexcept {
  switch (policy) {
    case ClockPolicy::kGv1:
      return "gv1";
    case ClockPolicy::kGv5:
      return "gv5";
  }
  return "?";
}

bool parse_clock_policy(const char* name, ClockPolicy& out) noexcept {
  if (name == nullptr) return false;
  if (std::strcmp(name, "gv1") == 0) {
    out = ClockPolicy::kGv1;
    return true;
  }
  if (std::strcmp(name, "gv5") == 0) {
    out = ClockPolicy::kGv5;
    return true;
  }
  return false;
}

ClockPolicy default_clock_policy() noexcept {
  // Read once: the CI matrix (and scripts/check.sh --clock) pins the whole
  // test run to one policy without a rebuild. Tests that need a specific
  // policy set Config::clock_policy explicitly instead.
  static const ClockPolicy def = [] {
    ClockPolicy p = ClockPolicy::kGv5;
    parse_clock_policy(std::getenv("DC_CLOCK"), p);
    return p;
  }();
  return def;
}

const char* to_string(RetryPolicy) noexcept { return "cause"; }

const char* to_string(ValidationPolicy) noexcept { return "exact"; }

FaultConfig default_fault_config() noexcept {
  // DC_FAULT="RATE" or "RATE:SEED". Out-of-range rates clamp to [0, 1];
  // unparsable values leave injection off.
  static const FaultConfig def = [] {
    FaultConfig f;
    const char* env = std::getenv("DC_FAULT");
    if (env == nullptr) return f;
    char* end = nullptr;
    const double rate = std::strtod(env, &end);
    if (end == env) return f;
    f.rate = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
    if (*end == ':') {
      f.seed = std::strtoull(end + 1, nullptr, 0);
    }
    return f;
  }();
  return def;
}

CrashConfig default_crash_config() noexcept {
  // DC_CRASH="RATE" or "RATE:SEED", same grammar as DC_FAULT.
  static const CrashConfig def = [] {
    CrashConfig c;
    const char* env = std::getenv("DC_CRASH");
    if (env == nullptr) return c;
    char* end = nullptr;
    const double rate = std::strtod(env, &end);
    if (end == env) return c;
    c.rate = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
    if (*end == ':') {
      c.seed = std::strtoull(end + 1, nullptr, 0);
    }
    return c;
  }();
  return def;
}

MemConfig default_mem_config() noexcept {
  // DC_MEM="BYTES" (pool capacity bound), DC_ALLOC_FAULT="RATE" or
  // "RATE:SEED" (same grammar as DC_FAULT). Unparsable values leave the
  // pool unbounded / injection off.
  static const MemConfig def = [] {
    MemConfig m;
    if (const char* env = std::getenv("DC_MEM")) {
      char* end = nullptr;
      const unsigned long long bytes = std::strtoull(env, &end, 0);
      if (end != env) m.limit_bytes = bytes;
    }
    if (const char* env = std::getenv("DC_ALLOC_FAULT")) {
      char* end = nullptr;
      const double rate = std::strtod(env, &end);
      if (end != env) {
        m.alloc_fault_rate = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
        if (*end == ':') {
          m.alloc_fault_seed = std::strtoull(end + 1, nullptr, 0);
        }
      }
    }
    return m;
  }();
  return def;
}

Config& config() noexcept {
  static Config cfg;
  return cfg;
}

}  // namespace dc::htm
