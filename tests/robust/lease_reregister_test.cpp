// The lease decorator (collect/lease.hpp) erases a handle's lease after the
// inner DeRegister returns. By then the handle is free, and another thread
// may already have registered it again and stamped a lease of its own: that
// lease must survive, or a later death of its owner would leave a handle no
// reaper can find. Both erase sites — DeRegister and the reaper's inner
// DeRegister of a dead owner's handle — are driven through that window.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "collect/lease.hpp"
#include "htm/crash.hpp"

namespace dc::collect {
namespace {

// An inner Collect with one slot that a Register takes again as soon as a
// DeRegister frees it — as ArrayStatSearchNo hands a freed slot to the next
// Register — and that runs `after_free` inside that window.
class OneSlotCollect final : public DynamicCollect {
 public:
  std::function<void()> after_free;

  Handle register_handle(Value v) override {
    value_ = v;
    used_ = true;
    return &value_;
  }
  void update(Handle, Value v) override { value_ = v; }
  void deregister(Handle) override {
    used_ = false;
    if (after_free) std::exchange(after_free, nullptr)();
  }
  void collect(std::vector<Value>& out) override {
    out.clear();
    if (used_) out.push_back(value_);
  }
  const char* name() const override { return "OneSlot"; }
  bool is_dynamic() const override { return true; }
  bool uses_htm() const override { return false; }
  std::size_t footprint_bytes() const override { return sizeof(value_); }

 private:
  Value value_ = 0;
  bool used_ = false;
};

// Arms `slot` so that the next DeRegister re-registers the freed handle
// from another thread before returning.
void reregister_elsewhere(OneSlotCollect& slot, CrashTolerantCollect& col) {
  slot.after_free = [&col] {
    std::thread([&col] { EXPECT_NE(col.register_handle(2), nullptr); })
        .join();
  };
}

class LeaseReRegister : public ::testing::Test {
 protected:
  void SetUp() override { htm::crash::reset_all(); }
  void TearDown() override { htm::crash::reset_all(); }
};

TEST_F(LeaseReRegister, HandleReRegisteredInsideADeregisterKeepsItsNewLease) {
  auto inner = std::make_unique<OneSlotCollect>();
  OneSlotCollect& slot = *inner;
  CrashTolerantCollect col(std::move(inner));
  const Handle h = col.register_handle(1);
  reregister_elsewhere(slot, col);
  col.deregister(h);
  EXPECT_EQ(col.lease_count(), 1u);
}

TEST_F(LeaseReRegister, HandleReRegisteredInsideAReapKeepsItsNewLease) {
  auto inner = std::make_unique<OneSlotCollect>();
  OneSlotCollect& slot = *inner;
  CrashTolerantCollect col(std::move(inner));
  std::thread([&] {
    htm::crash::reset_thread();
    (void)col.register_handle(1);
    htm::crash::mark_dead();
  }).join();
  ASSERT_EQ(col.orphan_count(), 1u);
  reregister_elsewhere(slot, col);
  EXPECT_EQ(col.reap_orphans(), 1u);
  EXPECT_EQ(col.lease_count(), 1u);
  EXPECT_EQ(col.orphan_count(), 0u);
}

}  // namespace
}  // namespace dc::collect
