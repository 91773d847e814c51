// A forwarding ConflictArbiter that counts and traces the decisions of the
// arbiter it wraps.  It is installed only in traced phases; untraced phases
// hand the wrapped arbiter to the library directly.
//
// Every call forwards to the wrapped arbiter with the same view and RNG,
// so decisions, RNG draws and therefore simulated results are identical
// with and without the probe.  Counters live in one cache-line-padded slot
// per calling thread, so counting adds no shared-line traffic and, like the
// arbiter contract requires, never allocates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "conflict/arbiter.hpp"

namespace perfbench {

class ProbeArbiter final : public txc::conflict::ConflictArbiter {
 public:
  struct Counts {
    /// Conflicts seen by decide() (first round of each) and grace_grant().
    std::uint64_t conflicts = 0;
    /// decide() rounds that answered kWait.
    std::uint64_t wait_rounds = 0;
    /// Conflicts whose verdict sacrificed the requestor / killed the enemy
    /// (decide(): the terminal answer; grace_grant(): the expiry verdict).
    std::uint64_t abort_self = 0;
    std::uint64_t abort_enemy = 0;
    /// Resolved grants reported through feedback(): the enemy committed
    /// inside the grace, or the grace expired.
    std::uint64_t grace_committed = 0;
    std::uint64_t grace_expired = 0;
  };

  explicit ProbeArbiter(
      std::shared_ptr<const txc::conflict::ConflictArbiter> inner);

  [[nodiscard]] txc::conflict::Decision decide(
      const txc::conflict::ConflictView& view,
      txc::sim::Rng& rng) const override;
  [[nodiscard]] std::uint64_t wait_quantum(
      const txc::conflict::ConflictView& view) const noexcept override {
    return inner_->wait_quantum(view);
  }
  [[nodiscard]] txc::conflict::GraceGrant grace_grant(
      const txc::conflict::ConflictView& view,
      txc::sim::Rng& rng) const override;
  [[nodiscard]] bool needs_seniority() const noexcept override {
    return inner_->needs_seniority();
  }
  void feedback(const txc::core::ConflictOutcome& outcome)
      const noexcept override;
  [[nodiscard]] std::string name() const override {
    return "Probe(" + inner_->name() + ")";
  }

  /// Sum over every thread's slot.  Exact once the calling threads are
  /// joined (or, for the simulator, once run() returned).
  [[nodiscard]] Counts totals() const noexcept;

 private:
  static constexpr std::size_t kSlots = 64;  // the last slot is shared

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> conflicts{0};
    std::atomic<std::uint64_t> wait_rounds{0};
    std::atomic<std::uint64_t> abort_self{0};
    std::atomic<std::uint64_t> abort_enemy{0};
    std::atomic<std::uint64_t> grace_committed{0};
    std::atomic<std::uint64_t> grace_expired{0};
    /// The current conflict's kill was already counted (decide() keeps
    /// answering kAbortEnemy while the victim unwinds).
    std::atomic<bool> enemy_counted{false};
  };

  [[nodiscard]] Slot& slot() const noexcept;

  std::shared_ptr<const txc::conflict::ConflictArbiter> inner_;
  std::uint64_t id_;  // distinguishes instances in the per-thread slot cache
  mutable std::atomic<std::size_t> next_slot_{0};
  mutable std::array<Slot, kSlots> slots_;
};

}  // namespace perfbench
