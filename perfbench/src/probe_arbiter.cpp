#include "probe_arbiter.hpp"

#include <utility>

#include "trace.hpp"

namespace perfbench {

namespace {

using txc::conflict::Decision;

std::atomic<std::uint64_t> next_probe_id{1};

struct SlotCache {
  std::uint64_t probe_id = 0;
  void* slot = nullptr;
};
thread_local SlotCache tls_slot;

void bump(std::atomic<std::uint64_t>& counter) noexcept {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ProbeArbiter::ProbeArbiter(
    std::shared_ptr<const txc::conflict::ConflictArbiter> inner)
    : inner_(std::move(inner)),
      id_(next_probe_id.fetch_add(1, std::memory_order_relaxed)) {}

ProbeArbiter::Slot& ProbeArbiter::slot() const noexcept {
  if (tls_slot.probe_id != id_) {
    const std::size_t index =
        next_slot_.fetch_add(1, std::memory_order_relaxed);
    tls_slot.probe_id = id_;
    tls_slot.slot = &slots_[index < kSlots ? index : kSlots - 1];
  }
  return *static_cast<Slot*>(tls_slot.slot);
}

Decision ProbeArbiter::decide(const txc::conflict::ConflictView& view,
                              txc::sim::Rng& rng) const {
  Decision decision;
  {
    trace::ScopedSpan span{trace::SpanName::kConflictDecide};
    decision = inner_->decide(view, rng);
  }
  Slot& mine = slot();
  if (view.waits_so_far == 0) {
    bump(mine.conflicts);
    mine.enemy_counted.store(false, std::memory_order_relaxed);
  }
  switch (decision) {
    case Decision::kWait:
      bump(mine.wait_rounds);
      break;
    case Decision::kAbortSelf:
      bump(mine.abort_self);
      break;
    case Decision::kAbortEnemy:
      if (!mine.enemy_counted.exchange(true, std::memory_order_relaxed)) {
        bump(mine.abort_enemy);
      }
      break;
  }
  return decision;
}

txc::conflict::GraceGrant ProbeArbiter::grace_grant(
    const txc::conflict::ConflictView& view, txc::sim::Rng& rng) const {
  txc::conflict::GraceGrant grant;
  {
    trace::ScopedSpan span{trace::SpanName::kConflictGrant};
    grant = inner_->grace_grant(view, rng);
  }
  Slot& mine = slot();
  bump(mine.conflicts);
  bump(grant.expiry_verdict == Decision::kAbortEnemy ? mine.abort_enemy
                                                     : mine.abort_self);
  return grant;
}

void ProbeArbiter::feedback(
    const txc::core::ConflictOutcome& outcome) const noexcept {
  Slot& mine = slot();
  bump(outcome.committed ? mine.grace_committed : mine.grace_expired);
  inner_->feedback(outcome);
}

ProbeArbiter::Counts ProbeArbiter::totals() const noexcept {
  Counts sum;
  for (const Slot& s : slots_) {
    sum.conflicts += s.conflicts.load(std::memory_order_relaxed);
    sum.wait_rounds += s.wait_rounds.load(std::memory_order_relaxed);
    sum.abort_self += s.abort_self.load(std::memory_order_relaxed);
    sum.abort_enemy += s.abort_enemy.load(std::memory_order_relaxed);
    sum.grace_committed += s.grace_committed.load(std::memory_order_relaxed);
    sum.grace_expired += s.grace_expired.load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace perfbench
