#include "util/epoch.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/check.h"

namespace cortex {

namespace {

std::atomic<std::uint64_t> g_domain_serial{1};

// Per-thread cache of claimed slots, keyed by (domain address, serial).
// Entries for destroyed domains go stale harmlessly: the serial check
// rejects them even if the address is recycled by a new domain.
struct SlotCacheEntry {
  const void* domain = nullptr;
  std::uint64_t serial = 0;
  std::size_t slot = 0;
};

thread_local std::vector<SlotCacheEntry> t_slot_cache;

// MRU entry in front of the vector scan: probe-heavy threads re-enter the
// same domain millions of times, and two plain thread_local reads beat a
// loop over the cache on every one of them.
thread_local SlotCacheEntry t_last_slot;

}  // namespace

EpochDomain::EpochDomain() : serial_(g_domain_serial.fetch_add(1)) {}

EpochDomain::~EpochDomain() {
  for (const Slot& s : slots_) {
    CHECK_EQ(s.epoch.load(std::memory_order_seq_cst), 0u)
        << "EpochDomain destroyed while a reader is inside a critical "
           "section";
  }
  // No reader can exist any more; run everything still pending.
  std::vector<RetiredItem> pending;
  {
    MutexLock lock(retire_mu_);
    pending.swap(retired_);
  }
  for (RetiredItem& item : pending) item.fn();
}

std::size_t EpochDomain::SlotForThisThread() {
  if (t_last_slot.domain == this && t_last_slot.serial == serial_) {
    return t_last_slot.slot;
  }
  for (const SlotCacheEntry& e : t_slot_cache) {
    if (e.domain == this && e.serial == serial_) {
      t_last_slot = e;
      return e.slot;
    }
  }
  for (std::size_t i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    if (slots_[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      t_slot_cache.push_back({this, serial_, i});
      t_last_slot = {this, serial_, i};
      return i;
    }
  }
  CHECK(false) << "EpochDomain: more than " << kMaxSlots
               << " distinct reader threads over this domain's lifetime";
  return 0;
}

void EpochDomain::Retire(std::function<void()> fn) {
  DCHECK(fn != nullptr);
  // seq_cst: orders this stamp after the caller's (seq_cst) unlink in
  // the single total order the grace-period proof runs in.
  const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  MutexLock lock(retire_mu_);
  retired_.push_back({e, std::move(fn)});
}

bool EpochDomain::AllSlotsQuiescentOrAt(std::uint64_t epoch) const noexcept {
  for (const Slot& s : slots_) {
    const std::uint64_t v = s.epoch.load(std::memory_order_seq_cst);
    if (v != 0 && v != epoch) return false;
  }
  return true;
}

std::size_t EpochDomain::Flush() {
  std::vector<RetiredItem> due;
  {
    MutexLock lock(retire_mu_);
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    // Two advances per flush at most: enough to drain a quiescent domain
    // in one call without spinning the epoch counter unboundedly.
    for (int round = 0; round < 2; ++round) {
      if (!AllSlotsQuiescentOrAt(e)) break;
      // seq_cst so a reader's subsequent slot store (which follows its
      // epoch load) can never appear to precede this advance.
      epoch_.store(e + 1, std::memory_order_seq_cst);
      e = e + 1;
    }
    const std::uint64_t safe = e >= 2 ? e - 2 : 0;
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if (it->epoch <= safe) {
        due.push_back(std::move(*it));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    retired_.erase(keep, retired_.end());
  }
  // Run callbacks with no internal lock held: they may take locks or
  // Retire() more garbage.
  for (RetiredItem& item : due) item.fn();
  return due.size();
}

void EpochDomain::DrainBlocking() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pending_retired() > 0) {
    Flush();
    if (pending_retired() == 0) break;
    CHECK(std::chrono::steady_clock::now() < deadline)
        << "EpochDomain::DrainBlocking stalled: a reader has been inside "
           "a critical section for 30s";
    std::this_thread::yield();
  }
}

std::size_t EpochDomain::pending_retired() const {
  MutexLock lock(retire_mu_);
  return retired_.size();
}

std::uint64_t EpochDomain::reclaim_lag() const {
  MutexLock lock(retire_mu_);
  if (retired_.empty()) return 0;
  // Concurrent retirers stamp before taking the lock, so the list is only
  // nearly sorted: take the minimum.
  std::uint64_t oldest = retired_.front().epoch;
  for (const RetiredItem& item : retired_) {
    oldest = std::min(oldest, item.epoch);
  }
  return current_epoch() - oldest + 1;
}

EpochReadGuard::EpochReadGuard(EpochDomain& domain)
    : domain_(domain), slot_(domain.SlotForThisThread()) {
  std::atomic<std::uint64_t>& slot = domain_.slots_[slot_].epoch;
  CHECK_EQ(slot.load(std::memory_order_relaxed), 0u)
      << "nested EpochReadGuard on the same domain";
  // Publish-then-revalidate: the seq_cst store makes this thread's
  // presence visible before any subsequent load in the critical section
  // (StoreLoad), and the re-check bounds how stale the stamped epoch can
  // be — at most one advance behind, which the two-epoch grace period
  // already tolerates.
  std::uint64_t e = domain_.epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = domain_.epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
  lock_order_internal::OnAcquire(static_cast<int>(LockRank::kEpochCritical),
                                 "epoch.read");
}

EpochReadGuard::~EpochReadGuard() {
  lock_order_internal::OnRelease(static_cast<int>(LockRank::kEpochCritical));
  // Release: everything this reader did inside the section
  // happens-before a flusher that observes the slot clear.
  domain_.slots_[slot_].epoch.store(0, std::memory_order_release);
}

}  // namespace cortex
