// "Leaky" reclaimer: every retired object is kept until the domain dies.
//
// Zero per-operation reclamation cost and trivially safe, at the price of
// memory growing with the total number of retirements. Two legitimate uses:
//   * benchmarking the pure algorithm with reclamation cost subtracted
//     (bench/micro_reclaimers uses it as the floor), and
//   * tests that want deterministic object lifetimes.
// It is NOT suitable for long-running production workloads.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reclaim/reclaimer_concepts.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

class leaky_domain {
 public:
  leaky_domain(std::uint32_t max_threads, std::uint32_t /*slots_per_thread*/,
               std::uint32_t /*threshold*/ = 0)
      : max_threads_(max_threads), retired_(max_threads) {}

  leaky_domain(const leaky_domain&) = delete;
  leaky_domain& operator=(const leaky_domain&) = delete;

  ~leaky_domain() {
    for (auto& r : retired_) {
      for (auto& item : r->items) item.fn(item.ctx, item.p);
    }
  }

  class guard {
   public:
    guard() = default;
    template <typename T>
    T* protect(std::uint32_t /*slot*/, const std::atomic<T*>& src) noexcept {
      // kpq-order: acquire pairs-with the seq_cst CAS that published *p —
      // lifetime is trivially safe here (nothing is ever freed)
      return src.load(std::memory_order_acquire);
    }
    template <typename T>
    void protect_raw(std::uint32_t /*slot*/, T* /*p*/) noexcept {}
    void clear(std::uint32_t /*slot*/) noexcept {}
  };

  guard enter(std::uint32_t tid) noexcept {
    assert(tid < max_threads_);
    (void)tid;
    return guard{};
  }

  void retire(std::uint32_t tid, void* p, retire_fn fn, void* ctx) {
    auto& r = retired_[tid].get();
    r.items.push_back({p, fn, ctx});
    r.retired.add(1);
  }

  /// Range retirement: leaked like everything else until the domain dies.
  void retire_range(std::uint32_t tid, void* base, std::size_t /*bytes*/,
                    retire_fn fn, void* ctx) {
    retire(tid, base, fn, ctx);
  }

  /// Sum of the per-thread cells: exact at quiescence, an estimate during
  /// a run.
  std::uint64_t retired_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : retired_) n += r->retired.get();
    return n;
  }
  std::uint64_t freed_count() const noexcept { return 0; }

 private:
  struct retired_item {
    void* p;
    retire_fn fn;
    void* ctx;
  };
  struct retired_list {
    std::vector<retired_item> items;
    owner_counter retired;
  };

  std::uint32_t max_threads_;
  std::vector<padded<retired_list>> retired_;
};

static_assert(reclaimer_domain<leaky_domain>);

}  // namespace kpq
