// Dense thread-id assignment (long-lived renaming).
//
// The KP queue (paper §3.2) assumes every thread owns a unique id in
// [0, NUM_THRDS). Section 3.3 relaxes this: "threads can get and release
// (virtual) IDs from a small name space through one of the known long-lived
// wait-free renaming algorithms". This registry is that substrate: a
// fixed-size claim table where a thread acquires the lowest free slot with a
// single CAS per probe (lock-free, at most `capacity` probes — bounded, hence
// wait-free for a bounded namespace) and releases it when the thread exits.
//
// Ids are process-wide. A thread's id is cached in a thread_local RAII
// holder, so the common case is one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sync/cacheline.hpp"

namespace kpq {

/// Upper bound on simultaneously registered threads. Queues may be built for
/// fewer threads; ids handed out are dense from 0 so a queue sized for k
/// threads works as long as no more than k threads touch it concurrently.
inline constexpr std::uint32_t max_registered_threads = 256;

class thread_registry {
 public:
  static thread_registry& instance() noexcept;

  /// Id of the calling thread, acquiring one on first use. If the namespace
  /// is exhausted, acquire() prints "kpq::thread_registry: more than N
  /// concurrent threads" to stderr and calls std::abort — in every build
  /// type, NDEBUG included: a misconfiguration, not a runtime condition to
  /// handle.
  static std::uint32_t current_tid() noexcept;

  /// Number of slots ever claimed simultaneously is not tracked; this is the
  /// high-water mark of the dense namespace: one past the largest id in use.
  std::uint32_t high_water() const noexcept;

  /// True if `tid` is currently claimed by a live thread.
  bool is_claimed(std::uint32_t tid) const noexcept;

  /// Testing hook: acquire/release explicitly (the thread_local path uses
  /// these internally).
  std::uint32_t acquire() noexcept;
  void release(std::uint32_t tid) noexcept;

 private:
  thread_registry() = default;
  padded<std::atomic<bool>> claimed_[max_registered_threads]{};
};

/// Convenience free function: dense id of this thread.
inline std::uint32_t this_thread_id() noexcept {
  return thread_registry::current_tid();
}

namespace detail {
/// Cold path of a container's entry-point thread-id check (`tid` must be
/// below the `max_threads` it was built for): kept out of line so the hot
/// path pays one compare and a not-taken branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_tid_out_of_range(
    const char* container, std::uint32_t tid, std::uint32_t max_threads) {
  throw std::out_of_range(std::string(container) + ": thread id " +
                          std::to_string(tid) + " >= max_threads " +
                          std::to_string(max_threads));
}
}  // namespace detail

}  // namespace kpq
