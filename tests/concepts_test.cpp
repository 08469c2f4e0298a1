// Compile-time contract: every queue in the library models the mpmc_queue
// concept (and the auto-tid refinement where applicable), and the policy
// types model the reclaimer concept. Breakage here is an API regression
// even if no runtime test notices.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baseline/locked_queues.hpp"
#include "baseline/ms_queue.hpp"
#include "baseline/universal_queue.hpp"
#include "core/blocking_adapter.hpp"
#include "core/queue_concepts.hpp"
#include "core/wf_queue.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/reclaimer_concepts.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "storage/heap_node_storage.hpp"
#include "storage/segment_storage.hpp"
#include "storage/storage_concepts.hpp"

namespace kpq {
namespace {

// -------- queues model mpmc_queue (+ auto-tid convenience overloads)

static_assert(mpmc_queue_autotid<wf_queue_base<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_opt1<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_opt2<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_opt<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_opt<std::string>>);
static_assert(
    mpmc_queue_autotid<wf_queue<int, help_chunk<2>, cas_phase, epoch_domain>>);
static_assert(mpmc_queue_autotid<wf_queue_fps<std::uint64_t>>);
static_assert(mpmc_queue_autotid<ms_queue<std::uint64_t>>);
static_assert(mpmc_queue_autotid<ms_queue<std::uint64_t, leaky_domain>>);
static_assert(mpmc_queue<two_lock_queue<std::uint64_t>>);
static_assert(mpmc_queue<mutex_queue<std::uint64_t>>);
static_assert(mpmc_queue_autotid<universal_queue<std::uint64_t>>);

// -------- reclaimers model reclaimer_domain

static_assert(reclaimer_domain<hp_domain>);
static_assert(reclaimer_domain<epoch_domain>);
static_assert(reclaimer_domain<leaky_domain>);

// -------- storages model node_storage_for, against every reclaimer

static_assert(node_storage_for<heap_node_storage<std::uint64_t>, hp_domain>);
static_assert(node_storage_for<heap_node_storage<std::string>, epoch_domain>);
static_assert(node_storage_for<segment_storage<std::uint64_t>, hp_domain>);
static_assert(node_storage_for<segment_storage<std::uint64_t>, epoch_domain>);
static_assert(node_storage_for<segment_storage<std::uint64_t>, leaky_domain>);
static_assert(
    node_storage_for<segment_storage<std::string, 8192>, hp_domain>);

// -------- segment-storage queue variants and the bounded queue still model
// the mpmc concepts (the whole point of making storage a policy)

static_assert(mpmc_queue_autotid<wf_queue_base_seg<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_opt_seg<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_fps_seg<std::uint64_t>>);
static_assert(mpmc_queue_autotid<wf_queue_opt_seg<std::string>>);
static_assert(mpmc_queue_autotid<bounded_wf_queue<std::uint64_t>>);
static_assert(
    mpmc_queue_autotid<bounded_wf_queue<int, wf_queue_base_seg<int>>>);

// -------- value-type requirements are enforced, not just documented

template <typename T>
concept wf_queue_instantiable = requires { typename wf_queue<T>; } &&
                                std::is_default_constructible_v<T> &&
                                std::is_copy_constructible_v<T>;
static_assert(wf_queue_instantiable<int>);
static_assert(wf_queue_instantiable<std::string>);

TEST(Concepts, GenericCodeCompilesAgainstTheConcept) {
  // A tiny generic function constrained on the concept must accept every
  // queue type: exercised here with two structurally different ones.
  auto roundtrip = []<mpmc_queue Q>(Q& q) {
    q.enqueue(typename Q::value_type{7}, 0);
    auto v = q.dequeue(0);
    return v.has_value() && *v == typename Q::value_type{7};
  };
  wf_queue_opt<std::uint64_t> wf(2);
  mutex_queue<std::uint64_t> mx;
  EXPECT_TRUE(roundtrip(wf));
  EXPECT_TRUE(roundtrip(mx));
}

}  // namespace
}  // namespace kpq
