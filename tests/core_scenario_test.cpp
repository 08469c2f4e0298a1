// Deterministic replays of the paper's operation walk-throughs.
//
// Figure 3 shows the enqueue flow (thread 3 enqueues 400): operation
// published in the request record (3b), node linked behind the last
// element (3c), pending flag cleared (3d), tail fixed (3e). Figure 5 shows
// the dequeue flow (thread 1 dequeues after Figure 3): state points at the
// sentinel (5b), the sentinel's deqTid is claimed (5c), pending cleared
// (5d), head fixed and the value returned (5e).
//
// These tests drive the private helper methods one paper-step at a time via
// the whitebox friend and assert the exact intermediate structure shown in
// each sub-figure — including the interrupted-operation cases the figures
// imply: an operation abandoned after any step must be completed correctly
// by whoever comes next (the heart of the helping scheme).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/wf_queue.hpp"
#include "support/whitebox.hpp"

namespace kpq {

namespace {

using wb = testing::whitebox;
using queue = wf_queue_base<std::uint64_t>;

// Queue of Figure 3a: values 100, 200, 300 already enqueued (the exact
// enqTids in the figure don't affect behaviour; we use real enqueues).
queue* make_fig3a_queue() {
  auto* q = new queue(4);
  q->enqueue(100, 0);
  q->enqueue(200, 1);
  q->enqueue(300, 0);
  return q;
}

TEST(Figure3Enqueue, StepByStep) {
  auto* q = make_fig3a_queue();

  // -- Figure 3b: thread 3 chooses a phase and publishes its operation
  //    (paper lines 62-63). Nothing in the list changes yet.
  const std::int64_t phase = wb::next_phase(*q, 3);
  auto* node400 = wb::make_node(*q, 400, 3);
  wb::publish(*q, 3, phase, /*pending=*/true, /*enq=*/true, node400);

  auto d3 = wb::state(*q, 3);
  EXPECT_TRUE(d3.pending);
  EXPECT_TRUE(d3.enqueue);
  EXPECT_EQ(d3.phase, phase);
  EXPECT_EQ(d3.node, node400);
  EXPECT_EQ(q->unsafe_size(), 3u);

  // -- Figure 3c: the next reference of the last element is swung to the
  //    new node (paper line 74). The node is now in the list but tail still
  //    points at 300 and the operation is still pending.
  auto* last = wb::tail(*q);
  auto* expected = static_cast<queue::node_type*>(nullptr);
  ASSERT_TRUE(last->next.compare_exchange_strong(expected, node400));
  EXPECT_EQ(wb::tail(*q), last) << "tail must not move in step (1)";
  EXPECT_TRUE(wb::state(*q, 3).pending) << "pending clears only in step (2)";
  EXPECT_EQ(q->unsafe_size(), 4u) << "value 400 is linearized as of step (1)";

  // -- Figures 3d + 3e: help_finish_enq clears the pending flag (line 93)
  //    and fixes tail (line 94) — performed here by a *different* thread
  //    (tid 2), as the helping scheme allows.
  wb::help_finish_enq(*q, 2);
  d3 = wb::state(*q, 3);
  EXPECT_FALSE(d3.pending);                // Figure 3d
  EXPECT_TRUE(d3.enqueue);
  EXPECT_EQ(d3.node, node400);
  EXPECT_EQ(wb::tail(*q), node400);         // Figure 3e
  EXPECT_EQ(wb::tail(*q)->enq_tid, 3);

  // The queue must now behave as if thread 3's enqueue completed normally.
  EXPECT_EQ(q->dequeue(0), std::optional<std::uint64_t>(100));
  EXPECT_EQ(q->dequeue(1), std::optional<std::uint64_t>(200));
  EXPECT_EQ(q->dequeue(2), std::optional<std::uint64_t>(300));
  EXPECT_EQ(q->dequeue(3), std::optional<std::uint64_t>(400));
  EXPECT_EQ(q->dequeue(0), std::nullopt);
  delete q;
}

TEST(Figure3Enqueue, AbandonedAfterPublishIsCompletedByHelpEnq) {
  // Thread 3 "crashes" right after Figure 3b; a helper running help_enq
  // must execute all three steps on its behalf.
  auto* q = make_fig3a_queue();
  const std::int64_t phase = wb::next_phase(*q, 3);
  auto* node400 = wb::make_node(*q, 400, 3);
  wb::publish(*q, 3, phase, true, true, node400);

  wb::help_enq(*q, 3, phase, /*helper=*/1);

  EXPECT_FALSE(wb::state(*q, 3).pending);
  EXPECT_EQ(wb::tail(*q), node400);
  EXPECT_EQ(q->unsafe_size(), 4u);
  delete q;
}

TEST(Figure3Enqueue, AbandonedAfterLinkIsCompletedByAnyOperation) {
  // Thread 3 crashes between Figures 3c and 3d (node linked, tail stale).
  // Any other thread's next operation must first finish the dangling
  // enqueue (paper lines 79-80 / 122-123) before proceeding.
  auto* q = make_fig3a_queue();
  const std::int64_t phase = wb::next_phase(*q, 3);
  auto* node400 = wb::make_node(*q, 400, 3);
  wb::publish(*q, 3, phase, true, true, node400);
  auto* last = wb::tail(*q);
  auto* expected = static_cast<queue::node_type*>(nullptr);
  ASSERT_TRUE(last->next.compare_exchange_strong(expected, node400));

  // A regular enqueue by thread 0 — the public API, no whitebox help.
  q->enqueue(500, 0);

  EXPECT_FALSE(wb::state(*q, 3).pending)
      << "dangling enqueue not finished by the next operation";
  EXPECT_EQ(q->unsafe_size(), 5u);
  // FIFO: 100, 200, 300, 400 (thread 3's), 500.
  for (std::uint64_t v : {100u, 200u, 300u, 400u, 500u}) {
    EXPECT_EQ(q->dequeue(1), std::optional<std::uint64_t>(v));
  }
  delete q;
}

TEST(Figure5Dequeue, StepByStep) {
  // Start from the state of Figure 3e reached through the public API.
  auto* q = make_fig3a_queue();
  q->enqueue(400, 3);

  // -- Figure 5a: thread 1 publishes a pending dequeue record with a
  //    null node reference (paper lines 99-100).
  const std::int64_t phase = wb::next_phase(*q, 1);
  wb::publish(*q, 1, phase, /*pending=*/true, /*enq=*/false, nullptr);
  EXPECT_TRUE(wb::state(*q, 1).pending);
  EXPECT_FALSE(wb::state(*q, 1).enqueue);
  EXPECT_EQ(wb::state(*q, 1).node, nullptr);

  // -- Figures 5b + 5c: help_deq performs stage (0) — point thread 1's
  //    state at the first (dummy) node (line 131) — and stage (1) — write
  //    tid 1 into the dummy's deqTid (line 135). We run it via a helper
  //    (thread 2) and stop it from finishing by... we can't stop it, so we
  //    verify 5b/5c post-conditions through the completed run and check the
  //    intermediate claims on a separate manual replay below.
  auto* dummy = wb::head(*q);
  EXPECT_EQ(dummy->deq_tid.load(), no_tid);
  wb::help_deq(*q, 1, phase, /*helper=*/2);

  // After help_deq returns the whole operation is done (5d + 5e):
  auto d1 = wb::state(*q, 1);
  EXPECT_FALSE(d1.pending);                    // Figure 5d
  EXPECT_TRUE(d1.has_value)
      << "the completing CAS swaps the sentinel for the value";
  EXPECT_EQ(dummy->deq_tid.load(), 1);          // Figure 5c happened
  EXPECT_NE(wb::head(*q), dummy);               // Figure 5e: head fixed
  EXPECT_EQ(d1.value, 100u) << "first real value captured in the record";

  // Remaining content: 200, 300, 400.
  for (std::uint64_t v : {200u, 300u, 400u}) {
    EXPECT_EQ(q->dequeue(0), std::optional<std::uint64_t>(v));
  }
  delete q;
}

TEST(Figure5Dequeue, ManualStagesMatchSubfigures) {
  // Replay stages (0)-(1) by hand to pin the exact intermediate states of
  // Figures 5b and 5c, then let help_finish_deq do 5d/5e.
  auto* q = make_fig3a_queue();
  const std::int64_t phase = wb::next_phase(*q, 1);
  wb::publish(*q, 1, phase, true, false, nullptr);

  auto* dummy = wb::head(*q);

  // Figure 5b: stage (0) — point state[1] at the dummy, still pending.
  wb::publish(*q, 1, phase, true, false, dummy);
  EXPECT_TRUE(wb::state(*q, 1).pending);
  EXPECT_EQ(wb::state(*q, 1).node, dummy);
  EXPECT_EQ(dummy->deq_tid.load(), no_tid);
  EXPECT_EQ(wb::head(*q), dummy) << "head untouched until stage (3)";

  // Figure 5c: stage (1) — claim the dummy's deqTid (the linearization).
  std::int32_t expected = no_tid;
  ASSERT_TRUE(dummy->deq_tid.compare_exchange_strong(expected, 1));
  EXPECT_TRUE(wb::state(*q, 1).pending) << "pending clears in stage (2)";
  EXPECT_EQ(wb::head(*q), dummy) << "head moves in stage (3)";

  // Figures 5d + 5e: a helper finishes stages (2)-(3).
  wb::help_finish_deq(*q, 3);
  EXPECT_FALSE(wb::state(*q, 1).pending);      // 5d
  EXPECT_NE(wb::head(*q), dummy);               // 5e
  EXPECT_EQ(wb::state(*q, 1).value, 100u);
  EXPECT_EQ(q->unsafe_size(), 2u);
  delete q;
}

TEST(Figure5Dequeue, AbandonedAfterClaimIsCompletedByAnyOperation) {
  // Thread 1 crashes after stage (1) (deqTid claimed, head stale). The next
  // public-API operation must finish stages (2)-(3) for it.
  auto* q = make_fig3a_queue();
  const std::int64_t phase = wb::next_phase(*q, 1);
  auto* dummy = wb::head(*q);
  wb::publish(*q, 1, phase, true, false, dummy);
  std::int32_t expected = no_tid;
  ASSERT_TRUE(dummy->deq_tid.compare_exchange_strong(expected, 1));

  // Another thread dequeues through the public API: it must first complete
  // thread 1's claimed dequeue (getting it 100), then its own (getting 200).
  EXPECT_EQ(q->dequeue(2), std::optional<std::uint64_t>(200));
  EXPECT_FALSE(wb::state(*q, 1).pending);
  EXPECT_EQ(wb::state(*q, 1).value, 100u);
  EXPECT_EQ(q->unsafe_size(), 1u);
  delete q;
}

TEST(EmptyDequeue, HelperMarksEmptyInState) {
  // The empty-queue path (paper lines 116-121): a helper completing a
  // dequeue on an empty queue must record "empty" (null node) in the
  // owner's state rather than raising anything in its own context.
  queue q(4);
  const std::int64_t phase = wb::next_phase(q, 1);
  wb::publish(q, 1, phase, true, false, nullptr);

  wb::help_deq(q, 1, phase, /*helper=*/0);

  auto d1 = wb::state(q, 1);
  EXPECT_FALSE(d1.pending);
  EXPECT_FALSE(d1.has_value) << "no value encodes the empty result";
  EXPECT_EQ(d1.node, nullptr);
}

TEST(PhaseOrdering, OlderOperationsAreHelpedFirst) {
  // Two pending dequeues with different phases: an operation with a bound
  // between them must help only the older one.
  queue q(4);
  q.enqueue(100, 0);
  q.enqueue(200, 0);

  const std::int64_t ph1 = wb::next_phase(q, 1);
  wb::publish(q, 1, ph1, true, false, nullptr);
  const std::int64_t ph2 = ph1 + 1;
  wb::publish(q, 2, ph2, true, false, nullptr);

  // Helper bound = ph1: completes thread 1's op, must leave thread 2's
  // pending (phase filter, paper line 39 / 59).
  wb::help_deq(q, 1, ph1, /*helper=*/3);
  EXPECT_FALSE(wb::state(q, 1).pending);
  EXPECT_TRUE(wb::state(q, 2).pending);
  EXPECT_EQ(wb::state(q, 1).value, 100u);

  // Now complete thread 2's as well.
  wb::help_deq(q, 2, ph2, /*helper=*/3);
  EXPECT_FALSE(wb::state(q, 2).pending);
  EXPECT_EQ(wb::state(q, 2).value, 200u);
  EXPECT_EQ(q.unsafe_size(), 0u);
}

}  // namespace
}  // namespace kpq
