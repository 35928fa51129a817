// Measured phase of the DB::Submit workloads: an open-loop HP stream on a
// precomputed schedule and a closed-loop LP stream with a fixed number of
// requests in flight, both through the completion-callback Submit().
//
// HP latency runs from the scheduled submit time to the completion
// callback; LP latency from submit to completion. The callback runs on the
// worker that finished the request, so no extra thread wake-up sits on the
// measured path.
#ifndef HTAPBENCH_SUBMIT_H_
#define HTAPBENCH_SUBMIT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>

#include "bench.h"
#include "core/preemptdb.h"

namespace htapbench {

struct SubmitOp {
  uint64_t due_ns = 0;     // HP: scheduled offset from the start
  uint64_t submit_ns = 0;  // when Submit() was called
  uint64_t done_ns = 0;    // when the completion callback ran
  preemptdb::Rc rc = preemptdb::Rc::kError;
  preemptdb::SubmitResult submit = preemptdb::SubmitResult::kStopped;
  std::atomic<bool> done{false};
  preemptdb::obs::TxnTimeline tl;
};

struct SubmitPhase {
  // HP i runs hp_txn(i) at start + hp[i].due_ns (fill hp[i].due_ns first).
  std::deque<SubmitOp> hp;
  std::function<preemptdb::TxnFn(size_t)> hp_txn;
  int hp_max_attempts = 1;
  uint64_t hp_timeout_us = 0;  // SubmitOptions::timeout_us; 0 = none
  // LP j runs lp_txn(j); lp_outstanding of them stay in flight until the
  // window ends.
  std::deque<SubmitOp> lp;
  std::function<preemptdb::TxnFn(size_t)> lp_txn;
  int lp_outstanding = 2;
  bool timelines = false;  // pass SubmitOptions::timeline

  // Set by Run().
  uint64_t start = 0, window_end = 0;
};

// Runs the phase for `seconds` and waits for every accepted request.
void RunSubmitPhase(preemptdb::DB* db, double seconds, SubmitPhase* p);

// Counts the outcomes of `ops`. `correct(i, rc)` says whether op i's
// terminal status is a correct answer; `on_ok(i)` runs for each op that is.
ClassCounts TallySubmitOps(
    const std::deque<SubmitOp>& ops,
    const std::function<bool(size_t, preemptdb::Rc)>& correct,
    const std::function<void(size_t)>& on_ok);

// Converts a completed TxnTimeline (no network stamps).
Stamps FromTimeline(const preemptdb::obs::TxnTimeline& t);

}  // namespace htapbench

#endif  // HTAPBENCH_SUBMIT_H_
