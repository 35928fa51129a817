#include "submit.h"

#include <cstdio>
#include <thread>

#include "util/clock.h"

namespace htapbench {

using preemptdb::MonoNanos;
using preemptdb::Rc;
namespace sched = preemptdb::sched;

namespace {

// Submits `op` running `fn`; `in_flight` (may be null) drops when it
// completes or is refused.
void SubmitOne(preemptdb::DB* db, sched::Priority prio, preemptdb::TxnFn fn,
               int max_attempts, uint64_t timeout_us, bool timeline,
               SubmitOp* op, std::atomic<int>* in_flight) {
  preemptdb::SubmitOptions opts;
  opts.retry.max_attempts = max_attempts;
  opts.timeout_us = timeout_us;
  if (timeline) opts.timeline = &op->tl;
  if (in_flight != nullptr) in_flight->fetch_add(1, std::memory_order_acq_rel);
  op->submit_ns = MonoNanos();
  op->submit = db->Submit(
      prio, std::move(fn),
      [op, in_flight](Rc rc) {
        op->rc = rc;
        op->done_ns = MonoNanos();
        op->done.store(true, std::memory_order_release);
        if (in_flight != nullptr) {
          in_flight->fetch_sub(1, std::memory_order_acq_rel);
          in_flight->notify_one();
        }
      },
      opts);
  if (op->submit != preemptdb::SubmitResult::kAccepted && in_flight != nullptr) {
    in_flight->fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace

void RunSubmitPhase(preemptdb::DB* db, double seconds, SubmitPhase* p) {
  p->start = MonoNanos() + 20'000'000;  // 20 ms to get going
  p->window_end = p->start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<int> lp_in_flight{0};
  std::thread lp_thread([&] {
    SleepUntil(p->start);
    while (MonoNanos() < p->window_end) {
      // Blocks until a completion lowers the count: the refill follows the
      // completion at once, with no polling wake-ups in between.
      const int n = lp_in_flight.load(std::memory_order_acquire);
      if (n >= p->lp_outstanding) {
        lp_in_flight.wait(n, std::memory_order_acquire);
        continue;
      }
      SubmitOp* op = &p->lp.emplace_back();
      SubmitOne(db, sched::Priority::kLow, p->lp_txn(p->lp.size() - 1), 1, 0,
                p->timelines, op, &lp_in_flight);
    }
  });
  UseFineTimerSlack();
  for (size_t i = 0; i < p->hp.size(); ++i) {
    SubmitOp* op = &p->hp[i];
    SleepUntil(p->start + op->due_ns);
    SubmitOne(db, sched::Priority::kHigh, p->hp_txn(i), p->hp_max_attempts,
              p->hp_timeout_us, p->timelines, op, nullptr);
  }
  lp_thread.join();
  db->Drain();
}

Stamps FromTimeline(const preemptdb::obs::TxnTimeline& t) {
  Stamps s;
  s.enqueue = t.enqueue_ns;
  s.dispatch = t.dispatch_ns;
  s.first_run = t.first_run_ns;
  s.done = t.done_ns;
  s.preempts = t.preempts;
  s.valid = t.first_run_ns != 0 && t.done_ns >= t.first_run_ns &&
            t.dispatch_ns >= t.enqueue_ns && t.first_run_ns >= t.dispatch_ns;
  return s;
}

ClassCounts TallySubmitOps(const std::deque<SubmitOp>& ops,
                           const std::function<bool(size_t, Rc)>& correct,
                           const std::function<void(size_t)>& on_ok) {
  ClassCounts c;
  for (size_t i = 0; i < ops.size(); ++i) {
    const SubmitOp& op = ops[i];
    ++c.attempted;
    if (op.submit == preemptdb::SubmitResult::kQueueFull) {
      ++c.busy;
    } else if (op.submit != preemptdb::SubmitResult::kAccepted ||
               !op.done.load(std::memory_order_acquire)) {
      ++c.lost;
    } else if (correct(i, op.rc)) {
      ++c.ok;
      on_ok(i);
    } else {
      if (c.failed() < 5) {
        std::fprintf(stderr, "# op %zu failed: %s\n", i,
                     preemptdb::RcString(op.rc));
      }
      if (op.rc == Rc::kTimeout) {
        ++c.timeout;
      } else if (preemptdb::IsRetryableAbort(op.rc)) {
        ++c.abort;
      } else {
        ++c.other;
      }
    }
  }
  return c;
}

}  // namespace htapbench
