#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sync/mpmc_queue.h"
#include "uintr/fiber.h"
#include "uintr/uintr.h"
#include "util/clock.h"
#include "util/crc32c.h"

namespace htapbench {

using preemptdb::DB;
using preemptdb::MonoNanos;
using preemptdb::Rc;
using preemptdb::Slice;
namespace engine = preemptdb::engine;
namespace workload = preemptdb::workload;

workload::TpccConfig TpccScale() {
  workload::TpccConfig c;
  c.warehouses = 2;
  c.items = 10000;
  c.customers_per_district = 600;
  c.initial_orders_per_district = 600;
  return c;
}

workload::TpchConfig TpchScale() {
  workload::TpchConfig c;
  c.parts = 6000;
  c.suppliers = 300;
  return c;
}

namespace {

uint64_t CounterValue(const char* name) {
  for (int i = 0; i < preemptdb::obs::NumCounters(); ++i) {
    const auto* c = preemptdb::obs::CounterAt(i);
    if (std::strcmp(c->name(), name) == 0) return c->Value();
  }
  return 0;
}

struct Dist {
  double p50 = 0, p99 = 0, max = 0;
};

Dist Summarize(const std::vector<double>& v) {
  Dist d;
  d.p50 = Percentile(v, 50);
  d.p99 = Percentile(v, 99);
  d.max = v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  return d;
}

void AddDist(Report* r, const std::string& stem, const std::string& unit,
             const std::vector<double>& v) {
  Dist d = Summarize(v);
  r->Add(stem + "_p50_" + unit, d.p50, unit);
  r->Add(stem + "_p99_" + unit, d.p99, unit);
  r->Add(stem + "_max_" + unit, d.max, unit);
}

// Times `batches` batches of `per_batch` calls of `op`; ns per call.
template <typename F>
std::vector<double> TimeBatches(int batches, int per_batch, F&& op) {
  std::vector<double> out;
  out.reserve(batches);
  for (int b = 0; b < batches; ++b) {
    uint64_t t0 = MonoNanos();
    for (int i = 0; i < per_batch; ++i) op();
    out.push_back(static_cast<double>(MonoNanos() - t0) / per_batch);
  }
  return out;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// Stage delays (us) over the timelines that carry both stamps.
template <typename F>
std::vector<double> Stage(const std::vector<Stamps>& v, F&& delta_ns) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Stamps& s : v) {
    if (s.valid) out.push_back(static_cast<double>(delta_ns(s)) / 1e3);
  }
  return out;
}

struct FiberPingPong {
  void* main_rsp = nullptr;
  void* fiber_rsp = nullptr;
};
FiberPingPong g_pp;

void PongEntry(void*) {
  for (;;) pdb_fiber_switch(&g_pp.fiber_rsp, g_pp.main_rsp);
}

std::vector<double> FiberSwitchNs() {
  preemptdb::uintr::Fiber fiber(&PongEntry, nullptr, 64 * 1024);
  g_pp.fiber_rsp = fiber.initial_rsp();
  // A round trip is two switches.
  auto v = TimeBatches(2000, 32,
                       [] { pdb_fiber_switch(&g_pp.main_rsp, g_pp.fiber_rsp); });
  for (double& x : v) x /= 2;
  return v;
}

std::vector<double> MpmcPushPopNs() {
  preemptdb::MpmcQueue<uint64_t> q(1024);
  uint64_t sink = 0;
  auto v = TimeBatches(2000, 64, [&] {
    q.TryPush(sink);
    q.TryPop(&sink);
    ++sink;
  });
  return v;
}

std::vector<double> Crc32c4kNs(uint64_t seed) {
  std::vector<char> buf(4096);
  preemptdb::FastRandom rng(seed);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  // Chained through `crc`, and Crc32c lives in another translation unit, so
  // no call can be folded away.
  uint32_t crc = 0;
  return TimeBatches(2000, 4, [&] {
    crc = preemptdb::util::Crc32c(crc, buf.data(), buf.size());
  });
}

// Commit() of a one-row update on a probe table of the workload's
// (in-memory) DB: the log seal without a disk.
std::vector<double> CommitUs(DB* db) {
  engine::Engine& eng = db->engine();
  engine::Table* t = db->GetTable("htapbench_probe");
  if (t == nullptr) t = db->CreateTable("htapbench_probe");
  std::string value(64, 'p');
  std::vector<double> out;
  for (int i = 0; i < 1000; ++i) {
    auto* txn = eng.Begin();
    uint64_t key = static_cast<uint64_t>(i % 64);
    Rc r = txn->Update(t, key, value);
    if (r == Rc::kNotFound) r = txn->Insert(t, key, value);
    if (!preemptdb::IsOk(r)) {
      txn->Abort();
      continue;
    }
    uint64_t t0 = MonoNanos();
    r = txn->Commit();
    if (preemptdb::IsOk(r)) {
      out.push_back(static_cast<double>(MonoNanos() - t0) / 1e3);
    }
  }
  return out;
}

// The redo log and checkpointer, through the program's own code: a probe DB
// with a log directory (group fdatasync at every commit) in `log_dir`, a table
// of kProbeRows rows, then timed one-row update commits, timed foreground
// checkpoints, and a timed reopen through recovery, after which every
// probe key must hold its last committed value.
constexpr uint64_t kProbeRows = 1u << 16;
constexpr size_t kProbeValue = 64;

void DurableLogProbe(const std::string& log_dir, Report* r) {
  DB::Options o;
  o.log_dir = log_dir;
  o.scheduler.num_workers = 1;
  auto db = DB::Open(o);
  engine::Table* t = db->CreateTable("htapbench_durable");
  for (uint64_t lo = 0; lo < kProbeRows; lo += 4096) {
    Rc rc = db->Execute([&](engine::Engine& eng) {
      auto* txn = eng.Begin();
      for (uint64_t k = lo; k < lo + 4096; ++k) {
        Rc w = txn->Insert(t, k, EncodeValue(k, 0, kProbeValue));
        if (!preemptdb::IsOk(w)) {
          txn->Abort();
          return w;
        }
      }
      return txn->Commit();
    });
    if (!preemptdb::IsOk(rc)) {
      r->Fail("durable probe preload");
      return;
    }
  }
  // Commit i writes sequence number i to key i % kHot; true on success.
  constexpr uint64_t kHot = 256, kCommits = 1000;
  auto update = [&](uint64_t i, std::vector<double>* commit_us) {
    auto* txn = db->engine().Begin();
    const uint64_t k = i % kHot;
    if (!preemptdb::IsOk(txn->Update(t, k, EncodeValue(k, i, kProbeValue)))) {
      txn->Abort();
      return false;
    }
    const uint64_t t0 = MonoNanos();
    if (!preemptdb::IsOk(txn->Commit())) return false;
    if (commit_us != nullptr) {
      commit_us->push_back(static_cast<double>(MonoNanos() - t0) / 1e3);
    }
    return true;
  };
  engine::LogManager& log = db->engine().log_manager();
  const uint64_t fsyncs0 = log.fsyncs(), bytes0 = log.total_bytes();
  std::vector<double> commit_us;
  for (uint64_t i = 1; i <= kCommits; ++i) {
    if (!update(i, &commit_us)) {
      r->Fail("durable probe commit");
      return;
    }
  }
  r->Add("engine.log.fsyncs_per_commit", Ratio(log.fsyncs() - fsyncs0, kCommits),
         "count");
  r->Add("engine.log.durable_bytes_per_commit",
         Ratio(log.total_bytes() - bytes0, kCommits), "B");
  AddDist(r, "engine.log.durable_commit", "us", commit_us);
  std::vector<double> ckpt_ms;
  for (int i = 0; i < 3; ++i) {
    const uint64_t t0 = MonoNanos();
    if (!db->engine().WriteCheckpointNow()) {
      r->Fail("durable probe checkpoint");
      return;
    }
    ckpt_ms.push_back(static_cast<double>(MonoNanos() - t0) / 1e6);
  }
  r->Add("engine.ckpt_ms", Median(ckpt_ms), "ms");
  // A tail of commits after the last checkpoint, for recovery to replay.
  for (uint64_t i = kCommits + 1; i <= kCommits + kHot; ++i) {
    if (!update(i, nullptr)) {
      r->Fail("durable probe commit");
      return;
    }
  }
  db.reset();
  const uint64_t t0 = MonoNanos();
  db = DB::Open(o);
  r->Add("engine.recovery_ms", static_cast<double>(MonoNanos() - t0) / 1e6, "ms");
  t = db->GetTable("htapbench_durable");
  auto* txn = t == nullptr ? nullptr : db->engine().Begin();
  for (uint64_t k = 0; txn != nullptr && k < kHot; ++k) {
    Slice v;
    uint64_t seq = 0;
    if (!preemptdb::IsOk(txn->Read(t, k, &v)) ||
        !DecodeValue(std::string_view(v.data, v.size), k, kProbeValue, &seq) ||
        seq != kCommits + kHot - (kCommits + kHot - k) % kHot) {
      r->Fail("durable probe: key " + std::to_string(k) +
              " lost its last committed value across recovery");
      break;
    }
  }
  if (txn != nullptr) txn->Commit();
  if (t == nullptr) r->Fail("durable probe: table missing after recovery");
}

// Runs the probe in a fresh directory under `dir` and removes it after.
void AddDurableLog(const std::string& dir, Report* r) {
  const std::string log_dir = dir + "/durable_probe." + std::to_string(::getpid());
  std::filesystem::remove_all(log_dir);
  std::filesystem::create_directories(log_dir);
  DurableLogProbe(log_dir, r);
  std::filesystem::remove_all(log_dir);
}

// Duration of DB::Submit calls for no-op HP transactions, paced so the
// inbox never fills.
std::vector<double> SubmitCallNs(DB* db) {
  std::vector<double> out;
  std::atomic<uint64_t> done{0};
  for (int i = 0; i < 2000; ++i) {
    uint64_t t0 = MonoNanos();
    auto res = db->Submit(
        preemptdb::sched::Priority::kHigh,
        [](engine::Engine&) { return Rc::kOk; },
        [&done](Rc) { done.fetch_add(1, std::memory_order_relaxed); });
    uint64_t t1 = MonoNanos();
    if (res == preemptdb::SubmitResult::kAccepted) {
      out.push_back(static_cast<double>(t1 - t0));
    }
    SleepUntil(t1 + 20'000);
  }
  db->Drain();
  return out;
}

void AddWorkloadPrimitives(workload::TpccWorkload* tpcc,
                           workload::TpchWorkload* tpch, uint64_t seed,
                           Report* r) {
  preemptdb::FastRandom rng(seed);
  std::vector<double> no, pay, q2;
  for (int i = 0; i < 400; ++i) {
    uint64_t w = static_cast<uint64_t>(rng.Uniform(1, tpcc->config().warehouses));
    uint64_t s = rng.Next();
    uint64_t t0 = MonoNanos();
    Rc rc = (i % 2 == 0) ? tpcc->RunNewOrder(w, s) : tpcc->RunPayment(w, s);
    double us = static_cast<double>(MonoNanos() - t0) / 1e3;
    if (rc == Rc::kOk) (i % 2 == 0 ? no : pay).push_back(us);
  }
  for (int i = 0; i < 5; ++i) {
    auto req = tpch->GenQ2(rng);
    uint64_t t0 = MonoNanos();
    Rc rc = tpch->RunQ2(static_cast<int64_t>(req.params[0]),
                        static_cast<int64_t>(req.params[1]),
                        static_cast<int64_t>(req.params[2]), nullptr);
    if (rc == Rc::kOk) q2.push_back(static_cast<double>(MonoNanos() - t0) / 1e6);
  }
  r->Add("workload.neworder_p50_us", Percentile(no, 50), "us");
  r->Add("workload.payment_p50_us", Percentile(pay, 50), "us");
  r->Add("workload.q2_ms", Percentile(q2, 50), "ms");
}

}  // namespace

CounterSnap ReadCounters(DB* db) {
  CounterSnap s;
  s.commits = db->engine().commits.load(std::memory_order_relaxed);
  s.log_bytes = db->engine().log_manager().total_bytes();
  s.retries = CounterValue("db.retry_attempts");
  auto& sch = db->scheduler();
  s.uipis_sent = sch.uipis_sent();
  s.hp_shed = sch.hp_dropped();
  for (int i = 0; i < sch.num_workers(); ++i) {
    if (auto* rcv = sch.worker(i).receiver(); rcv != nullptr) {
      const auto& st = preemptdb::uintr::StatsOf(rcv);
      s.uipis_received += st.received.load(std::memory_order_relaxed);
      s.dropped_in_preempt += st.dropped_in_preempt.load(std::memory_order_relaxed);
      s.dropped_npreempt += st.dropped_npreempt.load(std::memory_order_relaxed);
      s.dropped_disabled += st.dropped_disabled.load(std::memory_order_relaxed);
      s.dropped_in_switch += st.dropped_in_switch.load(std::memory_order_relaxed);
    }
  }
  return s;
}

std::vector<double> UipiDelaysUs() {
  using preemptdb::obs::EventType;
  preemptdb::obs::TraceExporter exp;
  std::vector<uint64_t> last_sent(preemptdb::obs::kMaxTracks, 0);
  std::vector<double> out;
  for (const auto& e : exp.events()) {
    auto type = static_cast<EventType>(e.type);
    if (type == EventType::kUipiSent && e.a32 < last_sent.size()) {
      last_sent[e.a32] = e.ts_ns;
    } else if (type == EventType::kUipiDelivered && e.track < last_sent.size() &&
               last_sent[e.track] != 0 && e.ts_ns >= last_sent[e.track]) {
      out.push_back(static_cast<double>(e.ts_ns - last_sent[e.track]) / 1e3);
      last_sent[e.track] = 0;
    }
  }
  return out;
}

void AddLayerMetrics(const LayerInputs& in, Report* r) {
  const CounterSnap& a = in.before;
  const CounterSnap& b = in.after;
  // Before the probes below add interrupts of their own.
  const Dist delivery = Summarize(UipiDelaysUs());

  // client + net (timelines of HP requests that crossed the wire)
  r->Add("client.send_late_p99_us", Percentile(in.send_late_us, 99), "us");
  r->Add("net.wire_p50_us", Percentile(in.wire_us, 50), "us");
  r->Add("net.admit_p99_us",
         Percentile(Stage(in.wire_hp, [](const Stamps& s) {
                      return s.enqueue - s.arrival;
                    }), 99),
         "us");
  r->Add("net.reply_p99_us",
         Percentile(Stage(in.wire_hp, [](const Stamps& s) {
                      return s.reply - s.done;
                    }), 99),
         "us");
  r->Add("net.replies_per_wake", in.replies_per_wake, "count");

  // core admission: submission queue until the scheduler's tick takes it
  auto e2d = Stage(in.hp, [](const Stamps& s) { return s.dispatch - s.enqueue; });
  r->Add("core.enqueue_to_dispatch_p50_us", Percentile(e2d, 50), "us");
  r->Add("core.enqueue_to_dispatch_p99_us", Percentile(e2d, 99), "us");
  r->Add("core.submit_call_p50_ns", Percentile(SubmitCallNs(in.db), 50), "ns");

  // sched
  auto d2r = Stage(in.hp, [](const Stamps& s) { return s.first_run - s.dispatch; });
  r->Add("sched.dispatch_to_run_hp_p50_us", Percentile(d2r, 50), "us");
  r->Add("sched.dispatch_to_run_hp_p99_us", Percentile(d2r, 99), "us");
  r->Add("sched.run_hp_p50_us",
         Percentile(Stage(in.hp, [](const Stamps& s) {
                      return s.done - s.first_run;
                    }), 50),
         "us");
  r->Add("sched.run_lp_p50_ms",
         Percentile(Stage(in.lp, [](const Stamps& s) {
                      return s.done - s.first_run;
                    }), 50) / 1e3,
         "ms");
  uint64_t lp_preempts = 0, lp_runs = 0;
  for (const Stamps& s : in.lp) {
    if (!s.valid) continue;
    lp_preempts += s.preempts;
    ++lp_runs;
  }
  r->Add("sched.lp_preempts_per_txn", Ratio(lp_preempts, lp_runs), "count");
  r->Add("sched.uipis_per_hp", Ratio(b.uipis_sent - a.uipis_sent, in.hp_completed),
         "count");
  r->Add("sched.hp_shed", static_cast<double>(b.hp_shed - a.hp_shed), "count");

  // uintr
  r->Add("uintr.delivery_p50_us", delivery.p50, "us");
  r->Add("uintr.delivery_p99_us", delivery.p99, "us");
  r->Add("uintr.delivery_max_us", delivery.max, "us");
  r->Add("uintr.delivered_per_sent",
         Ratio(b.uipis_received - a.uipis_received, b.uipis_sent - a.uipis_sent),
         "count");
  const uint64_t sent = b.uipis_sent - a.uipis_sent;
  r->Add("uintr.dropped_in_preempt_per_sent",
         Ratio(b.dropped_in_preempt - a.dropped_in_preempt, sent), "count");
  r->Add("uintr.dropped_npreempt_per_sent",
         Ratio(b.dropped_npreempt - a.dropped_npreempt, sent), "count");
  r->Add("uintr.dropped_disabled_per_sent",
         Ratio(b.dropped_disabled - a.dropped_disabled, sent), "count");
  r->Add("uintr.dropped_in_switch_per_sent",
         Ratio(b.dropped_in_switch - a.dropped_in_switch, sent), "count");
  AddDist(r, "uintr.fiber_switch", "ns", FiberSwitchNs());

  // engine
  auto commit = CommitUs(in.db);
  r->Add("engine.commit_p50_us", Percentile(commit, 50), "us");
  r->Add("engine.commit_p99_us", Percentile(commit, 99), "us");
  uint64_t commits = b.commits - a.commits;
  r->Add("engine.log.bytes_per_commit", Ratio(b.log_bytes - a.log_bytes, commits),
         "B");
  r->Add("engine.retries_per_commit", Ratio(b.retries - a.retries, commits),
         "count");
  r->Add("engine.hp_over_3_attempts",
         static_cast<double>(in.hp_over_attempt_budget), "count");
  AddDurableLog(in.tmp_dir, r);

  preemptdb::FastRandom rng(in.seed);
  const uint64_t lo = in.key_lo, hi = in.key_hi;
  {
    auto* txn = in.db->engine().Begin();
    Slice s;
    AddDist(r, "engine.visible_read", "ns", TimeBatches(2000, 16, [&] {
              (void)txn->Read(in.table, rng.UniformU64(lo, hi), &s);
            }));
    txn->Commit();
  }
  auto crc = Crc32c4kNs(in.seed);
  r->Add("engine.crc32c_mb_per_s", 4096.0 / Percentile(crc, 50) * 1e3, "MB/s");
  AddDist(r, "engine.crc32c_4k", "ns", crc);

  // index, at the workload's table size
  {
    preemptdb::engine::Oid oid{};
    AddDist(r, "index.lookup", "ns", TimeBatches(2000, 16, [&] {
              (void)in.table->primary().Lookup(rng.UniformU64(lo, hi), &oid);
            }));
    std::vector<double> per_row;
    const uint64_t span = std::min<uint64_t>(1024, hi - lo + 1);
    for (int i = 0; i < 300; ++i) {
      uint64_t from = rng.UniformU64(lo, hi - span + 1);
      uint64_t rows = 0;
      uint64_t t0 = MonoNanos();
      in.table->primary().Scan(from, from + span - 1, [&](uint64_t, uint64_t) {
        ++rows;
        return true;
      });
      if (rows > 0) {
        per_row.push_back(static_cast<double>(MonoNanos() - t0) /
                          static_cast<double>(rows));
      }
    }
    AddDist(r, "index.scan_per_row", "ns", per_row);
  }

  // sync
  AddDist(r, "sync.mpmc_push_pop", "ns", MpmcPushPopNs());

  // workload primitives on the tpcc_q2 data set
  if (in.tpcc != nullptr && in.tpch != nullptr) {
    AddWorkloadPrimitives(in.tpcc, in.tpch, in.seed, r);
  } else {
    engine::Engine eng;
    workload::TpccWorkload tpcc(&eng, TpccScale());
    workload::TpchWorkload tpch(&eng, TpchScale());
    tpcc.Load();
    tpch.Load();
    AddWorkloadPrimitives(&tpcc, &tpch, in.seed, r);
  }
}

}  // namespace htapbench
