// kv_submit: KV point operations (HP, open loop) preempting long ScanSums
// (LP, closed loop) over a table far larger than L2, through DB::Submit.
// The GET / PUT / ScanSum bodies are the built-in wire handler's
// (net/server.cc), written against the engine API.
//
// HP inputs are generated from the seed before the run: arrival times,
// opcodes, keys, and for each PUT its key and sequence number; the
// closed-loop scan ranges come from a seeded stream as they are issued.
// PUT keys walk a seeded permutation of the table, so no two writes to one
// key are ever in flight together: a write-write conflict cannot fail a
// request, and "last acked PUT wins" is well defined for the read-back
// check.
#include <algorithm>
#include <cstdio>
#include <deque>

#include "net/client.h"
#include "net/server.h"
#include "submit.h"
#include "util/clock.h"
#include "workloads.h"

namespace htapbench {

namespace net = preemptdb::net;
using preemptdb::DB;
using preemptdb::MonoNanos;
using preemptdb::Rc;
using preemptdb::Slice;

namespace {

constexpr uint64_t kKeys = 1u << 20;  // dense preload: keys 1..kKeys
constexpr size_t kValueSize = 64;
constexpr double kHpRate = 2000;      // HP arrivals per second (Poisson)
constexpr double kHpPutFrac = 0.10;   // share of HP arrivals that are PUTs
// LP ScanSums of 262,144 keys (several ms each), kScansInFlight at a time,
// so the workers are always busy and every HP arrival preempts a scan.
constexpr uint64_t kScanSpan = 262144;
constexpr int kScansInFlight = 2;

enum : uint8_t { kGet, kPut, kScan };

struct KvOp {
  uint64_t due_ns;  // offset from the run start
  uint8_t kind;
  uint64_t a = 0, b = 0;  // key, or scan [a, b]
  uint64_t seq = 0;       // PUT sequence number (index into the PutLog + 1)
};

struct Inputs {
  std::vector<KvOp> hp;
  PutLog puts;
};

Inputs MakeInputs(uint64_t seed, double seconds) {
  Inputs in;
  const uint64_t horizon = static_cast<uint64_t>(seconds * 1e9);
  preemptdb::FastRandom rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<uint64_t> perm(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) perm[i] = i + 1;
  for (uint64_t i = kKeys - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.UniformU64(0, i)]);
  }
  PoissonSchedule hs(kHpRate, seed * 2 + 1);
  for (uint64_t t = hs.Next(); t < horizon; t = hs.Next()) {
    KvOp op{t, kGet};
    if (rng.NextDouble() < kHpPutFrac) {
      op.kind = kPut;
      op.a = perm[in.puts.size() % kKeys];
      in.puts.push_back(PutRecord{op.a, 0, 0});
      op.seq = in.puts.size();
    } else {
      op.a = rng.UniformU64(1, kKeys);
    }
    in.hp.push_back(op);
  }
  return in;
}

Stamps FromWire(const net::TimelineWire& t) {
  Stamps s;
  s.arrival = t.arrival_ns;
  s.enqueue = t.enqueue_ns;
  s.dispatch = t.dispatch_ns;
  s.first_run = t.first_run_ns;
  s.done = t.done_ns;
  s.reply = t.reply_ns;
  s.preempts = t.preempts;
  s.valid = t.first_run_ns != 0 && t.done_ns >= t.first_run_ns &&
            t.dispatch_ns >= t.enqueue_ns && t.first_run_ns >= t.dispatch_ns;
  return s;
}

// The system under test for one set-up.
struct System {
  std::unique_ptr<DB> db;
  preemptdb::engine::Table* table = nullptr;
};

bool Preload(DB* db, preemptdb::engine::Table* t) {
  constexpr uint64_t kBatch = 4096;
  for (uint64_t lo = 1; lo <= kKeys; lo += kBatch) {
    uint64_t hi = std::min(kKeys, lo + kBatch - 1);
    Rc rc = db->Execute([&](preemptdb::engine::Engine& eng) {
      auto* txn = eng.Begin();
      for (uint64_t key = lo; key <= hi; ++key) {
        Rc r = txn->Insert(t, key, EncodeValue(key, 0, kValueSize));
        if (!preemptdb::IsOk(r)) {
          txn->Abort();
          return r;
        }
      }
      return txn->Commit();
    });
    if (!preemptdb::IsOk(rc)) return false;
  }
  return true;
}

// Opens the DB and preloads the table; returns how long that took, in
// seconds. Exits on failure.
double SetUp(System* sys) {
  const uint64_t t0 = MonoNanos();
  sys->db = DB::Open(DbOptions());
  sys->table = sys->db->CreateTable(net::Server::Options().kv_table);
  if (!Preload(sys->db.get(), sys->table)) {
    std::fprintf(stderr, "set-up failed: preload\n");
    std::exit(1);
  }
  return static_cast<double>(MonoNanos() - t0) / 1e9;
}

// Reads back every key a PUT was sent to and applies CheckFinalValue.
// Returns the number of keys checked.
uint64_t CheckReadBack(DB* db, preemptdb::engine::Table* t, const PutLog& puts,
                       Report* r) {
  std::vector<std::vector<uint64_t>> by_key;
  std::vector<uint64_t> keys;
  {
    std::vector<uint64_t> order(puts.size());
    for (uint64_t s = 1; s <= puts.size(); ++s) order[s - 1] = s;
    std::sort(order.begin(), order.end(), [&](uint64_t x, uint64_t y) {
      return puts[x - 1].key < puts[y - 1].key;
    });
    for (uint64_t s : order) {
      if (puts[s - 1].send_ns == 0) continue;
      if (keys.empty() || keys.back() != puts[s - 1].key) {
        keys.push_back(puts[s - 1].key);
        by_key.emplace_back();
      }
      by_key.back().push_back(s);
    }
  }
  auto* txn = db->engine().Begin();
  for (size_t i = 0; i < keys.size(); ++i) {
    Slice v;
    std::string why;
    if (!preemptdb::IsOk(txn->Read(t, keys[i], &v))) {
      r->Fail("written key " + std::to_string(keys[i]) + " is missing");
    } else if (!CheckFinalValue(std::string_view(v.data, v.size), keys[i],
                                kValueSize, puts, by_key[i], &why)) {
      r->Fail(why);
    }
  }
  txn->Commit();
  return keys.size();
}

}  // namespace

DB::Options DbOptions() {
  DB::Options o;
  o.scheduler.policy = preemptdb::sched::Policy::kPreempt;
  o.scheduler.num_workers = 2;
  return o;
}

void PrintClass(const char* name, const ClassCounts& c,
                const std::vector<double>& lat, const char* unit) {
  std::fprintf(stderr,
               "# %-8s attempted=%lu ok=%lu busy=%lu timeout=%lu abort=%lu "
               "lost=%lu other=%lu | n=%zu p50=%.4g p90=%.4g p95=%.4g p99=%.4g "
               "p99.9=%.4g max=%.4g %s\n",
               name, c.attempted, c.ok, c.busy, c.timeout, c.abort, c.lost,
               c.other, lat.size(), Percentile(lat, 50), Percentile(lat, 90),
               Percentile(lat, 95), Percentile(lat, 99),
               Percentile(lat, 99.9), Percentile(lat, 100), unit);
}

void WireProbe(DB* db, LayerInputs* in) {
  net::Server::Options so;
  so.kv_table = "htapbench_ping";
  net::Server server(db, so);
  std::string err;
  net::Client client;
  if (!server.Start(&err) || !client.Connect("127.0.0.1", server.port(), &err)) {
    std::fprintf(stderr, "# wire probe failed: %s\n", err.c_str());
    return;
  }
  for (int i = 0; i < 2000; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(net::Op::kPing);
    h.prio_class = static_cast<uint8_t>(net::WireClass::kHigh);
    h.flags = net::kReqFlagWantTimeline;
    net::Client::Result res;
    uint64_t t0 = MonoNanos();
    if (!client.Call(h, {}, &res, &err)) break;
    uint64_t t1 = MonoNanos();
    if (!res.has_timeline) continue;
    Stamps s = FromWire(res.timeline);
    in->wire_hp.push_back(s);
    in->wire_us.push_back((static_cast<double>(t1 - t0) -
                           static_cast<double>(s.reply - s.arrival)) / 1e3);
    SleepUntil(t1 + 200'000);
  }
  auto st = server.stats();
  in->replies_per_wake =
      st.eventfd_wakes == 0 ? 0 : static_cast<double>(st.replies) / st.eventfd_wakes;
  client.Close();
  server.Stop();
}

namespace {

// The built-in handler's GET / PUT / ScanSum bodies (net/server.cc), for
// the same operations without the wire.
Rc KvGet(preemptdb::engine::Engine& eng, preemptdb::engine::Table* t,
         uint64_t key, std::string* out) {
  auto* txn = eng.Begin();
  Slice v;
  Rc r = txn->Read(t, key, &v);
  if (!preemptdb::IsOk(r)) {
    txn->Abort();
    return r;
  }
  out->assign(v.data, v.size);
  return txn->Commit();
}

Rc KvPut(preemptdb::engine::Engine& eng, preemptdb::engine::Table* t,
         uint64_t key, const std::string& value) {
  auto* txn = eng.Begin();
  Rc r = txn->Update(t, key, value);
  if (r == Rc::kNotFound) r = txn->Insert(t, key, value);
  if (!preemptdb::IsOk(r)) {
    txn->Abort();
    return r;
  }
  return txn->Commit();
}

// Writes {count, bytes} as the wire's 16-byte ScanSum payload.
Rc KvScanSum(preemptdb::engine::Engine& eng, preemptdb::engine::Table* t,
             uint64_t lo, uint64_t hi, std::string* out) {
  auto* txn = eng.Begin();
  uint64_t sums[2] = {0, 0};
  Rc r = txn->Scan(t, lo, hi, [&](preemptdb::index::Key, Slice v) {
    ++sums[0];
    sums[1] += v.size;
    return true;
  });
  if (!preemptdb::IsOk(r)) {
    txn->Abort();
    return r;
  }
  out->assign(reinterpret_cast<const char*>(sums), sizeof(sums));
  return txn->Commit();
}

}  // namespace

double TimeKvSubmitSetup(const Args&) {
  System sys;
  return SetUp(&sys);
}

Report RunKvSubmit(const Args& args, std::vector<double> setups) {
  Report report;
  Inputs in = MakeInputs(args.seed, args.seconds);
  System sys;
  setups.push_back(SetUp(&sys));
  DB* db = sys.db.get();
  preemptdb::engine::Table* table = sys.table;

  SubmitPhase phase;
  for (const KvOp& op : in.hp) phase.hp.emplace_back().due_ns = op.due_ns;
  std::vector<std::string> hp_out(in.hp.size());
  phase.hp_txn = [&](size_t i) -> preemptdb::TxnFn {
    const KvOp op = in.hp[i];
    std::string* out = &hp_out[i];
    if (op.kind == kGet) {
      return [table, op, out](preemptdb::engine::Engine& eng) {
        return KvGet(eng, table, op.a, out);
      };
    }
    in.puts[op.seq - 1].send_ns = MonoNanos();
    return [table, op, value = EncodeValue(op.a, op.seq, kValueSize)](
               preemptdb::engine::Engine& eng) {
      return KvPut(eng, table, op.a, value);
    };
  };
  // LP scan ranges come from their own seeded stream, drawn as the closed
  // loop asks for them.
  preemptdb::FastRandom scan_rng(args.seed * 0xbf58476d1ce4e5b9ull + 37);
  std::deque<std::pair<uint64_t, uint64_t>> scans;
  std::deque<std::string> scan_out;
  phase.lp_outstanding = kScansInFlight;
  phase.lp_txn = [&](size_t) -> preemptdb::TxnFn {
    const uint64_t lo = scan_rng.UniformU64(1, kKeys - kScanSpan + 1);
    const uint64_t hi = lo + kScanSpan - 1;
    scans.emplace_back(lo, hi);
    std::string* out = &scan_out.emplace_back();
    return [table, lo, hi, out](preemptdb::engine::Engine& eng) {
      return KvScanSum(eng, table, lo, hi, out);
    };
  };
  phase.timelines = args.trace;

  LayerInputs layer;
  layer.before = ReadCounters(db);
  RunSubmitPhase(db, args.seconds, &phase);
  layer.after = ReadCounters(db);

  Latencies lat;
  uint64_t lp_in_window = 0;
  std::string why;
  for (const SubmitOp& op : phase.hp) {
    layer.send_late_us.push_back(
        static_cast<double>(op.submit_ns - (phase.start + op.due_ns)) / 1e3);
  }
  auto ok = [](size_t, Rc rc) { return rc == Rc::kOk; };
  ClassCounts hpc = TallySubmitOps(phase.hp, ok, [&](size_t i) {
    const SubmitOp& sop = phase.hp[i];
    const KvOp& op = in.hp[i];
    const double us =
        static_cast<double>(sop.done_ns - (phase.start + sop.due_ns)) / 1e3;
    lat.hp_us.push_back(us);
    if (op.kind == kPut) {
      lat.hp_write_us.push_back(us);
      in.puts[op.seq - 1].ack_ns = sop.done_ns;
    } else if (!CheckGetValue(hp_out[i], op.a, kValueSize, in.puts, &why)) {
      report.Fail(why);
    }
    Stamps st = FromTimeline(sop.tl);
    if (st.valid) layer.hp.push_back(st);
  });
  ClassCounts lpc = TallySubmitOps(phase.lp, ok, [&](size_t j) {
    const SubmitOp& sop = phase.lp[j];
    lat.lp_ms.push_back(static_cast<double>(sop.done_ns - sop.submit_ns) / 1e6);
    if (sop.done_ns <= phase.window_end) ++lp_in_window;
    if (!CheckScanSum(scan_out[j], scans[j].first, scans[j].second,
                      kValueSize, &why)) {
      report.Fail(why);
    }
    Stamps st = FromTimeline(sop.tl);
    if (st.valid) layer.lp.push_back(st);
  });
  lat.lp_ops_per_s = static_cast<double>(lp_in_window) / args.seconds;
  PrintClass("HP", hpc, lat.hp_us, "us");
  PrintClass("LP", lpc, lat.lp_ms, "ms");
  std::fprintf(stderr,
               "# HP writes n=%zu | generator lateness p50=%.4g p99=%.4g "
               "max=%.4g us\n",
               lat.hp_write_us.size(), Percentile(layer.send_late_us, 50),
               Percentile(layer.send_late_us, 99),
               Percentile(layer.send_late_us, 100));
  report.attempted = hpc.attempted + lpc.attempted;
  report.failed = hpc.failed() + lpc.failed();
  uint64_t checked = CheckReadBack(db, table, in.puts, &report);
  std::fprintf(stderr, "# read back %lu written keys\n", checked);

  AddEndToEnd(lat, setups, args.trace, &report);
  if (args.trace) {
    layer.db = db;
    layer.hp_completed = hpc.ok;
    WireProbe(db, &layer);
    layer.table = table;
    layer.key_lo = 1;
    layer.key_hi = kKeys;
    layer.tmp_dir = args.tmp_dir;
    layer.seed = args.seed;
    AddLayerMetrics(layer, &report);
  }
  return report;
}

}  // namespace htapbench
