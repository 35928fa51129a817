// Tests of the benchmark's own logic: the seeded schedule, the output
// checkers (each must reject a wrong answer), the tail statistics, and the
// result line's format.
#include <gtest/gtest.h>

#include <cstring>

#include "bench.h"
#include "engine/engine.h"
#include "obs/json_parse.h"
#include "workloads.h"

namespace htapbench {
namespace {

std::string ScanPayload(uint64_t count, uint64_t bytes) {
  std::string p(16, '\0');
  std::memcpy(p.data(), &count, 8);
  std::memcpy(p.data() + 8, &bytes, 8);
  return p;
}

TEST(Schedule, PoissonHitsItsRate) {
  for (double rate : {300.0, 2000.0}) {
    PoissonSchedule s(rate, 7);
    const uint64_t horizon = 100'000'000'000ull;  // 100 s
    uint64_t n = 0, prev = 0;
    for (uint64_t t = s.Next(); t < horizon; t = s.Next(), ++n) {
      ASSERT_GE(t, prev);
      prev = t;
    }
    // Poisson count over 100 s: sd = sqrt(rate * 100), well inside 3%.
    EXPECT_NEAR(static_cast<double>(n), rate * 100, rate * 100 * 0.03);
  }
}

TEST(Schedule, SameSeedSameArrivals) {
  PoissonSchedule a(2000, 11), b(2000, 11), c(2000, 12);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    differs |= x != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(Checks, ScanSumRejectsWrongAnswers) {
  std::string why;
  EXPECT_TRUE(CheckScanSum(ScanPayload(100, 6400), 1, 100, 64, &why));
  EXPECT_FALSE(CheckScanSum(ScanPayload(99, 6336), 1, 100, 64, &why));
  EXPECT_FALSE(CheckScanSum(ScanPayload(100, 6401), 1, 100, 64, &why));
  EXPECT_FALSE(CheckScanSum(ScanPayload(100, 6400).substr(0, 8), 1, 100, 64,
                            &why));
}

TEST(Checks, GetRejectsWrongValues) {
  PutLog puts = {{5, 100, 200}, {6, 100, 0}};  // seq 1 -> key 5, seq 2 -> key 6
  std::string why;
  EXPECT_TRUE(CheckGetValue(EncodeValue(5, 0, 64), 5, 64, puts, &why));
  EXPECT_TRUE(CheckGetValue(EncodeValue(5, 1, 64), 5, 64, puts, &why));
  // Another key's value, a wrong size, a corrupted byte, a write never sent
  // to this key, a sequence number never issued.
  EXPECT_FALSE(CheckGetValue(EncodeValue(6, 0, 64), 5, 64, puts, &why));
  EXPECT_FALSE(CheckGetValue(EncodeValue(5, 0, 63), 5, 64, puts, &why));
  std::string bad = EncodeValue(5, 0, 64);
  bad[40] ^= 1;
  EXPECT_FALSE(CheckGetValue(bad, 5, 64, puts, &why));
  EXPECT_FALSE(CheckGetValue(EncodeValue(5, 2, 64), 5, 64, puts, &why));
  EXPECT_FALSE(CheckGetValue(EncodeValue(5, 9, 64), 5, 64, puts, &why));
}

TEST(Checks, FinalValueMustBeTheLastAckedPut) {
  // Key 3 written three times: seq 1 acked at 200, seq 2 sent at 300 and
  // acked at 400, seq 3 sent at 500 and never acked.
  PutLog puts = {{3, 100, 200}, {3, 300, 400}, {3, 500, 0}};
  std::vector<uint64_t> to_key = {1, 2, 3};
  std::string why;
  EXPECT_TRUE(CheckFinalValue(EncodeValue(3, 2, 32), 3, 32, puts, to_key, &why));
  // Stale: seq 2 was sent after seq 1 was acked.
  EXPECT_FALSE(CheckFinalValue(EncodeValue(3, 1, 32), 3, 32, puts, to_key, &why));
  // Never acked, the preload, or garbage.
  EXPECT_FALSE(CheckFinalValue(EncodeValue(3, 3, 32), 3, 32, puts, to_key, &why));
  EXPECT_FALSE(CheckFinalValue(EncodeValue(3, 0, 32), 3, 32, puts, to_key, &why));
  EXPECT_FALSE(CheckFinalValue("short", 3, 32, puts, to_key, &why));
}

TEST(Checks, FinalValueOfAKeyWhosePutsWereAllRefused) {
  // Key 4's only PUT (seq 1) was sent but refused, so never acked; seq 2
  // went to key 5.
  PutLog puts = {{4, 100, 0}, {5, 100, 300}};
  std::vector<uint64_t> to_key = {1};
  std::string why;
  // The preload, or the refused PUT if it stuck after all.
  EXPECT_TRUE(CheckFinalValue(EncodeValue(4, 0, 32), 4, 32, puts, to_key, &why));
  EXPECT_TRUE(CheckFinalValue(EncodeValue(4, 1, 32), 4, 32, puts, to_key, &why));
  // Another key's write, a sequence number never issued, or garbage.
  EXPECT_FALSE(CheckFinalValue(EncodeValue(4, 2, 32), 4, 32, puts, to_key, &why));
  EXPECT_FALSE(CheckFinalValue(EncodeValue(4, 9, 32), 4, 32, puts, to_key, &why));
  EXPECT_FALSE(CheckFinalValue(EncodeValue(5, 0, 32), 4, 32, puts, to_key, &why));
}

TEST(Checks, Q2RejectsWrongAnswers) {
  preemptdb::engine::Engine eng;
  preemptdb::workload::TpchWorkload tpch(&eng,
                                         preemptdb::workload::TpchConfig::Small());
  tpch.Load();
  int compared = 0;
  for (int64_t size = 1; size <= 50 && compared < 3; ++size) {
    std::vector<preemptdb::workload::Q2Result> got;
    ASSERT_TRUE(preemptdb::IsOk(tpch.RunQ2(size, 0, 1, &got)));
    auto ref = tpch.RunQ2Reference(size, 0, 1);
    EXPECT_TRUE(SameQ2(got, ref));
    if (got.empty()) continue;
    ++compared;
    auto wrong = got;
    wrong[0].supplycost += 0.01;
    EXPECT_FALSE(SameQ2(wrong, ref));
    wrong = got;
    wrong.pop_back();
    EXPECT_FALSE(SameQ2(wrong, ref));
  }
  EXPECT_GT(compared, 0);
}

TEST(Stats, PercentileAndWindowedTail) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({}, 50), 0);
  // Five windows of 1000 samples; one stall window of huge values moves the
  // whole-run p99 but not the median of the window p99s.
  std::vector<double> w;
  for (int win = 0; win < 5; ++win) {
    for (int i = 0; i < 1000; ++i) w.push_back(win == 2 ? 1e6 : i % 100);
  }
  EXPECT_EQ(WindowedTail(w, 99), 98);  // nearest rank 990 of 0..99 x10
  EXPECT_EQ(Percentile(w, 99), 1e6);
}

TEST(Stats, ShareOverLimit) {
  EXPECT_EQ(ShareOverPct({1, 2, 6000, 7000}, kSlowHpUs), 50);
  EXPECT_EQ(ShareOverPct({5000}, kSlowHpUs), 0);  // strictly above
  EXPECT_EQ(ShareOverPct({}, kSlowHpUs), 0);
}

TEST(Report, JsonRoundTrips) {
  Report r;
  r.attempted = 12345;
  r.failed = 0;
  r.Add("hp_p50_us", 812.30459999999994, "us");
  r.Add("lp_ops_per_s", 301, "1/s");
  r.Add("setup_s", 0.48333512900000002, "s");
  preemptdb::obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(preemptdb::obs::JsonParse(r.ToJson(), &v, &err)) << err;
  ASSERT_EQ(v.members.size(), 4u);
  EXPECT_EQ(v.Find("correct")->boolean, true);
  EXPECT_EQ(v.NumberOr("attempted", -1), 12345);
  EXPECT_EQ(v.NumberOr("failed", -1), 0);
  const auto* m = v.Find("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->members.size(), r.metrics.size());
  for (const Metric& want : r.metrics) {
    const auto* got = m->Find(want.name);
    ASSERT_NE(got, nullptr) << want.name;
    EXPECT_EQ(got->NumberOr("value", -1), want.value) << want.name;
    EXPECT_EQ(got->Find("unit")->str, want.unit);
  }
}

TEST(Args, ParsesTheCommandLine) {
  const char* argv[] = {"htapbench", "--workload", "tpcc_q2", "--seed", "7",
                        "--seconds", "20", "--trace", "1"};
  Args a;
  std::string err;
  ASSERT_TRUE(ParseArgs(9, const_cast<char**>(argv), &a, &err)) << err;
  EXPECT_EQ(a.workload, "tpcc_q2");
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.seconds, 20);
  EXPECT_TRUE(a.trace);
  const char* bad[] = {"htapbench", "--workload", "tpcc_q2", "--seed", "x7"};
  EXPECT_FALSE(ParseArgs(5, const_cast<char**>(bad), &a, &err));
  const char* trace2[] = {"htapbench", "--workload", "tpcc_q2", "--trace", "2"};
  EXPECT_FALSE(ParseArgs(5, const_cast<char**>(trace2), &a, &err));
}

}  // namespace
}  // namespace htapbench
