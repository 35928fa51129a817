// Figure 10: end-to-end latency of NewOrder (top) and Q2 (bottom) at the
// 50/90/99/99.9 percentiles under Wait / Cooperative / PreemptDB.
//
// Paper shape: PreemptDB lowers NewOrder latency by 88-96% vs Wait at all
// percentiles; Cooperative beats Wait at the tail but is WORSE at p50 (the
// default 10,000-record yield interval is too coarse); Q2 latency is similar
// across policies, with Cooperative showing elevated p99.9.
//
//   ./bench/fig10_tail_latency           # PDB_SECONDS per policy
//   ./bench/fig10_tail_latency --smoke   # 1 s per policy; exits nonzero
//                                        # unless PreemptDB's NewOrder p50
//                                        # is at most half of Wait's and its
//                                        # p99 is below Wait's
#include "bench/common.h"

using namespace preemptdb;
using namespace preemptdb::bench;

int main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  ObsSession obs(flags);
  BenchEnv env = BenchEnv::FromEnv();
  const bool smoke = flags.Has("smoke");
  if (smoke) env.seconds = 1.0;
  MixedBench bench(env);

  struct Row {
    const char* policy;
    TypeStats neworder, q2;
  };
  Row rows[3];
  int i = 0;
  for (auto policy : {sched::Policy::kWait, sched::Policy::kCooperative,
                      sched::Policy::kPreempt}) {
    auto cfg = BaseConfig(policy, env.workers);
    obs.Configure(cfg);
    RunResult r = RunMixed(bench, cfg, env.seconds, /*hp_stream=*/true,
                           /*standard_mix=*/false, &obs.snapshot(),
                           sched::PolicyName(policy));
    rows[i++] = Row{sched::PolicyName(policy), r.neworder, r.q2};
  }

  std::printf("# Fig.10(top): NewOrder end-to-end latency (us)\n");
  std::printf("%-12s %10s %10s %10s %10s %10s\n", "policy", "p50", "p90",
              "p99", "p99.9", "commits");
  for (const Row& r : rows) {
    std::printf("%-12s %10.1f %10.1f %10.1f %10.1f %10lu\n", r.policy,
                r.neworder.p50_us, r.neworder.p90_us, r.neworder.p99_us,
                r.neworder.p999_us,
                static_cast<unsigned long>(r.neworder.committed));
  }
  std::printf("\n# Fig.10(bottom): Q2 end-to-end latency (ms)\n");
  std::printf("%-12s %10s %10s %10s %10s %10s\n", "policy", "p50", "p90",
              "p99", "p99.9", "commits");
  for (const Row& r : rows) {
    std::printf("%-12s %10.2f %10.2f %10.2f %10.2f %10lu\n", r.policy,
                r.q2.p50_us / 1000.0, r.q2.p90_us / 1000.0,
                r.q2.p99_us / 1000.0, r.q2.p999_us / 1000.0,
                static_cast<unsigned long>(r.q2.committed));
  }

  // Headline number: latency reduction of PreemptDB over Wait.
  auto reduction = [](double wait, double pre) {
    return wait > 0 ? (wait - pre) / wait * 100.0 : 0.0;
  };
  std::printf(
      "\n# PreemptDB NewOrder latency reduction vs Wait: "
      "p50 %.0f%%  p90 %.0f%%  p99 %.0f%%  p99.9 %.0f%% "
      "(paper: 88-96%%)\n",
      reduction(rows[0].neworder.p50_us, rows[2].neworder.p50_us),
      reduction(rows[0].neworder.p90_us, rows[2].neworder.p90_us),
      reduction(rows[0].neworder.p99_us, rows[2].neworder.p99_us),
      reduction(rows[0].neworder.p999_us, rows[2].neworder.p999_us));
  obs.Finish();
  if (!smoke) return 0;
  // Paper shape: preemption cuts the HP median and tail against Wait. The
  // p99 bound is loose because a short run's tail is noisy.
  const TypeStats& wait = rows[0].neworder;
  const TypeStats& pre = rows[2].neworder;
  const bool ok = wait.committed > 0 && pre.committed > 0 &&
                  pre.p50_us <= 0.5 * wait.p50_us && pre.p99_us < wait.p99_us;
  std::printf("# verdict: %s — PreemptDB NewOrder p50 %.1f us vs Wait %.1f us "
              "(need <= 0.5x), p99 %.1f us vs %.1f us (need lower)\n",
              ok ? "OK" : "FAIL", pre.p50_us, wait.p50_us, pre.p99_us,
              wait.p99_us);
  return ok ? 0 : 1;
}
