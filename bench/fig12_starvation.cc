// Figure 12: effectiveness of starvation prevention. The system is
// overloaded with high-priority transactions (paper §6.4: HP queue size 100,
// 1600 requests per ms across 16 workers — scaled here to queue 100 and
// 100x the default batch per worker); throughput and p99 latency of NewOrder
// and Q2 are reported across starvation thresholds, with Wait as baseline.
//
// Paper shape: threshold 100 (prevention disabled) starves Q2 like Wait
// does; threshold 0 maximizes Q2 at the cost of NewOrder tail latency;
// intermediate values (e.g. 0.75) balance the two.
//
//   ./bench/fig12_starvation           # max(PDB_SECONDS, 4) s per variant
//   ./bench/fig12_starvation --smoke   # 1.5 s per variant; exits nonzero
//                                      # unless Q2/s falls from L=0 to
//                                      # L=0.75 to prevention off, and
//                                      # NewOrder/s is higher with prevention
//                                      # off than at L=0.25
#include <algorithm>

#include "bench/common.h"

using namespace preemptdb;
using namespace preemptdb::bench;

int main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  BenchEnv env = BenchEnv::FromEnv();
  const bool smoke = flags.Has("smoke");
  // Q2 takes tens of ms under overload; give each configuration enough
  // wall time for a meaningful Q2 completion count.
  env.seconds = smoke ? 1.5 : std::max(env.seconds, 4.0);
  MixedBench bench(env);

  std::printf("# Fig.12: starvation thresholds under HP overload\n");
  std::printf("%-16s %12s %14s %10s %12s\n", "variant", "neworder/s",
              "no-p99(ms)", "q2/s", "q2-p99(ms)");

  auto overload = [&](sched::Policy policy, bool prevention,
                      double threshold) {
    auto cfg = BaseConfig(policy, env.workers);
    cfg.hp_queue_capacity = 100;
    cfg.tunables.hp_batch_size = static_cast<size_t>(env.workers) * 100;
    cfg.arrival_interval_us = 1000;
    cfg.tunables.starvation_enabled = prevention;
    if (prevention) cfg.tunables.starvation_threshold = threshold;
    return RunMixed(bench, cfg, env.seconds);
  };

  {
    RunResult r = overload(sched::Policy::kWait, false, 0.0);
    std::printf("%-16s %12.1f %14.2f %10.2f %12.2f\n", "Wait",
                r.neworder.tps, r.neworder.p99_us / 1000.0, r.q2.tps,
                r.q2.p99_us / 1000.0);
  }
  RunResult at_l0, at_l025, at_l075, off;
  for (double threshold : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    RunResult r = overload(sched::Policy::kPreempt, true, threshold);
    if (threshold == 0.0) at_l0 = r;
    if (threshold == 0.25) at_l025 = r;
    if (threshold == 0.75) at_l075 = r;
    char name[64];
    std::snprintf(name, sizeof(name), "PreemptDB(L=%g)", threshold);
    std::printf("%-16s %12.1f %14.2f %10.2f %12.2f\n", name, r.neworder.tps,
                r.neworder.p99_us / 1000.0, r.q2.tps,
                r.q2.p99_us / 1000.0);
  }
  {
    // Prevention disabled (the old ">= 100" sentinel, now an explicit state).
    off = overload(sched::Policy::kPreempt, false, 0.0);
    std::printf("%-16s %12.1f %14.2f %10.2f %12.2f\n", "PreemptDB(off)",
                off.neworder.tps, off.neworder.p99_us / 1000.0, off.q2.tps,
                off.q2.p99_us / 1000.0);
  }
  std::printf(
      "# expectation (paper): Q2/s rises as L falls; NewOrder p99 rises as "
      "L falls; prevention off ~ starved Q2\n");
  if (!smoke) return 0;
  // Paper shape: the threshold trades Q2 progress for NewOrder throughput.
  const bool ok = at_l0.q2.tps > at_l075.q2.tps &&
                  at_l075.q2.tps > off.q2.tps &&
                  off.neworder.tps > at_l025.neworder.tps;
  std::printf("# verdict: %s — Q2/s L=0 %.1f > L=0.75 %.1f > off %.1f; "
              "NewOrder/s off %.1f > L=0.25 %.1f\n",
              ok ? "OK" : "FAIL", at_l0.q2.tps, at_l075.q2.tps, off.q2.tps,
              off.neworder.tps, at_l025.neworder.tps);
  return ok ? 0 : 1;
}
