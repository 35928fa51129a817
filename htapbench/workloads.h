// The two workloads. Each builds its system through the public APIs,
// runs the measured phase for Args::seconds, checks every output, and
// returns the report (end-to-end metrics, or per-layer ones with --trace 1).
#ifndef HTAPBENCH_WORKLOADS_H_
#define HTAPBENCH_WORKLOADS_H_

#include "bench.h"
#include "core/preemptdb.h"
#include "layers.h"

namespace htapbench {

// kv_submit: a 1M-key table, HP GET/PUT (open loop) and LP ScanSums
// (closed loop) through DB::Submit.
Report RunKvSubmit(const Args& args, std::vector<double> setups);
// tpcc_q2: TPC-C NewOrder/Payment (HP, open loop) + TPC-H Q2 (LP, closed
// loop) through DB::Submit.
Report RunTpccQ2(const Args& args, std::vector<double> setups);
// In both, `setups` holds the durations of earlier set-ups; the run adds
// its own and reports the median as setup_s.

// One complete set-up and tear-down of the workload's system; returns the
// set-up's duration in seconds.
double TimeKvSubmitSetup(const Args& args);
double TimeTpccQ2Setup(const Args& args);

// Q2 output check: the same rows, in the same order, as RunQ2Reference.
bool SameQ2(const std::vector<preemptdb::workload::Q2Result>& a,
            const std::vector<preemptdb::workload::Q2Result>& b);

// Sends HP pings over a short-lived server on `db` and fills the wire
// fields of `in` (the net layer's view for a workload without a network).
void WireProbe(preemptdb::DB* db, LayerInputs* in);

// Scheduler set-up shared by every workload: PreemptDB's preemptive policy
// on two workers, leaving CPU headroom for the front end and the generator.
preemptdb::DB::Options DbOptions();

// Prints the class's counts, sample count, and latency tail to stderr.
void PrintClass(const char* name, const ClassCounts& c,
                const std::vector<double>& lat, const char* unit);

}  // namespace htapbench

#endif  // HTAPBENCH_WORKLOADS_H_
