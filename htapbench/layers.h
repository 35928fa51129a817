// Per-layer measurements for the traced run (--trace 1).
//
// Two views of the same system: the request timelines the program already
// echoes (wire kReqFlagWantTimeline, SubmitOptions::timeline), split into
// per-stage delays here; and primitive rows that time direct calls into
// each module's public functions on the workload's own data, reporting
// p50, p99 and max so jitter shows as well as the typical cost.
#ifndef HTAPBENCH_LAYERS_H_
#define HTAPBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/preemptdb.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace htapbench {

// Program counters read before and after the measured phase.
struct CounterSnap {
  uint64_t commits = 0, log_bytes = 0, retries = 0, uipis_sent = 0,
           uipis_received = 0, hp_shed = 0;
  // Interrupts that reached a worker but did not switch it to the preemptive
  // context, by the receiver's reason: already serving HP, inside a
  // non-preemptible region, delivery disabled (no LP running), mid-switch.
  uint64_t dropped_in_preempt = 0, dropped_npreempt = 0, dropped_disabled = 0,
           dropped_in_switch = 0;
};
CounterSnap ReadCounters(preemptdb::DB* db);

// Everything the layer report needs from one workload's measured phase.
struct LayerInputs {
  preemptdb::DB* db = nullptr;
  CounterSnap before, after;
  std::vector<Stamps> hp, lp;       // timelines of HP / LP requests
  std::vector<double> send_late_us; // generator lateness per request
  // HP pings of the wire probe (neither workload crosses the wire): their
  // timelines and client send->recv time minus the echoed server total.
  std::vector<Stamps> wire_hp;
  std::vector<double> wire_us;
  uint64_t hp_completed = 0;        // HP requests that ran (uipis_per_hp)
  // HP transactions that needed more than 3 attempts to commit (tpcc_q2;
  // the KV operations never conflict and are not retried).
  uint64_t hp_over_attempt_budget = 0;
  double replies_per_wake = 0;      // net server replies / eventfd wakes
  // Primitive targets: the workload's main table and a key range in it.
  preemptdb::engine::Table* table = nullptr;
  uint64_t key_lo = 0, key_hi = 0;
  // The TPC-C/TPC-H data the workload primitives run on (may be null: the
  // layer report then loads its own copy at the tpcc_q2 scale).
  preemptdb::workload::TpccWorkload* tpcc = nullptr;
  preemptdb::workload::TpchWorkload* tpch = nullptr;
  std::string tmp_dir;  // for the durable-log probe's directory
  uint64_t seed = 1;
};

// Adds every per-layer metric to `report`. Runs the primitive probes, so
// call it after the measured phase and its output checks.
void AddLayerMetrics(const LayerInputs& in, Report* report);

// Drains the trace rings and pairs each UIPI send with its delivery on the
// target worker's track; returns the delays in microseconds.
std::vector<double> UipiDelaysUs();

// TPC-C / TPC-H scale shared by tpcc_q2 and the workload primitives.
preemptdb::workload::TpccConfig TpccScale();
preemptdb::workload::TpchConfig TpchScale();

}  // namespace htapbench

#endif  // HTAPBENCH_LAYERS_H_
