// Shared pieces of the open-loop HTAP benchmark: command line, exact
// percentiles, the seeded Poisson schedule, the value codec and output
// checkers, per-class outcome counts, and the one-line JSON report.
//
// Everything here is program-independent on purpose: the checkers decide
// from the bytes a request returned and from what the generator sent, never
// from the engine's own bookkeeping.
#ifndef HTAPBENCH_BENCH_H_
#define HTAPBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/random.h"

namespace htapbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for the durable log and the fdatasync probe; the
  // benchmark removes what it creates there.
  std::string tmp_dir = ".";
};

// Parses `--workload W --seed N --seconds S --trace 0|1 [--tmp-dir D]`
// (space- or '='-separated). False + *err on a missing or malformed value.
bool ParseArgs(int argc, char** argv, Args* out, std::string* err);

// --- Statistics --------------------------------------------------------

// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

// Tail estimate robust to a few host stalls: the samples, in send order, are
// cut into consecutive windows of at least kTailWindow samples, and the
// result is the median of the windows' p-th percentiles. A stall of a few
// milliseconds then spoils one window instead of the whole run's tail. With
// fewer than 2 * kTailWindow samples it is the whole-run percentile.
inline constexpr size_t kTailWindow = 1000;
double WindowedTail(const std::vector<double>& in_order, double p);

double Median(std::vector<double> v);

// --- Open-loop schedule ------------------------------------------------

// Seeded Poisson arrivals: exponential gaps with mean 1/rate, as offsets in
// nanoseconds from the run start.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, uint64_t seed);
  uint64_t Next();

 private:
  preemptdb::FastRandom rng_;
  double mean_gap_ns_;
  double next_ns_ = 0;
};

// Sleeps until MonoNanos() >= t_ns: coarse sleep, then yield, then spin.
void SleepUntil(uint64_t t_ns);
// Sets the calling thread's timer slack to 1 ns, so a generator's sleeps end
// when asked rather than up to the default 50 us later.
void UseFineTimerSlack();

// --- Values and output checks ------------------------------------------

// A value encodes the key it belongs to and the write that produced it:
// bytes [0,8) key, [8,16) sequence number (0 = preload), then filler that
// is a function of (key, seq, offset). `size` must be >= 16.
std::string EncodeValue(uint64_t key, uint64_t seq, size_t size);
// True when `v` is a well-formed value of `size` bytes for `key`; its
// sequence number goes to *seq.
bool DecodeValue(std::string_view v, uint64_t key, size_t size, uint64_t* seq);

// One PUT as the generator issued it. Sequence numbers index a PutLog.
struct PutRecord {
  uint64_t key = 0;
  uint64_t send_ns = 0;  // 0 = never sent
  uint64_t ack_ns = 0;   // 0 = never acked with kOk
};
using PutLog = std::vector<PutRecord>;  // index = seq - 1

// ScanSum over a dense preloaded [lo, hi] whose values all have
// `value_size` bytes: count == hi - lo + 1, bytes == count * value_size.
bool CheckScanSum(std::string_view payload, uint64_t lo, uint64_t hi,
                  size_t value_size, std::string* why);
// A GET answer must be a value of the stored size for `key` that came from
// the preload or from some PUT sent to `key`.
bool CheckGetValue(std::string_view v, uint64_t key, size_t value_size,
                   const PutLog& puts, std::string* why);
// Read-back after the run of a key that was written: `v` must be the value
// of an acked PUT to `key`, and no acked PUT to `key` may have been sent
// after that PUT was acked (else the stored value is stale). When no PUT to
// `key` was acked, the preload or any PUT sent to `key` is accepted.
// `puts_to_key` lists the sequence numbers of every PUT sent to `key`.
bool CheckFinalValue(std::string_view v, uint64_t key, size_t value_size,
                     const PutLog& puts,
                     const std::vector<uint64_t>& puts_to_key,
                     std::string* why);

// --- Outcomes and the report -------------------------------------------

// Per-class outcome counts for the run report.
struct ClassCounts {
  uint64_t attempted = 0, ok = 0, busy = 0, timeout = 0, abort = 0, lost = 0,
           other = 0;
  uint64_t failed() const { return busy + timeout + abort + lost + other; }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Notes a failed output check (printed to stderr) and clears `correct`.
  void Fail(const std::string& what);
  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}},
  // numbers in shortest round-trip form.
  std::string ToJson() const;
};

// Latencies of one measured phase, in send order.
struct Latencies {
  std::vector<double> hp_us, hp_write_us, lp_ms;
  double lp_ops_per_s = 0;
};

// HP requests slower than this waited out more than a few scheduler ticks:
// in practice a whole LP request on a worker whose interrupt was lost.
inline constexpr double kSlowHpUs = 5000;
// Percentage of `v` above `limit`; 0 for an empty vector.
double ShareOverPct(const std::vector<double>& v, double limit);

// Adds the end-to-end metrics, or with `traced` the traced.* ones the traced
// run prints beside its per-layer metrics: the same figures plus the tails
// and the share of HP requests slower than kSlowHpUs.
void AddEndToEnd(const Latencies& l, const std::vector<double>& setups,
                 bool traced, Report* r);

// Lifecycle stamps of one request (server-side MonoNanos), from the wire
// timeline echo or from SubmitOptions::timeline.
struct Stamps {
  uint64_t arrival = 0, enqueue = 0, dispatch = 0, first_run = 0, done = 0,
           reply = 0;
  uint32_t preempts = 0;
  bool valid = false;
};

// Peak resident set of this process in MB.
double PeakRssMb();

// setup_s is the median over this many complete set-ups.
inline constexpr int kSetups = 9;

}  // namespace htapbench

#endif  // HTAPBENCH_BENCH_H_
