#include "bench.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/clock.h"

namespace htapbench {

bool ParseArgs(int argc, char** argv, Args* out, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      *err = "unexpected argument: " + a;
      return false;
    }
    std::string name = a.substr(2), value;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *err = "missing value for --" + name;
      return false;
    }
    char* end = nullptr;
    if (name == "workload") {
      out->workload = value;
    } else if (name == "tmp-dir") {
      out->tmp_dir = value;
    } else if (name == "seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (name == "seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (!(out->seconds > 0 && out->seconds <= 600)) end = nullptr;
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      out->trace = value == "1";
    } else {
      *err = "unknown flag --" + name;
      return false;
    }
    if ((name == "seed" || name == "seconds") &&
        (end == nullptr || *end != '\0' || value.empty())) {
      *err = "bad value for --" + name + ": " + value;
      return false;
    }
  }
  if (out->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double WindowedTail(const std::vector<double>& in_order, double p) {
  const size_t windows = in_order.size() / kTailWindow;
  if (windows < 2) return Percentile(in_order, p);
  std::vector<double> tails;
  size_t n = in_order.size();
  for (size_t w = 0; w < windows; ++w) {
    auto lo = in_order.begin() + static_cast<ptrdiff_t>(w * n / windows);
    auto hi = in_order.begin() + static_cast<ptrdiff_t>((w + 1) * n / windows);
    tails.push_back(Percentile(std::vector<double>(lo, hi), p));
  }
  return Median(std::move(tails));
}

PoissonSchedule::PoissonSchedule(double rate_per_s, uint64_t seed)
    : rng_(seed), mean_gap_ns_(1e9 / rate_per_s) {}

uint64_t PoissonSchedule::Next() {
  // u in (0, 1]: -log(u) is a unit exponential, never infinite.
  double u = (static_cast<double>(rng_.Next() >> 11) + 1.0) * 0x1.0p-53;
  next_ns_ += -std::log(u) * mean_gap_ns_;
  return static_cast<uint64_t>(next_ns_);
}

void UseFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void SleepUntil(uint64_t t_ns) {
  for (;;) {
    uint64_t now = preemptdb::MonoNanos();
    if (now >= t_ns) return;
    uint64_t delta = t_ns - now;
    if (delta > 60'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delta - 30'000));
    } else if (delta > 2'000) {
      std::this_thread::yield();
    }
  }
}

namespace {

uint8_t Filler(uint64_t key, uint64_t seq, size_t i) {
  uint64_t x = key * 0x9e3779b97f4a7c15ull + seq * 0xbf58476d1ce4e5b9ull + i;
  x ^= x >> 29;
  return static_cast<uint8_t>(x);
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::string EncodeValue(uint64_t key, uint64_t seq, size_t size) {
  std::string v(size, '\0');
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &seq, 8);
  for (size_t i = 16; i < size; ++i) v[i] = static_cast<char>(Filler(key, seq, i));
  return v;
}

bool DecodeValue(std::string_view v, uint64_t key, size_t size, uint64_t* seq) {
  if (v.size() != size || size < 16) return false;
  if (LoadU64(v.data()) != key) return false;
  uint64_t s = LoadU64(v.data() + 8);
  for (size_t i = 16; i < size; ++i) {
    if (static_cast<uint8_t>(v[i]) != Filler(key, s, i)) return false;
  }
  *seq = s;
  return true;
}

bool CheckScanSum(std::string_view payload, uint64_t lo, uint64_t hi,
                  size_t value_size, std::string* why) {
  if (payload.size() != 16) {
    *why = "ScanSum payload of " + std::to_string(payload.size()) + " bytes";
    return false;
  }
  uint64_t count = LoadU64(payload.data());
  uint64_t bytes = LoadU64(payload.data() + 8);
  uint64_t want = hi - lo + 1;
  if (count != want || bytes != want * value_size) {
    *why = "ScanSum [" + std::to_string(lo) + "," + std::to_string(hi) +
           "] gave count=" + std::to_string(count) +
           " bytes=" + std::to_string(bytes);
    return false;
  }
  return true;
}

bool CheckGetValue(std::string_view v, uint64_t key, size_t value_size,
                   const PutLog& puts, std::string* why) {
  uint64_t seq = 0;
  if (!DecodeValue(v, key, value_size, &seq)) {
    *why = "GET " + std::to_string(key) + " returned a malformed value";
    return false;
  }
  if (seq == 0) return true;  // the preload
  if (seq > puts.size() || puts[seq - 1].key != key ||
      puts[seq - 1].send_ns == 0) {
    *why = "GET " + std::to_string(key) + " returned seq " +
           std::to_string(seq) + ", never sent to this key";
    return false;
  }
  return true;
}

bool CheckFinalValue(std::string_view v, uint64_t key, size_t value_size,
                     const PutLog& puts,
                     const std::vector<uint64_t>& puts_to_key,
                     std::string* why) {
  uint64_t seq = 0;
  const bool own = DecodeValue(v, key, value_size, &seq) &&
                   (seq == 0 || std::find(puts_to_key.begin(), puts_to_key.end(),
                                          seq) != puts_to_key.end());
  const bool any_acked =
      std::any_of(puts_to_key.begin(), puts_to_key.end(),
                  [&](uint64_t s) { return puts[s - 1].ack_ns != 0; });
  // No PUT to the key was acked (each was refused, timed out or aborted):
  // the preload or any of those PUTs may have stuck.
  if (own && !any_acked) return true;
  if (!own || seq == 0 || puts[seq - 1].ack_ns == 0) {
    *why = "key " + std::to_string(key) +
           " does not hold the value of an acked PUT to it";
    return false;
  }
  const uint64_t acked_at = puts[seq - 1].ack_ns;
  for (uint64_t s : puts_to_key) {
    const PutRecord& p = puts[s - 1];
    if (p.ack_ns != 0 && p.send_ns > acked_at) {
      *why = "key " + std::to_string(key) + " holds seq " +
             std::to_string(seq) + " but acked seq " + std::to_string(s) +
             " was sent after it was acked";
      return false;
    }
  }
  return true;
}

void Report::Fail(const std::string& what) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

double ShareOverPct(const std::vector<double>& v, double limit) {
  if (v.empty()) return 0;
  size_t over = 0;
  for (double x : v) over += x > limit ? 1 : 0;
  return 100.0 * static_cast<double>(over) / static_cast<double>(v.size());
}

void AddEndToEnd(const Latencies& l, const std::vector<double>& setups,
                 bool traced, Report* r) {
  if (traced) {
    r->Add("traced.hp_p50_us", Percentile(l.hp_us, 50), "us");
    r->Add("traced.hp_p99_us", WindowedTail(l.hp_us, 99), "us");
    r->Add("traced.hp_write_p99_us", WindowedTail(l.hp_write_us, 99), "us");
    r->Add("traced.hp_over_5ms_pct", ShareOverPct(l.hp_us, kSlowHpUs), "%");
    r->Add("traced.lp_p50_ms", Percentile(l.lp_ms, 50), "ms");
    r->Add("traced.lp_p99_ms", WindowedTail(l.lp_ms, 99), "ms");
    r->Add("traced.lp_ops_per_s", l.lp_ops_per_s, "1/s");
    return;
  }
  std::fprintf(stderr, "# set-ups (s):");
  for (double s : setups) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  r->Add("setup_s", Median(setups), "s");
  r->Add("hp_p50_us", Percentile(l.hp_us, 50), "us");
  r->Add("lp_p50_ms", Percentile(l.lp_ms, 50), "ms");
  r->Add("lp_ops_per_s", l.lp_ops_per_s, "1/s");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
}

namespace {

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

std::string Report::ToJson() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": ";
    AppendNumber(&s, metrics[i].value);
    s += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace htapbench
