// Open-loop HTAP benchmark program. One workload per process, so set-up time
// and peak memory belong to that workload alone:
//
//   htapbench --workload kv_submit|tpcc_q2 --seed N --seconds S
//             --trace 0|1 [--tmp-dir DIR]
//
// Prints the per-run report to stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
// on bad arguments or a failed set-up; a failed output check is reported as
// "correct": false.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workloads.h"

namespace {

// Times `n` set-ups in a child process, so their memory never counts in
// this process's peak RSS. Call before any thread starts (fork copies only
// the calling thread). Exits on failure.
std::vector<double> SetupTimesInChild(const htapbench::Args& args, int n,
                                      double (*setup)(const htapbench::Args&)) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    for (int i = 0; i < n; ++i) {
      double s = setup(args);
      if (::write(fds[1], &s, sizeof(s)) != sizeof(s)) ::_exit(1);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::vector<double> times;
  double s = 0;
  while (::read(fds[0], &s, sizeof(s)) == sizeof(s)) times.push_back(s);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      times.size() != static_cast<size_t>(n)) {
    std::fprintf(stderr, "htapbench: set-up in the child process failed\n");
    std::exit(1);
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  htapbench::Args args;
  std::string err;
  if (!htapbench::ParseArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "htapbench: %s\n", err.c_str());
    return 2;
  }
  using htapbench::Args;
  using htapbench::Report;
  struct Workload {
    const char* name;
    double (*setup)(const Args&);
    Report (*run)(const Args&, std::vector<double>);
  };
  static const Workload kWorkloads[] = {
      {"kv_submit", &htapbench::TimeKvSubmitSetup, &htapbench::RunKvSubmit},
      {"tpcc_q2", &htapbench::TimeTpccQ2Setup, &htapbench::RunTpccQ2},
  };
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "htapbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // setup_s is the median of kSetups set-ups: kSetups - 1 in a child, then
  // the measured run's own.
  std::vector<double> setups;
  if (!args.trace) {
    setups = SetupTimesInChild(args, htapbench::kSetups - 1, w->setup);
  }
  // Tracing must be on before any worker thread starts, or the threads skip
  // ring registration and the uintr delivery pairs are lost.
  if (args.trace) preemptdb::obs::SetTraceEnabled(true);
  Report report = w->run(args, std::move(setups));
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
