// ritm_perfbench: one command, one workload per process.
//
//   ritm_perfbench --workload handshake|serve|revocation_day --seed N
//                  --seconds S --trace 0|1
//
// --seed is the only input to generation; --trace 1 runs the workload
// untraced and then traced on the same world and prints the per-layer
// metrics, stage-sum coverage and tracing overhead instead of the
// end-to-end metrics. The last stdout line is the result JSON; the exit
// code is non-zero on any correctness failure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ritm_perfbench --workload handshake|serve|"
               "revocation_day --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opts.seconds <= 0.0) return usage();

  try {
    if (opts.workload != "handshake" && opts.workload != "serve" &&
        opts.workload != "revocation_day") {
      return usage();
    }
    perfbench::Report report;
    if (opts.workload == "handshake") {
      report = perfbench::run_handshake(opts);
    } else if (opts.workload == "serve") {
      report = perfbench::run_serve(opts);
    } else {
      report = perfbench::run_revocation_day(opts);
    }
    return perfbench::emit(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ritm_perfbench: %s\n", e.what());
    return 1;
  }
}
