// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload case_k4|sharded_k8|serve_paced --seed N --seconds S
//             --trace 0|1 [--root DIR] [--git-sha SHA]
//   perfbench --pin case_k4|sharded_k8
//
// Prints one info line (provenance, sample counts) and, last, the result
// line {"correct","attempted","failed","metrics"}. Exit 0 when the run
// completed (correct or not), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload case_k4|sharded_k8|serve_paced --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--git-sha SHA]\n"
               "       perfbench --pin case_k4|sharded_k8\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size()) usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string pin;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage();
      const std::string val = argv[++i];
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = parse_u64(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage();
        opt.trace = val == "1";
      } else if (arg == "--root") {
        opt.root = val;
      } else if (arg == "--git-sha") {
        opt.git_sha = val;
      } else if (arg == "--pin") {
        pin = val;
      } else {
        usage();
      }
    }
  } catch (const std::exception&) {
    usage();
  }

  try {
    if (!pin.empty()) return perfbench::pin_case_digests(pin);
    if (opt.seconds <= 0) usage();
    perfbench::Result r;
    if (opt.workload == "case_k4" || opt.workload == "sharded_k8") {
      r = perfbench::run_case_workload(opt);
    } else if (opt.workload == "serve_paced") {
      r = perfbench::run_serve_workload(opt);
    } else {
      usage();
    }
    std::printf("%s\n%s\n", perfbench::info_line(r).c_str(), perfbench::result_line(r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
