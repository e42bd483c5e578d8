// popsbench: runs one workload and prints its result line.
//
//   popsbench --workload perm_wide --seed 1 --seconds 10 --trace 0
//             [--trace-out spans.csv]
//
// Details go to standard error; the last line of standard output is
// the JSON result. Exits 1 when any output failed its check, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "popsbench: %s\nusage: popsbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\nworkloads:",
               message);
  for (const std::string& name : popsbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  popsbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (!(config.seconds > 0)) return usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad number for " + flag).c_str());
    }
  }

  popsbench::RunResult result;
  if (!popsbench::run_workload(config, result)) {
    return usage(("unknown workload '" + config.workload + "'").c_str());
  }
  std::cerr << "popsbench " << config.workload << " seed " << config.seed
            << (config.trace ? " (traced)" : "") << "\n"
            << result.summary;
  std::cout << result.report.to_json(result.correct, result.attempted,
                                     result.failed)
            << std::endl;
  return result.correct ? 0 : 1;
}
