// imr_e2e: open-loop end-to-end benchmark with per-layer decomposition.
//
//   imr_e2e --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//           [--out <dir>]
//   imr_e2e --compare <runs-A...> -- <runs-B...> [--bench BENCHMARK.json]
//   imr_e2e --merge <out.json> <runs...> [--meta key=value]...
//   imr_e2e --list
//
// One workload runs per process. Untraced runs print the end-to-end
// metrics, traced runs the per-layer metrics; both print every value as
// `metric|diag <name> <value> <unit>`, check the served outputs, write
// <out>/<workload>-s<seed>[-trace].json, and end stdout with a one-line
// JSON summary. See README.md for the workload and metric catalogue.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "compare.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: imr_e2e --workload <name> --seed <n> [--seconds <s>] "
               "[--trace [0|1]] [--out <dir>]\n"
               "       imr_e2e --compare <runs-A...> -- <runs-B...> "
               "[--bench BENCHMARK.json]\n"
               "       imr_e2e --merge <out.json> <runs...> "
               "[--meta key=value]...\n"
               "       imr_e2e --list\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();

  if (args[0] == "--list") {
    for (const std::string& name : imr::e2e::WorkloadNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (args[0] == "--compare") {
    std::vector<std::string> side_a, side_b;
    std::string bench = "BENCHMARK.json";
    bool second = false;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--") {
        second = true;
      } else if (args[i] == "--bench" && i + 1 < args.size()) {
        bench = args[++i];
      } else {
        (second ? side_b : side_a).push_back(args[i]);
      }
    }
    if (side_a.empty() || side_b.empty()) return Usage();
    return imr::e2e::Compare(side_a, side_b, bench);
  }

  if (args[0] == "--merge") {
    if (args.size() < 3) return Usage();
    std::vector<std::string> inputs;
    std::vector<std::pair<std::string, std::string>> meta;
    for (size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--meta" && i + 1 < args.size()) {
        const std::string& kv = args[++i];
        const size_t eq = kv.find('=');
        if (eq == std::string::npos) return Usage();
        meta.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      } else {
        inputs.push_back(args[i]);
      }
    }
    return imr::e2e::Merge(args[1], inputs, meta);
  }

  imr::e2e::Options options;
  bool have_seed = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    double number = 0.0;
    if (arg == "--workload" && has_value) {
      options.workload = args[++i];
    } else if (arg == "--seed" && has_value &&
               ParseNumber(args[i + 1].c_str(), &number) && number >= 0) {
      options.seed = static_cast<uint64_t>(number);
      have_seed = true;
      ++i;
    } else if (arg == "--seconds" && has_value &&
               ParseNumber(args[i + 1].c_str(), &number) && number > 0) {
      options.seconds = number;
      ++i;
    } else if (arg == "--trace") {
      options.trace = true;
      if (has_value && (args[i + 1] == "0" || args[i + 1] == "1")) {
        options.trace = args[++i] == "1";
      }
    } else if (arg == "--out" && has_value) {
      options.out_dir = args[++i];
    } else {
      std::fprintf(stderr, "imr_e2e: bad argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (options.workload.empty() || !have_seed) return Usage();
  // Kernels run on the calling thread (results are bit-identical at any
  // pool size). A pool sized to the cores would add up to three kernel
  // threads to the sender, collector and two serve workers that already
  // fill the 4 vCPUs, and the run would measure the scheduler. Training,
  // which runs alone, sizes it to the cores for its duration (AllCores in
  // workloads.cc). With one thread the pool starts no workers, so none is
  // left to outlive the statics its exit touches.
  imr::util::SetGlobalThreads(1);
  return imr::e2e::RunWorkload(options);
}
