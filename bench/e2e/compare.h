// Offline tools over imr_e2e result files.
#ifndef IMR_BENCH_E2E_COMPARE_H_
#define IMR_BENCH_E2E_COMPARE_H_

#include <string>
#include <utility>
#include <vector>

namespace imr::e2e {

/// For every (workload, metric) present on both sides, prints each side's
/// median and quartiles and a verdict against the bound BENCHMARK.json
/// fixes: better, worse, within bound, or unresolved (spread wider than the
/// bound). A file is one run or a merged set (`runs`). Runs marked invalid
/// are left out and listed; a run that failed its output checks makes the
/// comparison fail. Returns 1 when any metric is worse, 2 on unreadable or
/// incorrect input, 0 otherwise.
int Compare(const std::vector<std::string>& side_a,
            const std::vector<std::string>& side_b,
            const std::string& benchmark_path);

/// Bundles run results into one file with `meta` stamped on top. Inputs
/// that are merged sets contribute their runs, each tagged with the set's
/// meta.
int Merge(const std::string& out_path, const std::vector<std::string>& inputs,
          const std::vector<std::pair<std::string, std::string>>& meta);

}  // namespace imr::e2e

#endif  // IMR_BENCH_E2E_COMPARE_H_
