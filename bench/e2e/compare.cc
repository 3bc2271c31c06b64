// `imr_e2e --compare` and `imr_e2e --merge`: the diff tool over result
// JSONs, and the merge that run.sh uses to bundle one set of runs.
#include "compare.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "harness.h"
#include "json.h"

namespace imr::e2e {

namespace {

struct Bound {
  std::string better;  // "lower" | "higher"
  double bound = 0.0;
};

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

// Python's statistics.quantiles(values, n=4) (the default 'exclusive'
// method), so spreads read the same as in any other analysis of the runs.
Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Quartiles q;
  const size_t n = values.size();
  if (n == 0) return q;
  q.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  const auto at = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = at(1);
  q.q3 = at(3);
  return q;
}

// (workload, metric) -> values, per side.
using Samples = std::map<std::pair<std::string, std::string>, std::vector<double>>;

// Pools the runs of one result file. A run whose output checks failed is
// an error: its numbers measure a broken program. A run marked invalid (the
// sender fell behind its schedule, or trace coverage missed) is left out
// and named in `excluded`.
util::Status CollectRuns(const std::string& path, const Json& file,
                         Samples* samples,
                         std::map<std::string, std::string>* units,
                         std::vector<std::string>* excluded) {
  std::vector<const Json*> runs;
  if (const Json* list = file.Find("runs"); list != nullptr && list->is_array()) {
    for (const Json& run : list->items()) runs.push_back(&run);
  } else {
    runs.push_back(&file);
  }
  for (const Json* run : runs) {
    const Json* workload = run->Find("workload");
    const Json* metrics = run->Find("metrics");
    const Json* correct = run->Find("correct");
    const Json* valid = run->Find("valid");
    if (workload == nullptr || !workload->is_string() || metrics == nullptr ||
        !metrics->is_object() || correct == nullptr || valid == nullptr) {
      return util::InvalidArgument(
          "not an imr_e2e result (no workload/metrics/correct/valid)");
    }
    const Json* seed = run->Find("seed");
    const std::string name =
        workload->as_string() + " seed " +
        (seed != nullptr ? Fmt("%.0f", seed->as_number()) : std::string("?"));
    if (!correct->as_bool()) {
      return util::InvalidArgument(name + " failed its output checks");
    }
    if (!valid->as_bool()) {
      std::string reasons;
      if (const Json* validity = run->Find("validity"); validity != nullptr) {
        for (const Json& entry : validity->items()) {
          const Json* pass = entry.Find("pass");
          const Json* check = entry.Find("name");
          const Json* detail = entry.Find("detail");
          if (pass == nullptr || pass->as_bool() || check == nullptr ||
              detail == nullptr) {
            continue;
          }
          reasons += " " + check->as_string() + " (" + detail->as_string() + ")";
        }
      }
      excluded->push_back(path + ": " + name + ":" + reasons);
      continue;
    }
    for (const auto& [name, metric] : metrics->members()) {
      const Json* value = metric.Find("value");
      const Json* unit = metric.Find("unit");
      if (value == nullptr || !value->is_number()) continue;
      (*samples)[{workload->as_string(), name}].push_back(value->as_number());
      if (unit != nullptr && unit->is_string()) (*units)[name] = unit->as_string();
    }
  }
  return util::OkStatus();
}

std::string Verdict(const Bound& bound, const std::vector<double>& a,
                    const std::vector<double>& b, const Quartiles& qa,
                    const Quartiles& qb, double* change) {
  const double sign = bound.better == "higher" ? -1.0 : 1.0;
  *change = qa.median != 0.0 ? (qb.median - qa.median) / qa.median : 0.0;
  const double worse_by = sign * *change;
  const auto rel = [](const Quartiles& q) {
    return q.median != 0.0 ? (q.q3 - q.q1) / q.median : 0.0;
  };
  const double spread = std::max(rel(qa), rel(qb));
  if (spread > bound.bound) {
    // Too noisy to call, unless the two sides do not overlap at all.
    const double best_a = sign > 0 ? *std::min_element(a.begin(), a.end())
                                   : *std::max_element(a.begin(), a.end());
    const double worst_a = sign > 0 ? *std::max_element(a.begin(), a.end())
                                    : *std::min_element(a.begin(), a.end());
    const double best_b = sign > 0 ? *std::min_element(b.begin(), b.end())
                                   : *std::max_element(b.begin(), b.end());
    const double worst_b = sign > 0 ? *std::max_element(b.begin(), b.end())
                                    : *std::min_element(b.begin(), b.end());
    if (sign * (worst_b - best_a) < 0) return "better";
    if (sign * (best_b - worst_a) > 0) return "worse";
    return "unresolved";
  }
  if (worse_by > bound.bound) return "worse";
  if (-worse_by > bound.bound) return "better";
  return "within bound";
}

}  // namespace

int Compare(const std::vector<std::string>& side_a,
            const std::vector<std::string>& side_b,
            const std::string& benchmark_path) {
  auto benchmark = Json::ParseFile(benchmark_path);
  if (!benchmark.ok()) {
    std::fprintf(stderr, "imr_e2e --compare: %s\n",
                 benchmark.status().ToString().c_str());
    return 2;
  }
  std::map<std::string, Bound> bounds;
  if (const Json* e2e = benchmark->Find("end_to_end"); e2e != nullptr) {
    for (const Json& metric : e2e->items()) {
      const Json* name = metric.Find("name");
      const Json* better = metric.Find("better");
      const Json* bound = metric.Find("bound");
      if (name == nullptr || better == nullptr || bound == nullptr) continue;
      bounds[name->as_string()] = Bound{better->as_string(), bound->as_number()};
    }
  }
  Samples a, b;
  std::map<std::string, std::string> units;
  std::vector<std::string> excluded;
  for (const auto& [paths, samples] :
       {std::pair{&side_a, &a}, std::pair{&side_b, &b}}) {
    for (const std::string& path : *paths) {
      auto file = Json::ParseFile(path);
      util::Status status =
          file.ok() ? CollectRuns(path, *file, samples, &units, &excluded)
                    : file.status();
      if (!status.ok()) {
        std::fprintf(stderr, "imr_e2e --compare: %s: %s\n", path.c_str(),
                     status.ToString().c_str());
        return 2;
      }
    }
  }
  for (const std::string& run : excluded) {
    std::printf("excluded (invalid): %s\n", run.c_str());
  }

  std::printf("%-14s %-34s %-6s %27s %27s %8s %6s  %s\n", "workload", "metric",
              "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)",
              "change", "bound", "verdict");
  bool any_worse = false;
  for (const auto& [key, values_a] : a) {
    const auto it = b.find(key);
    if (it == b.end()) continue;
    const std::vector<double>& values_b = it->second;
    const Quartiles qa = QuartilesOf(values_a);
    const Quartiles qb = QuartilesOf(values_b);
    std::string verdict = "no bound (per-layer)";
    double change = qa.median != 0.0 ? (qb.median - qa.median) / qa.median : 0.0;
    std::string bound_text = "-";
    if (const auto bound = bounds.find(key.second); bound != bounds.end()) {
      verdict = Verdict(bound->second, values_a, values_b, qa, qb, &change);
      bound_text = Fmt("%g%%", 100.0 * bound->second.bound);
      any_worse |= verdict == "worse";
    }
    const auto cell = [](const Quartiles& q, size_t n) {
      return Fmt("%.4g", q.median) + " [" + Fmt("%.4g", q.q1) + ", " +
             Fmt("%.4g", q.q3) + "] (" + std::to_string(n) + ")";
    };
    std::printf("%-14s %-34s %-6s %27s %27s %7.2f%% %6s  %s\n",
                key.first.c_str(), key.second.c_str(), units[key.second].c_str(),
                cell(qa, values_a.size()).c_str(),
                cell(qb, values_b.size()).c_str(), 100.0 * change,
                bound_text.c_str(), verdict.c_str());
  }
  return any_worse ? 1 : 0;
}

int Merge(const std::string& out_path, const std::vector<std::string>& inputs,
          const std::vector<std::pair<std::string, std::string>>& meta) {
  Json merged = Json::Object();
  Json meta_json = Json::Object();
  for (const auto& [key, value] : meta) meta_json.Set(key, Json::String(value));
  merged.Set("meta", std::move(meta_json));
  Json runs = Json::Array();
  bool correct = true;
  for (const std::string& path : inputs) {
    auto run = Json::ParseFile(path);
    if (!run.ok()) {
      std::fprintf(stderr, "imr_e2e --merge: %s\n",
                   run.status().ToString().c_str());
      return 2;
    }
    const Json* run_correct = run->Find("correct");
    correct &= run_correct != nullptr && run_correct->as_bool();
    const Json* nested = run->Find("runs");
    if (nested == nullptr || !nested->is_array()) {
      runs.Push(std::move(*run));
      continue;
    }
    // An already merged set: keep its runs flat, each stamped with the
    // set's own meta.
    const Json* nested_meta = run->Find("meta");
    for (Json item : nested->items()) {
      if (nested_meta != nullptr) item.Set("meta", *nested_meta);
      runs.Push(std::move(item));
    }
  }
  merged.Set("correct", Json::Bool(correct));
  merged.Set("runs", std::move(runs));
  std::ofstream out(out_path);
  out << merged.Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "imr_e2e --merge: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("merged %zu runs into %s\n", inputs.size(), out_path.c_str());
  return correct ? 0 : 1;
}

}  // namespace imr::e2e
