#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "tensor/simd/dispatch.h"

namespace imr::e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// ---- tracing -------------------------------------------------------------

uint64_t SpanBuffer::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent,
                       uint64_t request)
    : buffer_(buffer) {
  span_.id = buffer->enabled() ? SpanBuffer::NextId() : 0;
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  buffer_->Add(span_);
}

double ScopedSpan::ElapsedUs() const {
  return static_cast<double>(NowNs() - span_.start_ns) / 1e3;
}

std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<LayerRow> LayerTable(const std::vector<Span>& spans) {
  // Children intervals per parent id, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> self_times;
  for (const Span& span : spans) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    double covered = 0.0;
    if (auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> parts = it->second;
      std::sort(parts.begin(), parts.end());
      int64_t cursor = span.start_ns;
      for (auto [lo, hi] : parts) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, span.end_ns);
        if (hi > lo) {
          covered += static_cast<double>(hi - lo);
          cursor = hi;
        }
      }
    }
    durations[span.name].push_back(duration / 1e3);
    self_times[span.name].push_back((duration - covered) / 1e3);
  }
  std::vector<LayerRow> rows;
  for (const auto& [name, values] : durations) {
    LayerRow row;
    row.name = name;
    row.count = values.size();
    row.p50_us = Quantile(values, 0.5);
    row.mean_self_us = Mean(self_times[name]);
    rows.push_back(row);
  }
  return rows;
}

bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
    if (span.service_us >= 0.0) {
      std::fprintf(out, ", \"service_us\": %.3f", span.service_us);
    }
    std::fprintf(out, "}\n");
  }
  return std::fclose(out) == 0;
}

// ---- report ----------------------------------------------------------------

Report::Report(std::string workload, uint64_t seed, double seconds, bool trace)
    : workload_(std::move(workload)),
      seed_(seed),
      seconds_(seconds),
      trace_(trace) {}

void Report::Add(Kind kind, const std::string& name, double value,
                 const std::string& unit) {
  const bool headline = (kind == Kind::kEndToEnd && !trace_) ||
                        (kind == Kind::kLayer && trace_);
  (headline ? metrics_ : diags_).push_back(Entry{name, value, unit});
  std::printf("%s %-40s %16.6f %s\n", headline ? "metric" : "diag  ",
              name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::Check(const std::string& name, bool pass,
                   const std::string& detail) {
  checks_.push_back(CheckEntry{name, pass, detail});
}

void Report::Validity(const std::string& name, bool pass,
                      const std::string& detail) {
  validity_.push_back(CheckEntry{name, pass, detail});
}

void Report::Ops(const std::string& phase, uint64_t attempted, uint64_t ok,
                 uint64_t unavailable, uint64_t failed) {
  ops_.push_back(PhaseOps{phase, attempted, ok, unavailable, failed});
  std::printf("ops    %-24s attempted=%llu ok=%llu unavailable=%llu "
              "failed=%llu\n",
              phase.c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(unavailable),
              static_cast<unsigned long long>(failed));
}

void Report::Attach(const std::string& key, Json value) {
  extra_.Set(key, std::move(value));
}

bool Report::correct() const {
  for (const CheckEntry& check : checks_) {
    if (!check.pass) return false;
  }
  return failed() == 0;
}

uint64_t Report::attempted() const {
  uint64_t total = 0;
  for (const PhaseOps& ops : ops_) total += ops.attempted;
  return total;
}

uint64_t Report::failed() const {
  uint64_t total = 0;
  for (const PhaseOps& ops : ops_) total += ops.unavailable + ops.failed;
  return total;
}

int Report::Finish(const std::string& path) {
  const auto entries = [](const std::vector<CheckEntry>& list,
                          const char* label) {
    Json out = Json::Array();
    for (const CheckEntry& check : list) {
      std::printf("%-6s %-40s %s  %s\n", label, check.name.c_str(),
                  check.pass ? "PASS" : "FAIL", check.detail.c_str());
      Json item = Json::Object();
      item.Set("name", Json::String(check.name));
      item.Set("pass", Json::Bool(check.pass));
      item.Set("detail", Json::String(check.detail));
      out.Push(std::move(item));
    }
    return out;
  };
  Json checks = entries(checks_, "check");
  Json validity = entries(validity_, "valid");
  bool valid = true;
  for (const CheckEntry& entry : validity_) valid &= entry.pass;
  Json metrics = Json::Object();
  for (const Entry& entry : metrics_) {
    Json metric = Json::Object();
    metric.Set("value", Json::Number(entry.value));
    metric.Set("unit", Json::String(entry.unit));
    metrics.Set(entry.name, std::move(metric));
  }
  if (!path.empty()) {
    Json result = Json::Object();
    result.Set("workload", Json::String(workload_));
    result.Set("seed", Json::Number(static_cast<double>(seed_)));
    result.Set("seconds", Json::Number(seconds_));
    result.Set("trace", Json::Bool(trace_));
    result.Set("host", HostInfo());
    result.Set("correct", Json::Bool(correct()));
    result.Set("valid", Json::Bool(valid));
    result.Set("metrics", metrics);
    Json diags = Json::Object();
    for (const Entry& entry : diags_) {
      Json diag = Json::Object();
      diag.Set("value", Json::Number(entry.value));
      diag.Set("unit", Json::String(entry.unit));
      diags.Set(entry.name, std::move(diag));
    }
    result.Set("diag", std::move(diags));
    result.Set("checks", std::move(checks));
    result.Set("validity", std::move(validity));
    Json ops = Json::Array();
    for (const PhaseOps& phase : ops_) {
      Json item = Json::Object();
      item.Set("phase", Json::String(phase.phase));
      item.Set("attempted", Json::Number(static_cast<double>(phase.attempted)));
      item.Set("ok", Json::Number(static_cast<double>(phase.ok)));
      item.Set("unavailable",
               Json::Number(static_cast<double>(phase.unavailable)));
      item.Set("failed", Json::Number(static_cast<double>(phase.failed)));
      ops.Push(std::move(item));
    }
    result.Set("ops", std::move(ops));
    for (const auto& [key, value] : extra_.members()) result.Set(key, value);
    std::ofstream out(path);
    out << result.Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "imr_e2e: cannot write %s\n", path.c_str());
      Check("result_file_written", false, path);
    }
  }
  Json summary = Json::Object();
  summary.Set("correct", Json::Bool(correct()));
  summary.Set("attempted", Json::Number(static_cast<double>(attempted())));
  summary.Set("failed", Json::Number(static_cast<double>(failed())));
  summary.Set("metrics", std::move(metrics));
  std::printf("%s\n", summary.Dump().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

Json HostInfo() {
  Json host = Json::Object();
  host.Set("nproc", Json::Number(std::thread::hardware_concurrency()));
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  host.Set("cpu", Json::String(cpu));
  host.Set("backend", Json::String(tensor::simd::BackendName(
                          tensor::simd::ActiveEvalBackend())));
#if defined(__clang__)
  host.Set("compiler", Json::String(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  host.Set("compiler", Json::String(std::string("gcc ") + __VERSION__));
#else
  host.Set("compiler", Json::String("unknown"));
#endif
  return host;
}

}  // namespace imr::e2e
