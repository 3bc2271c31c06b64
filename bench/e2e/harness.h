// Measurement plumbing shared by every workload of imr_e2e: clocks and
// quantiles, in-memory span tracing with a self-time layer table, and the
// Report that prints every metric by name and unit, runs the output checks
// and writes the result JSON.
#ifndef IMR_BENCH_E2E_HARNESS_H_
#define IMR_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace imr::e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary fixed origin (steady clock).
int64_t NowNs();

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// printf-formats one number.
std::string Fmt(const char* format, double value);

// ---- tracing -------------------------------------------------------------

/// One span: a named interval at a layer boundary. Spans of one request
/// share `request`; `parent` is 0 for a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Engine service time attached to a served request span; < 0 when absent.
  double service_us = -1.0;
};

/// Single-writer span store. Each recording thread owns one buffer, so
/// recording never takes a lock; buffers are merged when the run ends.
/// A disabled buffer records nothing, so untraced runs pay one branch.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Process-unique span id (ids are taken before a span ends, so children
  /// can name a parent that is still open).
  static uint64_t NextId();
  void Add(const Span& span) {
    if (enabled_) spans_.push_back(span);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span into `buffer`.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent,
             uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Duration so far in microseconds (the span is still open).
  double ElapsedUs() const;

 private:
  SpanBuffer* buffer_;
  Span span_;
};

/// Per span name: count, p50 duration and mean self time (duration minus
/// the part of the interval its children cover).
struct LayerRow {
  std::string name;
  size_t count = 0;
  double p50_us = 0.0;
  double mean_self_us = 0.0;
};
std::vector<LayerRow> LayerTable(const std::vector<Span>& spans);

/// Durations (µs) of every span called `name`.
std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const std::string& name);

/// Writes one JSON object per span.
bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path);

// ---- report ----------------------------------------------------------------

/// What a reported value is. End-to-end metrics are the headline of an
/// untraced run and per-layer metrics the headline of a traced run; every
/// other value (and the other kind in each mode) is printed as a diagnostic.
enum class Kind { kEndToEnd, kLayer, kDiag };

/// Everything one run reports. Values go to stdout as
/// `metric|diag <name> <value> <unit>` lines; the last stdout line is the
/// one-object JSON summary (correct / attempted / failed / metrics).
class Report {
 public:
  Report(std::string workload, uint64_t seed, double seconds, bool trace);

  bool trace() const { return trace_; }
  void Add(Kind kind, const std::string& name, double value,
           const std::string& unit);
  /// An output check; any failure makes the run incorrect (nonzero exit).
  void Check(const std::string& name, bool pass, const std::string& detail);
  /// A measurement-validity condition (harness lateness, trace coverage).
  /// A miss marks the result invalid but says nothing about the program's
  /// outputs, so it does not change the exit code.
  void Validity(const std::string& name, bool pass, const std::string& detail);
  /// Operation counts of one phase.
  void Ops(const std::string& phase, uint64_t attempted, uint64_t ok,
           uint64_t unavailable, uint64_t failed);
  /// Extra structured data for the result file (layer table, epochs, ...).
  void Attach(const std::string& key, Json value);

  bool correct() const;
  uint64_t attempted() const;
  uint64_t failed() const;

  /// Prints the check lines, writes the result JSON to `path` (when not
  /// empty) and prints the summary line last. Returns the exit code.
  int Finish(const std::string& path);

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    bool pass = false;
    std::string detail;
  };
  struct PhaseOps {
    std::string phase;
    uint64_t attempted = 0, ok = 0, unavailable = 0, failed = 0;
  };

  std::string workload_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  std::vector<Entry> metrics_;
  std::vector<Entry> diags_;
  std::vector<CheckEntry> checks_;
  std::vector<CheckEntry> validity_;
  std::vector<PhaseOps> ops_;
  Json extra_ = Json::Object();
};

/// Host facts stamped into every result: nproc, CPU model, eval SIMD
/// backend, compiler.
Json HostInfo();

}  // namespace imr::e2e

#endif  // IMR_BENCH_E2E_HARNESS_H_
