// Shared pieces of perfbench: clocks, sample statistics, the
// in-memory span tracer, and the result record every workload fills.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Linear-interpolated quantile of `samples` (q in [0,1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

// One unit of work attributed to a layer. Spans of one request share
// `request_id`; `parent` indexes the span that caused this one (-1 for
// a root).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint64_t request_id;
};

// Records spans in memory while enabled; written out when the run
// ends. Single-threaded per instance: each generator thread owns one.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index, or
  // -1 when tracing is off.
  int32_t Begin(const char* name, uint64_t request_id);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const Tracer& other);

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request_id)
      : tracer_(tracer), index_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// Per span name: how many, total and self time (duration minus the
// part of it covered by child spans), and the median duration.
struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double p50_us = 0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans);

// Writes the spans as a JSON array (one object per span).
std::string SpansToJson(const std::vector<Span>& spans);

struct Metric {
  double value = 0;
  std::string unit;
};

// What a workload run produces.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Free-form report entries (sample counts, notes, span summaries).
  std::map<std::string, std::string> report;  // key -> JSON value text
  std::vector<std::string> errors;            // first few mismatches

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& what);
};

std::string JsonEscape(const std::string& text);
std::string JsonNumber(double value);
std::string JsonArray(const std::vector<double>& values);

// Peak (VmHWM) and current (VmRSS) resident set of process `pid` in
// KiB; 0 when unreadable.
uint64_t PeakRssKb(int pid);
uint64_t RssKb(int pid);

// A virtual machine on a shared host, like the 4-vCPU Xeon VM this
// benchmark was tuned on, changes speed by up to 2x over stretches of
// seconds to minutes, with other tenants' load on its cores and its
// memory. Every reported timing is scaled to a reference speed:
// multiplied by kReferenceProbeNs / SpeedProbeNs() for a probe taken
// at the same time (rates by the inverse). The probe runs fixed
// kernels in perfbench itself, so it does not change when XSQ++ does.
//
// SpeedProbeNs returns the median time of `runs` runs of the kernels.
double SpeedProbeNs(int runs);
// The probe's time on that VM when nothing else slowed it.
constexpr double kReferenceProbeNs = 1000e3;
// Scales a time taken while the probe read `probe_ns` to the reference.
inline double ToReferenceTime(double time, double probe_ns) {
  return probe_ns > 0 ? time * kReferenceProbeNs / probe_ns : time;
}
inline double ToReferenceRate(double rate, double probe_ns) {
  return rate * probe_ns / kReferenceProbeNs;
}

// Deterministic splitmix64 stream for schedules and choices.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
