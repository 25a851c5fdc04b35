#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int32_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled_) return -1;
  int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, request_id});
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Append(const Tracer& other) {
  int32_t offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  // Children's intervals per parent, to subtract their union.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanSummary> out;
  std::map<std::string, std::vector<double>> durations;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    int64_t duration = span.end_ns - span.start_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    SpanSummary& summary = out[span.name];
    summary.count++;
    summary.total_ms += NsToMs(duration);
    summary.self_ms += NsToMs(duration - covered);
    durations[span.name].push_back(NsToUs(duration));
  }
  for (auto& [name, summary] : out) summary.p50_us = Median(durations[name]);
  return out;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d,\"request_id\":%llu}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<unsigned long long>(s.request_id));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

uint64_t StatusKb(int pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtoull(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

uint64_t PeakRssKb(int pid) { return StatusKb(pid, "VmHWM:"); }
uint64_t RssKb(int pid) { return StatusKb(pid, "VmRSS:"); }

namespace {

// Keeps the probe's kernels from being optimized away.
volatile uint64_t g_probe_sink = 0;

// Three fixed kernels, about 1 ms together on the reference machine:
// an integer hash over 64 KiB (core speed), a dependent walk over a
// random 8 MiB cycle (memory latency), and a sum over 2 MiB
// (bandwidth). Other tenants slow each of these differently.
double KernelsNs() {
  static const std::vector<uint8_t> bytes = [] {
    std::vector<uint8_t> out(64u << 10);
    Rng rng(12345);
    for (uint8_t& byte : out) byte = static_cast<uint8_t>(rng.Next());
    return out;
  }();
  static const std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> order(2u << 20);
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(7);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Below(i + 1)]);
    }
    std::vector<uint32_t> next(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  static const std::vector<uint64_t> words(256u << 10, 3);

  int64_t start = NowNs();
  uint64_t hash = 1469598103934665603ull;
  uint64_t counts[4] = {0, 0, 0, 0};
  unsigned state = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (uint8_t byte : bytes) {
      hash = (hash ^ byte) * 1099511628211ull;
      if (byte < 60) {
        state = (state + (byte & 1) + 1) & 3;
        counts[state]++;
      }
    }
  }
  uint32_t at = 0;
  for (int step = 0; step < 1500; ++step) at = cycle[at];
  uint64_t sum = 0;
  for (uint64_t word : words) sum += word ^ (sum >> 3);
  g_probe_sink = hash + counts[0] + 3 * counts[1] + 5 * counts[2] + 7 * counts[3] +
         at + sum;
  return static_cast<double>(NowNs() - start);
}

}  // namespace

double SpeedProbeNs(int runs) {
  std::vector<double> samples;
  for (int run = 0; run < runs; ++run) samples.push_back(KernelsNs());
  return Median(samples);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (double value : values) {
    if (out.size() > 1) out += ",";
    out += JsonNumber(value);
  }
  return out + "]";
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace perfbench
