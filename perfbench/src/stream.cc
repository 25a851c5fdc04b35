// stream-xsqf: in-process, single-threaded library streaming. For each
// (query, corpus) pair one core::StreamingQuery is opened, the corpus is
// pushed in fixed-size chunks while NextItem is drained, then Close.
// Every item list and aggregate is checked against the DOM oracle
// (dom::BuildFromString + dom::Evaluate) computed during set-up.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/streaming_query.h"
#include "dom/builder.h"
#include "dom/evaluator.h"
#include "inputs.h"
#include "layers.h"
#include "workloads.h"
#include "xpath/ast.h"

namespace perfbench {
namespace {

struct StreamPair {
  const QuerySpec* query;
  const Doc* corpus;
  std::vector<std::string> expected_items;
  std::optional<double> expected_aggregate;
};

struct StreamSetup {
  StreamInputs inputs;
  std::vector<StreamPair> pairs;
};

xsq::Status BuildSetup(uint64_t seed, StreamSetup* setup) {
  setup->inputs = MakeStreamInputs(seed);
  std::vector<xsq::dom::Document> trees;
  for (const Doc& corpus : setup->inputs.corpora) {
    XSQ_ASSIGN_OR_RETURN(xsq::dom::Document tree,
                         xsq::dom::BuildFromString(corpus.xml));
    trees.push_back(std::move(tree));
  }
  for (const QuerySpec& query : setup->inputs.queries) {
    XSQ_ASSIGN_OR_RETURN(xsq::xpath::Query parsed,
                         xsq::xpath::ParseQuery(query.text));
    XSQ_ASSIGN_OR_RETURN(xsq::dom::EvalResult oracle,
                         xsq::dom::Evaluate(trees[query.family], parsed));
    setup->pairs.push_back(StreamPair{&query,
                                      &setup->inputs.corpora[query.family],
                                      std::move(oracle.items),
                                      oracle.aggregate});
  }
  return xsq::Status::OK();
}

bool SameAggregate(std::optional<double> got, std::optional<double> want) {
  if (got.has_value() != want.has_value()) return false;
  if (!got.has_value()) return true;
  return std::fabs(*got - *want) <= 1e-9 * std::max(1.0, std::fabs(*want));
}

struct PassStats {
  std::vector<double> doc_ms;
  std::vector<double> first_item_ms;
  std::vector<double> push_ms;  // one Push call and the drain after it
  double bytes = 0;
  double busy_ns = 0;
  size_t peak_buffer = 0;
  std::vector<double> probe_ns;  // SpeedProbeNs before each pair

  double Probe() const { return Median(probe_ns); }
};

// Streams one pair and checks it against the oracle; a failure is
// recorded in `result`.
void StreamPairOnce(const StreamPair& pair, Tracer* tracer,
                    uint64_t request_id, PassStats* stats,
                    RunResult* result) {
  result->attempted++;
  auto opened = xsq::core::StreamingQuery::Open(pair.query->text);
  if (!opened.ok()) {
    result->failed++;
    result->Fail("open: " + opened.status().ToString());
    return;
  }
  std::unique_ptr<xsq::core::StreamingQuery> query = std::move(*opened);
  if (query->uses_deterministic_engine()) {
    result->failed++;
    result->Fail("query not on XSQ-F: " + pair.query->text);
    return;
  }
  std::vector<std::string> items;
  std::vector<double> push_ms;
  std::string_view doc = pair.corpus->xml;
  int64_t first_item = -1;
  xsq::Status status;
  ScopedSpan root(tracer, "stream.pair", request_id);
  int64_t start = NowNs();
  for (size_t at = 0; at < doc.size() && status.ok(); at += kChunkBytes) {
    int64_t push_start = NowNs();
    {
      ScopedSpan span(tracer, "core.push", request_id);
      status = query->Push(doc.substr(at, kChunkBytes));
    }
    ScopedSpan span(tracer, "core.next_item", request_id);
    while (auto item = query->NextItem()) {
      if (first_item < 0) first_item = NowNs();
      items.push_back(std::move(*item));
    }
    push_ms.push_back(NsToMs(NowNs() - push_start));
  }
  if (status.ok()) {
    ScopedSpan span(tracer, "core.close", request_id);
    status = query->Close();
    while (auto item = query->NextItem()) {
      if (first_item < 0) first_item = NowNs();
      items.push_back(std::move(*item));
    }
  }
  int64_t end = NowNs();
  if (!status.ok() || items != pair.expected_items ||
      !SameAggregate(query->final_aggregate(), pair.expected_aggregate)) {
    result->failed++;
    result->Fail("mismatch against DOM oracle: " + pair.query->text + " on " +
                 pair.corpus->name + " (" + status.ToString() + ", " +
                 std::to_string(items.size()) + " items, want " +
                 std::to_string(pair.expected_items.size()) + ")");
    return;
  }
  stats->doc_ms.push_back(NsToMs(end - start));
  if (first_item >= 0) stats->first_item_ms.push_back(NsToMs(first_item - start));
  stats->push_ms.insert(stats->push_ms.end(), push_ms.begin(), push_ms.end());
  stats->bytes += static_cast<double>(doc.size());
  stats->busy_ns += static_cast<double>(end - start);
  stats->peak_buffer = std::max(stats->peak_buffer, query->peak_buffered_bytes());
}

double RawThroughput(const PassStats& w) {
  return w.busy_ns > 0 ? (w.bytes / 1e6) / (w.busy_ns / 1e9) : 0;
}

// One pass: rounds over all pairs until `budget_ns` is spent (at least
// one round), bucketed into windows of at least kWindowNs. Each window
// is scaled to the reference speed by its own probes, and metrics are
// medians over the windows, so a slow stretch of the machine shifts a
// minority of windows instead of the whole figure.
struct Pass {
  std::vector<PassStats> windows;
  uint64_t peak_rss_kb = 0;  // sampled after every pair

  double Throughput() const {
    return Over([](const PassStats& w) {
      return ToReferenceRate(RawThroughput(w), w.Probe());
    });
  }
  double DocsPerSecond() const {
    return Over([](const PassStats& w) {
      double rate = w.busy_ns > 0 ? w.doc_ms.size() / (w.busy_ns / 1e9) : 0;
      return ToReferenceRate(rate, w.Probe());
    });
  }
  double DocMs(double q) const {
    return Over([q](const PassStats& w) {
      return ToReferenceTime(Quantile(w.doc_ms, q), w.Probe());
    });
  }
  double PushMs(double q) const {
    return Over([q](const PassStats& w) {
      return ToReferenceTime(Quantile(w.push_ms, q), w.Probe());
    });
  }
  double FirstItemMs() const {
    return Over([](const PassStats& w) {
      return ToReferenceTime(Median(w.first_item_ms), w.Probe());
    });
  }
  size_t PeakBuffer() const {
    size_t peak = 0;
    for (const PassStats& w : windows) peak = std::max(peak, w.peak_buffer);
    return peak;
  }
  // Per-window values, for the report.
  std::vector<double> EachWindow(double (*fn)(const PassStats&)) const {
    std::vector<double> values;
    for (const PassStats& w : windows) values.push_back(fn(w));
    return values;
  }
  size_t DocSamples() const {
    size_t n = 0;
    for (const PassStats& w : windows) n += w.doc_ms.size();
    return n;
  }

 private:
  template <typename Fn>
  double Over(Fn fn) const {
    std::vector<double> values;
    for (const PassStats& w : windows) values.push_back(fn(w));
    return Median(values);
  }
};

constexpr int64_t kWindowNs = 1000000000;

Pass StreamPass(const StreamSetup& setup, int64_t budget_ns, Tracer* tracer,
                RunResult* result) {
  Pass pass;
  uint64_t request_id = 0;
  int64_t deadline = NowNs() + budget_ns;
  int64_t window_end = 0;
  do {
    if (NowNs() >= window_end) {
      pass.windows.emplace_back();
      window_end = NowNs() + kWindowNs;
    }
    for (const StreamPair& pair : setup.pairs) {
      pass.windows.back().probe_ns.push_back(SpeedProbeNs(1));
      StreamPairOnce(pair, tracer, ++request_id, &pass.windows.back(), result);
      pass.peak_rss_kb = std::max(pass.peak_rss_kb, RssKb(getpid()));
    }
  } while (NowNs() < deadline && result->correct);
  return pass;
}

}  // namespace

void RunStream(const Options& options, Tracer* tracer, RunResult* result) {
  std::vector<double> setup_s;
  std::unique_ptr<StreamSetup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double probe = SpeedProbeNs(5);
    int64_t start = NowNs();
    auto fresh = std::make_unique<StreamSetup>();
    xsq::Status status = BuildSetup(options.seed, fresh.get());
    setup_s.push_back(ToReferenceTime(NsToMs(NowNs() - start) / 1e3, probe));
    if (!status.ok()) {
      result->Fail("set-up: " + status.ToString());
      return;
    }
    setup = std::move(fresh);
  }
  double corpus_bytes = 0;
  for (const Doc& corpus : setup->inputs.corpora) corpus_bytes += corpus.xml.size();
  result->report["corpus_bytes"] = JsonNumber(corpus_bytes);
  result->report["pairs"] = std::to_string(setup->pairs.size());
  result->report["chunk_bytes"] = std::to_string(kChunkBytes);

  int64_t budget = static_cast<int64_t>(options.seconds) * 1000000000;
  if (!options.trace) {
    Tracer off(false);
    Pass pass = StreamPass(*setup, budget, &off, result);
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("throughput_mb_s", pass.Throughput(), "MB/s");
    result->Set("doc_ms_p50", pass.DocMs(0.5), "ms");
    result->Set("doc_ms_p99", pass.DocMs(0.99), "ms");
    result->Set("first_item_ms_p50", pass.FirstItemMs(), "ms");
    result->Set("peak_buffer_kb", pass.PeakBuffer() / 1024.0, "KiB");
    // A library caller's request is one Push call; its rate is
    // documents (pairs) per second.
    result->Set("req_ms_p50", pass.PushMs(0.5), "ms");
    result->Set("req_ms_p99", pass.PushMs(0.99), "ms");
    result->Set("max_rps", pass.DocsPerSecond(), "1/s");
    // Sampled while streaming: VmHWM would be set-up's oracle trees.
    result->Set("server_rss_mb", pass.peak_rss_kb / 1024.0, "MB");
    result->report["doc_samples"] = std::to_string(pass.DocSamples());
    // Unscaled per-window figures, to see the machine's speed changes.
    result->report["window_raw_mb_s"] = JsonArray(pass.EachWindow(RawThroughput));
    result->report["window_probe_us"] = JsonArray(pass.EachWindow(
        [](const PassStats& w) { return w.Probe() / 1e3; }));
    return;
  }

  // Traced run: an untraced and a traced pass of equal length give the
  // tracing overhead (both scaled to the reference speed); the rest of
  // the budget goes to the layer probes.
  Tracer off(false);
  double plain_tp = StreamPass(*setup, budget / 4, &off, result).Throughput();
  double traced_tp =
      StreamPass(*setup, budget / 4, tracer, result).Throughput();
  result->Set("trace.overhead_pct",
              plain_tp > 0 ? (plain_tp - traced_tp) / plain_tp * 100 : 0, "%");
  result->report["throughput_mb_s_untraced"] = JsonNumber(plain_tp);
  result->report["throughput_mb_s_traced"] = JsonNumber(traced_tp);

  std::vector<const std::string*> docs;
  for (const Doc& corpus : setup->inputs.corpora) docs.push_back(&corpus.xml);
  std::vector<std::string> queries;
  std::vector<Pair> pairs;
  for (const StreamPair& pair : setup->pairs) {
    queries.push_back(pair.query->text);
    pairs.push_back(Pair{&pair.query->text, &pair.corpus->xml});
  }
  ProbeEngineLayers(docs, queries, pairs, budget / 2, tracer, result);
}

}  // namespace perfbench
