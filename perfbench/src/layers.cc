#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>

#include "core/compiled_plan.h"
#include "core/streaming_query.h"
#include "tape/recorder.h"
#include "tape/replayer.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace perfbench {
namespace {

class NoopHandler : public xsq::xml::SaxHandler {
 public:
  void OnBegin(std::string_view, const std::vector<xsq::xml::Attribute>&,
               int) override {}
  void OnEnd(std::string_view, int) override {}
  void OnText(std::string_view, std::string_view, int) override {}
};

class PhaseSum : public xsq::core::PhaseListener {
 public:
  void OnPhaseSample(uint64_t parse_ns, uint64_t automaton_ns,
                     uint64_t buffer_ns) override {
    parse += parse_ns;
    automaton += automaton_ns;
    buffer += buffer_ns;
  }
  uint64_t parse = 0, automaton = 0, buffer = 0;
};

}  // namespace

size_t PeakBufferBytes(const std::vector<Pair>& pairs) {
  size_t peak = 0;
  for (const Pair& pair : pairs) {
    auto opened = xsq::core::StreamingQuery::Open(*pair.query);
    if (!opened.ok()) continue;
    std::unique_ptr<xsq::core::StreamingQuery> query = std::move(*opened);
    if (query->Push(*pair.doc).ok() && query->Close().ok()) {
      peak = std::max(peak, query->peak_buffered_bytes());
    }
  }
  return peak;
}

void ProbeEngineLayers(const std::vector<const std::string*>& docs,
                       const std::vector<std::string>& queries,
                       const std::vector<Pair>& pairs, int64_t budget_ns,
                       Tracer* tracer, RunResult* result) {
  std::map<const std::string*, xsq::tape::Tape> tapes;
  for (const std::string* doc : docs) {
    auto tape = xsq::tape::RecordDocument(*doc);
    if (!tape.ok()) {
      result->Fail("tape record: " + tape.status().ToString());
      return;
    }
    tapes.emplace(doc, std::move(*tape));
  }

  std::vector<double> parse_ms, record_ms, replay_ms, engine_ms, phase_parse,
      phase_automaton, phase_buffer, compile_us;
  uint64_t items = 0;
  size_t peak_buffer = 0;
  uint64_t request = 0;
  int64_t deadline = NowNs() + budget_ns;
  for (int round = 0; round < 3 || NowNs() < deadline; ++round) {
    NoopHandler noop;
    int64_t parse_total = 0, record_total = 0, replay_total = 0;
    std::map<const std::string*, int64_t> replay_of;
    for (const std::string* doc : docs) {
      ++request;
      int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "xml.parse", request);
        xsq::xml::SaxParser parser(&noop);
        if (!parser.Parse(*doc).ok()) result->Fail("no-op parse failed");
      }
      int64_t t1 = NowNs();
      {
        ScopedSpan span(tracer, "tape.record_document", request);
        auto tape = xsq::tape::RecordDocument(*doc);
        if (!tape.ok()) result->Fail("tape record failed");
      }
      int64_t t2 = NowNs();
      {
        ScopedSpan span(tracer, "tape.replay", request);
        if (!xsq::tape::Replay(tapes.at(doc), &noop).ok()) {
          result->Fail("no-op replay failed");
        }
      }
      int64_t t3 = NowNs();
      parse_total += t1 - t0;
      record_total += (t2 - t1) - (t1 - t0);
      replay_total += t3 - t2;
      replay_of[doc] = t3 - t2;
    }
    parse_ms.push_back(NsToMs(parse_total));
    record_ms.push_back(NsToMs(record_total));
    replay_ms.push_back(NsToMs(replay_total));

    for (const std::string& query : queries) {
      ++request;
      ScopedSpan span(tracer, "xpath.compile", request);
      int64_t t0 = NowNs();
      auto parsed = xsq::xpath::ParseQuery(query);
      auto plan = xsq::core::CompilePlan(query);
      compile_us.push_back(NsToUs(NowNs() - t0));
      if (!parsed.ok() || !plan.ok()) result->Fail("compile failed: " + query);
    }

    int64_t engine_total = 0;
    PhaseSum phases;
    uint64_t round_items = 0;
    for (const Pair& pair : pairs) {
      ++request;
      auto opened = xsq::core::StreamingQuery::Open(*pair.query);
      if (!opened.ok()) {
        result->Fail("open failed: " + *pair.query);
        continue;
      }
      std::unique_ptr<xsq::core::StreamingQuery> query = std::move(*opened);
      {
        ScopedSpan span(tracer, "core.replay_engine", request);
        int64_t t0 = NowNs();
        xsq::Status status =
            xsq::tape::Replay(tapes.at(pair.doc), query->event_handler());
        if (status.ok()) status = query->FinishEvents();
        engine_total += (NowNs() - t0) - replay_of[pair.doc];
        if (!status.ok()) result->Fail("engine replay: " + status.ToString());
      }
      while (query->NextItem()) ++round_items;

      query->Reset();
      query->set_phase_listener(&phases);
      {
        ScopedSpan span(tracer, "core.push_run", request);
        std::string_view doc = *pair.doc;
        for (size_t at = 0; at < doc.size(); at += kChunkBytes) {
          if (!query->Push(doc.substr(at, kChunkBytes)).ok()) break;
        }
        if (!query->Close().ok()) result->Fail("push run failed");
      }
      query->set_phase_listener(nullptr);
      peak_buffer = std::max(peak_buffer, query->peak_buffered_bytes());
    }
    engine_ms.push_back(NsToMs(engine_total));
    phase_parse.push_back(phases.parse / 1e6);
    phase_automaton.push_back(phases.automaton / 1e6);
    phase_buffer.push_back(phases.buffer / 1e6);
    items = round_items;
  }

  result->Set("xml.parse_ms", Median(parse_ms), "ms");
  result->Set("xpath.compile_us", Median(compile_us), "us");
  result->Set("tape.record_ms", Median(record_ms), "ms");
  result->Set("tape.replay_ms", Median(replay_ms), "ms");
  result->Set("core.engine_ms", Median(engine_ms), "ms");
  result->Set("core.phase_parse_ms", Median(phase_parse), "ms");
  result->Set("core.phase_automaton_ms", Median(phase_automaton), "ms");
  result->Set("core.phase_buffer_ms", Median(phase_buffer), "ms");
  result->Set("core.items", static_cast<double>(items), "count");
  result->Set("core.peak_buffer_bytes", static_cast<double>(peak_buffer),
              "bytes");
  result->report["layer_probe_rounds"] = std::to_string(parse_ms.size());
}

}  // namespace perfbench
