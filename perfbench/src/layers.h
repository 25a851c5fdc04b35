// In-process per-layer probes for the traced run. Each probe times
// calls into one module's public functions from here — nothing inside
// src/ is instrumented — and records a span per call.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// The chunk size a streaming caller pushes, in the workload and in the
// core probes.
constexpr size_t kChunkBytes = 64u << 10;

// One (query, document) evaluation the workload performs.
struct Pair {
  const std::string* query;
  const std::string* doc;
};

// The largest peak_buffered_bytes() of any pair, each streamed once
// through a core::StreamingQuery.
size_t PeakBufferBytes(const std::vector<Pair>& pairs);

// xml, xpath, tape and core probes over the workload's own documents
// and pairs, repeated for `budget_ns` (at least three rounds). Sets:
//   xml.parse_ms          SaxParser into a no-op handler, all documents
//   xpath.compile_us      ParseQuery + CompilePlan, median per query
//   tape.record_ms        RecordDocument minus the bare parse (recorder
//                         self time), all documents
//   tape.replay_ms        tape::Replay into a no-op handler, all documents
//   core.engine_ms        replay into StreamingQuery::event_handler()
//                         minus the no-op replay (engine self time), all
//                         pairs
//   core.phase_*_ms       PhaseListener split of a Push run, all pairs
//   core.items            items produced by one round of all pairs
//   core.peak_buffer_bytes  largest peak_buffered_bytes() of any pair
// Times are medians over rounds of the per-round totals.
void ProbeEngineLayers(const std::vector<const std::string*>& docs,
                       const std::vector<std::string>& queries,
                       const std::vector<Pair>& pairs, int64_t budget_ns,
                       Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
