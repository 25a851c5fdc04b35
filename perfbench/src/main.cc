// perfbench: the XSQ++ benchmark program.
//
//   perfbench --workload=stream-xsqf|serve-inproc|serve-mixed|cluster-rf2
//             --seed=N --seconds=S --trace=0|1 --xsqd=PATH --router=PATH
//             --work-dir=DIR [--commit=ID] [--source-sha=HEX]
//
// Prints a metric table, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). The full report — seed, nproc, compiler, build type,
// commit, sample counts, failures, span summary — goes to
// DIR/report-<workload>-seed<N>-trace<T>.json, and a traced run's spans
// to DIR/spans-<workload>-seed<N>.json. Exits 1 when any output was
// wrong, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "daemons.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric in BENCHMARK.json, with its unit. An
// untraced run of each workload sets all of them; README.md says what
// each means there. The workloads also set doc_ms_* and req_ms_*, which
// go to the table and the report only: on the machine the benchmark was
// tuned on they spread too far from run to run to gate on.
const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"throughput_mb_s", "MB/s"},
    {"max_rps", "1/s"},
    {"first_item_ms_p50", "ms"},
    {"peak_buffer_kb", "KiB"},
    {"server_rss_mb", "MB"},
};

// Every per-layer metric, with its unit. A traced run prints all of
// them; a layer the workload does not exercise reports 0 and is listed
// under "not_exercised" in the report.
const std::vector<MetricSpec> kLayerMetrics = {
    {"xml.parse_ms", "ms"},
    {"xpath.compile_us", "us"},
    {"tape.record_ms", "ms"},
    {"tape.replay_ms", "ms"},
    {"core.engine_ms", "ms"},
    {"core.phase_parse_ms", "ms"},
    {"core.phase_automaton_ms", "ms"},
    {"core.phase_buffer_ms", "ms"},
    {"core.items", "count"},
    {"core.peak_buffer_bytes", "bytes"},
    {"service.run_cached_us", "us"},
    {"xsq_queue_wait_us_p99", "us"},
    {"xsq_tape_replay_us_p50", "us"},
    {"service.plan_cache_hit_ratio", "ratio"},
    {"service.doc_cache_hit_ratio", "ratio"},
    {"net.handle_us", "us"},
    {"net.wire_us", "us"},
    {"xsq_connections_shed", "count"},
    {"cluster.router_hop_us", "us"},
    {"xsq_router_backend_request_us_p99", "us"},
    {"cluster.failover_ratio", "ratio"},
    {"cluster.repl_lag_ms", "ms"},
    {"cluster.repl_fail_ratio", "ratio"},
    {"pubsub.publish_us", "us"},
    {"filter.survivor_ratio", "ratio"},
    {"gen.lag_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
};

std::string FlagValue(std::string_view arg) {
  size_t eq = arg.find('=');
  return eq == std::string_view::npos ? std::string()
                                      : std::string(arg.substr(eq + 1));
}

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

// BENCHMARK.json declares each unit; a workload must report in it.
void CheckUnit(const MetricSpec& spec, RunResult* result) {
  auto it = result->metrics.find(spec.name);
  if (it != result->metrics.end() && it->second.unit != spec.unit) {
    result->Fail(std::string(spec.name) + " reported in " + it->second.unit +
                 ", declared in " + spec.unit);
  }
}

std::string MetricsJson(const RunResult& result,
                        const std::set<std::string>& names) {
  std::string out = "{";
  for (const auto& [name, metric] : result.metrics) {
    if (!names.count(name)) continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown", source_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string value = FlagValue(arg);
    if (arg.rfind("--workload=", 0) == 0) {
      options.workload = value;
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg.rfind("--seconds=", 0) == 0) {
      options.seconds = std::atoi(value.c_str());
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace = value == "1";
    } else if (arg.rfind("--xsqd=", 0) == 0) {
      options.xsqd = value;
    } else if (arg.rfind("--router=", 0) == 0) {
      options.router = value;
    } else if (arg.rfind("--work-dir=", 0) == 0) {
      options.work_dir = value;
    } else if (arg.rfind("--commit=", 0) == 0) {
      commit = value;
    } else if (arg.rfind("--source-sha=", 0) == 0) {
      source_sha = value;
    } else {
      return Usage(("unknown flag " + std::string(arg)).c_str());
    }
  }
  const std::map<std::string, ServeMode> serve_modes = {
      {"serve-inproc", ServeMode::kInProcess},
      {"serve-mixed", ServeMode::kSingleNode},
      {"cluster-rf2", ServeMode::kCluster}};
  auto serve_mode = serve_modes.find(options.workload);
  bool serve = serve_mode != serve_modes.end();
  if (options.workload != "stream-xsqf" && !serve) {
    return Usage("--workload must be stream-xsqf, serve-inproc, serve-mixed "
                 "or cluster-rf2");
  }
  if (options.seconds < 1) return Usage("--seconds must be at least 1");
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  // serve-inproc starts daemons only in its traced run, for the cluster
  // layer probes.
  bool daemons = serve && (serve_mode->second != ServeMode::kInProcess ||
                           options.trace);
  bool router = daemons && serve_mode->second != ServeMode::kSingleNode;
  if (daemons && access(options.xsqd.c_str(), X_OK) != 0) {
    return Usage("--xsqd must name the xsqd binary");
  }
  if (router && access(options.router.c_str(), X_OK) != 0) {
    return Usage("--router must name the xsq_router binary");
  }
  InstallCleanupHandlers();

  Tracer tracer(options.trace);
  RunResult result;
  if (serve) {
    RunServe(options, serve_mode->second, &tracer, &result);
  } else {
    RunStream(options, &tracer, &result);
  }
  KillAllChildren();  // every daemon is already stopped; belt and braces
  if (result.attempted == 0) result.attempted = 1, result.failed = 1;
  if (result.failed > 0) result.correct = false;

  std::set<std::string> printed;
  std::string not_exercised = "[";
  if (options.trace) {
    for (const MetricSpec& layer : kLayerMetrics) {
      printed.insert(layer.name);
      CheckUnit(layer, &result);
      if (!result.metrics.count(layer.name)) {
        result.Set(layer.name, 0, layer.unit);
        not_exercised += std::string(not_exercised.size() > 1 ? ", " : "") +
                         "\"" + layer.name + "\"";
      }
    }
  } else {
    for (const MetricSpec& metric : kEndToEndMetrics) {
      printed.insert(metric.name);
      CheckUnit(metric, &result);
      if (!result.metrics.count(metric.name)) {
        result.Fail(std::string("no value for ") + metric.name);
      }
    }
  }
  not_exercised += "]";
  double failed_frac = static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted);

  // Human-readable table first; the JSON object must be the last line.
  std::printf("workload %s seed %llu trace %d: %s, %llu attempted, %llu "
              "failed (failed_frac %.6f)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              result.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), failed_frac);
  for (const std::string& error : result.errors) {
    std::printf("  failure: %s\n", error.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("  %-36s %14.4f %-6s%s\n", name.c_str(), metric.value,
                metric.unit.c_str(), printed.count(name) ? "" : " (report only)");
  }

  std::string tag = options.workload + "-seed" + std::to_string(options.seed);
  std::string report = "{\n";
  auto field = [&report](const std::string& key, const std::string& json) {
    report += (report.size() > 2 ? ",\n" : "") + std::string("  \"") + key +
              "\": " + json;
  };
  field("workload", "\"" + options.workload + "\"");
  field("seed", std::to_string(options.seed));
  field("seconds", std::to_string(options.seconds));
  field("trace", options.trace ? "true" : "false");
  field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  field("compiler", "\"" + JsonEscape("g++ " __VERSION__) + "\"");
  field("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
  field("commit", "\"" + JsonEscape(commit) + "\"");
  field("source_sha", "\"" + JsonEscape(source_sha) + "\"");
  field("correct", result.correct ? "true" : "false");
  field("attempted", std::to_string(result.attempted));
  field("failed", std::to_string(result.failed));
  field("failed_frac", JsonNumber(failed_frac));
  std::string errors = "[";
  for (const std::string& error : result.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += '"';
    errors += JsonEscape(error);
    errors += '"';
  }
  field("failures", errors + "]");
  std::set<std::string> all;
  for (const auto& [name, metric] : result.metrics) all.insert(name);
  field("metrics", MetricsJson(result, all));
  for (const auto& [key, json] : result.report) field(key, json);
  if (options.trace) {
    field("not_exercised", not_exercised);
    std::string spans = "{";
    for (const auto& [name, s] : SummarizeSpans(tracer.spans())) {
      spans += std::string(spans.size() > 1 ? ",\n    " : "\n    ") + "\"" +
               name + "\": {\"count\": " + std::to_string(s.count) +
               ", \"total_ms\": " + JsonNumber(s.total_ms) +
               ", \"self_ms\": " + JsonNumber(s.self_ms) +
               ", \"p50_us\": " + JsonNumber(s.p50_us) + "}";
    }
    field("spans", spans + "\n  }");
    std::ofstream(options.work_dir + "/spans-" + tag + ".json")
        << SpansToJson(tracer.spans());
  }
  report += "\n}\n";
  std::ofstream(options.work_dir + "/report-" + tag + "-trace" +
                (options.trace ? "1" : "0") + ".json")
      << report;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(result, printed).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
