// The serving workloads, driven by an open-loop generator: serve-inproc
// (xsqd's per-connection LineProtocol over a QueryService in this
// process), serve-mixed (one xsqd over TCP) and cluster-rf2 (xsq_router
// with replication factor 2 over two xsqd shards).
//
// The generator is this one process with kConnections request
// connections (plus one subscriber connection without the cluster). Each
// phase's schedule is fixed in advance from the seed: Poisson arrivals
// at a fixed offered rate, a weighted mix of request kinds, and a
// METRICS scrape every kScrapeIntervalMs. Workers take the next due
// request in schedule order, so a stall delays every later request,
// and each request is timed from when it was due. A refused, ERR,
// timed-out or mismatched request counts as failed and as missing the
// latency limit.
//
// Every reply block is compared byte-for-byte with the reply an
// in-process single-node net::LineProtocol gives for the same request
// (the transcript, computed during set-up). The one exception is the
// session id in an OPEN reply, which depends on connection history and
// is only checked for shape.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/router.h"
#include "daemons.h"
#include "inputs.h"
#include "layers.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "obs/exposition.h"
#include "service/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using xsq::net::LineProtocol;

constexpr int kConnections = 3;
constexpr size_t kStreamChunks = 4;
constexpr int64_t kScrapeIntervalMs = 500;
// Latencies are summarized per window of this many milliseconds of due
// time; a phase reports the median over its windows.
constexpr int64_t kWindowMs = 1000;
// The latency limit the max_rps ladder holds the p99 to, and the
// lateness at which a phase is declared to have a runaway backlog.
constexpr double kLatencyLimitMs = 50;
constexpr double kAbortLagMs = 500;
// The fixed offered rate for the latency figures, well below the knee
// of every serving workload, and the max_rps ladder:
// kLadderBase * kLadderRatio^k requests per second, k < kLadderSteps,
// binary-searched in steps of 1/kLadderSlots of the ladder's time.
constexpr double kFixedRate = 1000;
constexpr double kLadderBase = 1000;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderSteps = 64;
// Steps the ladder's share of --seconds is split into: the 7 probes of
// the search, plus the second attempts a typical search makes.
constexpr int kLadderSlots = 10;
constexpr int64_t kSpinNs = 1000000;

// Daemon sizing. The cache capacity is shared by every xsqd and the
// in-process transcript service, so the caches behave alike. The
// single node and the two cluster shards have kServiceWorkers workers
// in total, so the cluster adds the router and nothing else, and the
// generator, router and workers stay within 4 cores.
constexpr int kServiceWorkers = 2;
constexpr size_t kCacheCapacity = 64;

enum class Kind { kRunCached, kStream, kRecord, kPublish, kMetrics };
const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kRunCached: return "runcached";
    case Kind::kStream: return "stream";
    case Kind::kRecord: return "record";
    case Kind::kPublish: return "publish";
    default: return "metrics";
  }
}

struct Request {
  int64_t due_ns;  // offset from the phase start
  Kind kind;
  uint32_t index;  // pair, document or publish-document index
};

// The request mix (weights; METRICS is periodic, not weighted).
struct Mix {
  double runcached = 0.80;
  double stream = 0.08;
  double record = 0.06;
  double publish = 0.06;
};

struct ServePair {
  size_t query;
  size_t doc;
};

// Reply blocks of the single-node transcript.
struct Transcript {
  std::vector<std::string> runcached;     // per pair
  std::vector<std::string> stream_close;  // per pair
  std::vector<std::string> record;        // per doc
  std::vector<std::string> publish;       // per publish doc
};

xsq::service::ServiceConfig ServiceConfigForBench() {
  xsq::service::ServiceConfig config;
  config.num_workers = kServiceWorkers;
  config.plan_cache_capacity = kCacheCapacity;
  config.doc_cache_capacity = kCacheCapacity;
  return config;
}

std::vector<std::string> DaemonArgs(int workers) {
  return {"--listen=0", "--workers=" + std::to_string(workers),
          "--plan-cache=" + std::to_string(kCacheCapacity),
          "--doc-cache=" + std::to_string(kCacheCapacity)};
}

std::vector<std::string> SplitChunks(const std::string& doc) {
  std::vector<std::string> chunks;
  size_t step = (doc.size() + kStreamChunks - 1) / kStreamChunks;
  for (size_t at = 0; at < doc.size(); at += step) {
    chunks.push_back(doc.substr(at, step));
  }
  return chunks;
}

std::string Block(const xsq::net::Response& response) {
  std::string block;
  for (const std::string& line : response.lines) block += line + "\n";
  if (response.status.ok()) {
    block += response.ok_payload.empty() ? "OK\n"
                                         : "OK " + response.ok_payload + "\n";
  } else {
    block += "ERR " + response.status.ToString() + "\n";
  }
  return block;
}

bool IsOpenReply(const std::string& block, std::string* id) {
  if (block.rfind("OK ", 0) != 0 || block.back() != '\n') return false;
  *id = block.substr(3, block.size() - 4);
  return !id->empty() &&
         id->find_first_not_of("0123456789") == std::string::npos;
}

uint64_t FieldValue(const std::string& text, const std::string& key) {
  size_t at = text.find(key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
}

// A raw line connection for the subscriber, whose EVENT frames arrive
// unsolicited (net::Client only reads reply blocks).
class SubscriberConn {
 public:
  ~SubscriberConn() { Stop(); }

  xsq::Status Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return xsq::Status::Internal("subscriber connect failed");
    }
    return xsq::Status::OK();
  }

  // Sends SUBSCRIBE and waits for its OK (no frames can precede it:
  // nothing is published during set-up).
  xsq::Status Subscribe(const std::string& query) {
    std::string line = "SUBSCRIBE " + query + "\n";
    if (send(fd_, line.data(), line.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(line.size())) {
      return xsq::Status::Internal("subscriber send failed");
    }
    std::string reply;
    if (!ReadLine(&reply, 5000) || reply.rfind("OK ", 0) != 0) {
      return xsq::Status::Internal("SUBSCRIBE failed: " + reply);
    }
    return xsq::Status::OK();
  }

  // Starts counting EVENT frames on a reader thread.
  void StartReader() {
    reader_ = std::thread([this] {
      std::string line;
      while (!stop_.load() && !closed_) {
        if (!ReadLine(&line, 100)) continue;
        if (line.rfind("EVENT ", 0) == 0) frames_.fetch_add(1);
      }
    });
  }

  uint64_t frames() const { return frames_.load(); }

  void Stop() {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  bool ReadLine(std::string* line, int timeout_ms) {
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, timeout_ms) <= 0) return false;
      char chunk[65536];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        closed_ = true;
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  bool closed_ = false;  // the daemon hung up
  std::string buffer_;
  std::thread reader_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> frames_{0};
};

std::unique_ptr<xsq::net::Client> MakeClient(uint16_t port) {
  xsq::net::ClientConfig config;
  config.port = port;
  config.max_retries = 0;
  config.request_timeout_ms = 5000;
  return std::make_unique<xsq::net::Client>(config);
}

// A generator connection's way into the system under test. Request
// returns the reply block exactly as the line protocol writes it.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual xsq::Result<std::string> Request(const std::string& line) = 0;
};

// A TCP connection to a daemon.
class TcpChannel : public Channel {
 public:
  explicit TcpChannel(uint16_t port) : client_(MakeClient(port)) {}
  xsq::Result<std::string> Request(const std::string& line) override {
    auto response = client_->Request(line);
    if (!response.ok()) return response.status();
    return Block(*response);
  }

 private:
  std::unique_ptr<xsq::net::Client> client_;
};

// The connection handler xsqd runs per connection, called in process
// over the workload's own QueryService; counts the EVENT frames pushed
// to it.
class InProcessChannel : public Channel {
 public:
  explicit InProcessChannel(xsq::service::QueryService* service)
      : protocol_(service) {
    protocol_.SetEventSink([this](std::string_view frame) {
      for (size_t at = 0; (at = frame.find("EVENT ", at)) != frame.npos; ++at) {
        if (at == 0 || frame[at - 1] == '\n') frames_.fetch_add(1);
      }
    });
  }
  xsq::Result<std::string> Request(const std::string& line) override {
    std::string out;
    protocol_.HandleLine(line, &out);
    return out;
  }
  uint64_t frames() const { return frames_.load(); }

 private:
  std::atomic<uint64_t> frames_{0};
  LineProtocol protocol_;
};

// One generator connection plus its session per query (RUNCACHED needs
// a session; sessions are connection-scoped).
struct Conn {
  std::unique_ptr<Channel> channel;
  std::vector<std::string> session_of_query;
};

std::vector<std::string> BlockLines(const std::string& block) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl; (nl = block.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(block.substr(start, nl - start));
  }
  return lines;
}

// Everything set-up builds; a fresh one per set-up repetition.
struct ServeState {
  ServeInputs inputs;
  std::vector<ServePair> pairs;
  std::vector<std::vector<std::string>> chunks;  // per doc, stream chunks
  Transcript transcript;
  // The in-process single-node stack the transcript came from; the
  // traced run's service/net/pubsub probes reuse it.
  std::unique_ptr<xsq::service::QueryService> service;
  std::unique_ptr<LineProtocol> protocol;
  std::vector<std::string> oracle_session_of_query;
  // The system under test: in process, or the xsqd processes and, on
  // the cluster, the router.
  std::unique_ptr<xsq::service::QueryService> served;
  std::vector<std::unique_ptr<Daemon>> shards;
  std::unique_ptr<Daemon> router;
  uint16_t entry_port = 0;  // where a TCP generator connects
  std::vector<Conn> conns;
  std::unique_ptr<SubscriberConn> subscriber;             // over TCP
  std::unique_ptr<InProcessChannel> inprocess_subscriber;  // in process

  uint64_t SubscriberFrames() const {
    if (subscriber) return subscriber->frames();
    return inprocess_subscriber ? inprocess_subscriber->frames() : 0;
  }
};

std::string Handle(LineProtocol* protocol, const std::string& line) {
  std::string out;
  protocol->HandleLine(line, &out);
  return out;
}

// The single-node transcript, pub/sub included: the cluster's mix
// leaves PUBLISH out, but the traced run's publish probe uses the
// subscriptions.
xsq::Status BuildTranscript(ServeState* state) {
  state->service = std::make_unique<xsq::service::QueryService>(
      ServiceConfigForBench());
  state->protocol = std::make_unique<LineProtocol>(state->service.get());
  state->protocol->SetEventSink([](std::string_view) {});
  Transcript& t = state->transcript;
  LineProtocol* p = state->protocol.get();
  for (const Doc& doc : state->inputs.docs) {
    t.record.push_back(
        Handle(p, "RECORD " + doc.name + " " + LineProtocol::Escape(doc.xml)));
    if (t.record.back().rfind("OK ", 0) != 0) {
      return xsq::Status::Internal("transcript RECORD: " + t.record.back());
    }
  }
  {
    for (const std::string& query : state->inputs.standing_queries) {
      std::string reply = Handle(p, "SUBSCRIBE " + query);
      if (reply.rfind("OK ", 0) != 0) {
        return xsq::Status::Internal("transcript SUBSCRIBE: " + reply);
      }
    }
  }
  for (const QuerySpec& query : state->inputs.queries) {
    std::string id;
    if (!IsOpenReply(Handle(p, "OPEN " + query.text), &id)) {
      return xsq::Status::Internal("transcript OPEN " + query.text);
    }
    state->oracle_session_of_query.push_back(id);
  }
  for (const ServePair& pair : state->pairs) {
    const Doc& doc = state->inputs.docs[pair.doc];
    t.runcached.push_back(Handle(p, "RUNCACHED " +
                                        state->oracle_session_of_query[pair.query] +
                                        " " + doc.name));
    std::string id;
    if (!IsOpenReply(Handle(p, "OPEN " + state->inputs.queries[pair.query].text),
                     &id)) {
      return xsq::Status::Internal("transcript stream OPEN");
    }
    for (const std::string& chunk : state->chunks[pair.doc]) {
      Handle(p, "PUSH " + id + " " + LineProtocol::Escape(chunk));
    }
    t.stream_close.push_back(Handle(p, "CLOSE " + id));
    if (t.runcached.back() != t.stream_close.back()) {
      return xsq::Status::Internal("transcript: RUNCACHED and streamed replies "
                                   "differ for " + doc.name);
    }
  }
  {
    for (const std::string& doc : state->inputs.publish_docs) {
      t.publish.push_back(Handle(p, "PUBLISH " + LineProtocol::Escape(doc)));
      if (t.publish.back().rfind("OK ", 0) != 0) {
        return xsq::Status::Internal("transcript PUBLISH: " + t.publish.back());
      }
    }
  }
  return xsq::Status::OK();
}

xsq::Status StartDaemons(const Options& options, bool cluster,
                         ServeState* state) {
  int shards = cluster ? 2 : 1;
  for (int i = 0; i < shards; ++i) {
    XSQ_ASSIGN_OR_RETURN(
        std::unique_ptr<Daemon> shard,
        Daemon::Start(options.xsqd, DaemonArgs(kServiceWorkers / shards),
                      options.work_dir,
                      "xsqd" + std::to_string(i)));
    state->shards.push_back(std::move(shard));
  }
  if (!cluster) {
    state->entry_port = state->shards[0]->port();
    return xsq::Status::OK();
  }
  std::vector<std::string> args = {"--listen=0", "--replication-factor=2",
                                   "--pool-conns=" +
                                       std::to_string(kConnections)};
  for (const auto& shard : state->shards) {
    args.push_back("--shard=127.0.0.1:" + std::to_string(shard->port()));
  }
  XSQ_ASSIGN_OR_RETURN(state->router, Daemon::Start(options.router, args,
                                                    options.work_dir,
                                                    "xsq_router"));
  state->entry_port = state->router->port();
  return xsq::Status::OK();
}

// Sends `line` and compares the reply block with `want`.
xsq::Status Expect(Channel* channel, const std::string& line,
                   const std::string& want) {
  XSQ_ASSIGN_OR_RETURN(std::string got, channel->Request(line));
  if (got != want) {
    return xsq::Status::Internal("reply mismatch for '" + line.substr(0, 60) +
                                 "': got '" + got.substr(0, 120) +
                                 "', want '" + want.substr(0, 120) + "'");
  }
  return xsq::Status::OK();
}

xsq::Status WaitReplicated(Channel* channel, int64_t timeout_ms) {
  int64_t deadline = NowNs() + timeout_ms * 1000000;
  while (NowNs() < deadline) {
    XSQ_ASSIGN_OR_RETURN(std::string block, channel->Request("REPLSTATUS"));
    for (const std::string& line : BlockLines(block)) {
      if (line.rfind("REPL ", 0) == 0 && line.find(" pending=0 ") !=
                                             std::string::npos) {
        return xsq::Status::OK();
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return xsq::Status::Internal("replication never drained");
}

xsq::Status SetUp(const Options& options, ServeMode mode, ServeState* state) {
  bool cluster = mode == ServeMode::kCluster;
  state->inputs = MakeServeInputs(options.seed);
  for (size_t q = 0; q < state->inputs.queries.size(); ++q) {
    for (size_t d = 0; d < state->inputs.docs.size(); ++d) {
      if (state->inputs.docs[d].family == state->inputs.queries[q].family) {
        state->pairs.push_back(ServePair{q, d});
      }
    }
  }
  for (const Doc& doc : state->inputs.docs) {
    state->chunks.push_back(SplitChunks(doc.xml));
  }
  XSQ_RETURN_IF_ERROR(BuildTranscript(state));
  if (mode == ServeMode::kInProcess) {
    state->served = std::make_unique<xsq::service::QueryService>(
        ServiceConfigForBench());
  } else {
    XSQ_RETURN_IF_ERROR(StartDaemons(options, cluster, state));
  }
  auto make_channel = [&]() -> std::unique_ptr<Channel> {
    if (state->served) {
      return std::make_unique<InProcessChannel>(state->served.get());
    }
    return std::make_unique<TcpChannel>(state->entry_port);
  };

  for (int c = 0; c < kConnections; ++c) {
    Conn conn;
    conn.channel = make_channel();
    for (const QuerySpec& query : state->inputs.queries) {
      XSQ_ASSIGN_OR_RETURN(std::string reply,
                           conn.channel->Request("OPEN " + query.text));
      std::string id;
      if (!IsOpenReply(reply, &id)) {
        return xsq::Status::Internal("OPEN reply: " + reply);
      }
      conn.session_of_query.push_back(id);
    }
    state->conns.push_back(std::move(conn));
  }
  Channel* first = state->conns[0].channel.get();
  for (size_t d = 0; d < state->inputs.docs.size(); ++d) {
    const Doc& doc = state->inputs.docs[d];
    XSQ_RETURN_IF_ERROR(Expect(first,
                               "RECORD " + doc.name + " " +
                                   LineProtocol::Escape(doc.xml),
                               state->transcript.record[d]));
  }
  if (cluster) {
    XSQ_RETURN_IF_ERROR(WaitReplicated(first, 10000));
  } else if (state->served) {
    state->inprocess_subscriber =
        std::make_unique<InProcessChannel>(state->served.get());
    for (const std::string& query : state->inputs.standing_queries) {
      XSQ_ASSIGN_OR_RETURN(std::string reply, state->inprocess_subscriber->Request(
                                                  "SUBSCRIBE " + query));
      if (reply.rfind("OK ", 0) != 0) {
        return xsq::Status::Internal("SUBSCRIBE failed: " + reply);
      }
    }
  } else {
    state->subscriber = std::make_unique<SubscriberConn>();
    XSQ_RETURN_IF_ERROR(state->subscriber->Connect(state->entry_port));
    for (const std::string& query : state->inputs.standing_queries) {
      XSQ_RETURN_IF_ERROR(state->subscriber->Subscribe(query));
    }
    state->subscriber->StartReader();
  }
  // Warm the plan and document caches on every connection.
  for (Conn& conn : state->conns) {
    for (size_t p = 0; p < state->pairs.size(); ++p) {
      const ServePair& pair = state->pairs[p];
      XSQ_RETURN_IF_ERROR(Expect(conn.channel.get(),
                                 "RUNCACHED " +
                                     conn.session_of_query[pair.query] + " " +
                                     state->inputs.docs[pair.doc].name,
                                 state->transcript.runcached[p]));
    }
  }
  return xsq::Status::OK();
}

std::vector<Request> MakeSchedule(uint64_t seed, double rate,
                                  int64_t duration_ns, const Mix& mix,
                                  const ServeState& state) {
  Rng rng(seed);
  std::vector<Request> schedule;
  double total = mix.runcached + mix.stream + mix.record + mix.publish;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate * 1e9;
    if (t >= static_cast<double>(duration_ns)) break;
    double pick = rng.Uniform() * total;
    Request request{static_cast<int64_t>(t), Kind::kRunCached, 0};
    if ((pick -= mix.runcached) < 0) {
      request.index = static_cast<uint32_t>(rng.Below(state.pairs.size()));
    } else if ((pick -= mix.stream) < 0) {
      request.kind = Kind::kStream;
      request.index = static_cast<uint32_t>(rng.Below(state.pairs.size()));
    } else if ((pick -= mix.record) < 0) {
      request.kind = Kind::kRecord;
      request.index = static_cast<uint32_t>(rng.Below(state.inputs.docs.size()));
    } else {
      request.kind = Kind::kPublish;
      request.index =
          static_cast<uint32_t>(rng.Below(state.inputs.publish_docs.size()));
    }
    schedule.push_back(request);
  }
  for (int64_t at = 0; at < duration_ns; at += kScrapeIntervalMs * 1000000) {
    schedule.push_back(Request{at, Kind::kMetrics, 0});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_ns < b.due_ns;
                   });
  return schedule;
}

// Exposition series the per-layer report reads; a run fails loudly if
// the daemon stops exporting one of them.
std::vector<std::string> RequiredSeries(bool cluster) {
  std::vector<std::string> names = {
      "xsq_queue_wait_us",   "xsq_tape_replay_us",   "xsq_plan_cache_hits",
      "xsq_plan_cache_misses", "xsq_doc_cache_hits", "xsq_doc_cache_misses",
      "xsq_connections_shed"};
  if (cluster) {
    names.insert(names.end(),
                 {"xsq_router_backend_request_us", "xsq_router_requests_total",
                  "xsq_router_failovers_total"});
  }
  return names;
}

bool HasFamily(const xsq::obs::Exposition& exposition,
               const std::string& name) {
  for (const auto& series : exposition.series()) {
    if (series.name == name) return true;
  }
  return false;
}

// A histogram family merged over its label sets (the router keeps one
// xsq_router_backend_request_us series per shard).
double FamilyQuantile(const xsq::obs::Exposition& exposition,
                      const std::string& name, double q) {
  xsq::obs::Histogram::Snapshot merged;
  for (const auto& series : exposition.series()) {
    if (series.name == name && series.is_histogram) merged.Merge(series.hist);
  }
  return merged.Quantile(q);
}

xsq::Result<xsq::obs::Exposition> Scrape(Channel* channel, bool cluster) {
  XSQ_ASSIGN_OR_RETURN(std::string block, channel->Request("METRICS"));
  std::vector<std::string> lines = BlockLines(block);
  if (lines.empty() || lines.back().rfind("OK", 0) != 0) {
    return xsq::Status::Internal("METRICS failed: " + block.substr(0, 120));
  }
  std::string text;
  for (const std::string& line : lines) {
    if (line.rfind("METRIC ", 0) == 0) text += line.substr(7) + "\n";
  }
  XSQ_ASSIGN_OR_RETURN(xsq::obs::Exposition exposition,
                       xsq::obs::Exposition::Parse(text));
  for (const std::string& name : RequiredSeries(cluster)) {
    if (!HasFamily(exposition, name)) {
      return xsq::Status::Internal("metric " + name +
                                   " missing from the METRICS exposition");
    }
  }
  return exposition;
}

// What a completed request adds to the end-to-end figures.
struct Outcome {
  double source_bytes = 0;  // document bytes the request evaluated
  int64_t doc_ns = -1;      // streamed session: first PUSH to CLOSE reply
  bool has_item = false;    // RUNCACHED whose reply carries an item
};

// Executes one scheduled request on `conn`; an error describes the
// failure.
xsq::Status Execute(const Request& request, Conn* conn,
                    const ServeState& state, bool cluster, Tracer* tracer,
                    uint64_t request_id, uint64_t* publish_frames,
                    Outcome* outcome) {
  Channel* channel = conn->channel.get();
  auto call = [&](const std::string& line) {
    ScopedSpan span(tracer, "net.request", request_id);
    return channel->Request(line);
  };
  auto expect = [&](const std::string& line, const std::string& want) {
    auto reply = call(line);
    if (!reply.ok()) return reply.status();
    if (*reply != want) {
      return xsq::Status::Internal(std::string(KindName(request.kind)) +
                                   " reply differs from the transcript: " +
                                   reply->substr(0, 120));
    }
    return xsq::Status::OK();
  };
  switch (request.kind) {
    case Kind::kRunCached: {
      const ServePair& pair = state.pairs[request.index];
      const std::string& want = state.transcript.runcached[request.index];
      outcome->source_bytes = state.inputs.docs[pair.doc].xml.size();
      outcome->has_item = want.rfind("ITEM ", 0) == 0 || want.rfind("AGG ", 0) == 0;
      return expect("RUNCACHED " + conn->session_of_query[pair.query] + " " +
                        state.inputs.docs[pair.doc].name,
                    want);
    }
    case Kind::kStream: {
      const ServePair& pair = state.pairs[request.index];
      auto opened = call("OPEN " + state.inputs.queries[pair.query].text);
      if (!opened.ok()) return opened.status();
      std::string id;
      if (!IsOpenReply(*opened, &id)) {
        return xsq::Status::Internal("OPEN reply: " + *opened);
      }
      int64_t first_push = NowNs();
      for (const std::string& chunk : state.chunks[pair.doc]) {
        XSQ_RETURN_IF_ERROR(
            expect("PUSH " + id + " " + LineProtocol::Escape(chunk), "OK\n"));
      }
      XSQ_RETURN_IF_ERROR(
          expect("CLOSE " + id, state.transcript.stream_close[request.index]));
      outcome->doc_ns = NowNs() - first_push;
      outcome->source_bytes = state.inputs.docs[pair.doc].xml.size();
      return xsq::Status::OK();
    }
    case Kind::kRecord: {
      const Doc& doc = state.inputs.docs[request.index];
      outcome->source_bytes = doc.xml.size();
      return expect("RECORD " + doc.name + " " + LineProtocol::Escape(doc.xml),
                    state.transcript.record[request.index]);
    }
    case Kind::kPublish: {
      const std::string& want = state.transcript.publish[request.index];
      outcome->source_bytes = state.inputs.publish_docs[request.index].size();
      XSQ_RETURN_IF_ERROR(expect(
          "PUBLISH " +
              LineProtocol::Escape(state.inputs.publish_docs[request.index]),
          want));
      *publish_frames += FieldValue(want, "enqueued");
      return xsq::Status::OK();
    }
    case Kind::kMetrics: {
      ScopedSpan span(tracer, "net.request", request_id);
      return Scrape(channel, cluster).status();
    }
  }
  return xsq::Status::OK();
}

// One phase's outcome, bucketed into kWindowMs windows by due time so
// a run reports medians over its windows rather than one sample of a
// tail a single stall can own.
struct PhaseResult {
  std::vector<std::vector<double>> latency_ms;  // per window; from due
                                                // time; failure = infinity
  std::vector<std::vector<double>> lag_ms;      // per window; send - due
  double probe_ns = 0;  // SpeedProbeNs around the phase
  std::vector<double> doc_ms;         // streamed sessions that succeeded
  std::vector<double> first_item_ms;  // item-bearing RUNCACHED, from due time
  double source_bytes = 0;            // evaluated by requests that succeeded
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t publish_frames = 0;
  bool aborted = false;  // the backlog grew past kAbortLagMs
  std::vector<std::string> errors;

  // The median over windows of each window's q-quantile.
  double LatencyMs(double q) const { return WindowMedian(latency_ms, q); }
  double LagMs(double q) const { return WindowMedian(lag_ms, q); }
  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const auto& window : latency_ms) {
      all.insert(all.end(), window.begin(), window.end());
    }
    return all;
  }

 private:
  static double WindowMedian(const std::vector<std::vector<double>>& windows,
                             double q) {
    std::vector<double> per_window;
    for (const auto& window : windows) {
      if (!window.empty()) per_window.push_back(Quantile(window, q));
    }
    return Median(per_window);
  }
};

PhaseResult RunPhase(const std::vector<Request>& schedule, ServeState* state,
                     bool cluster, Tracer* tracer) {
  std::vector<double> latency(schedule.size()), lag(schedule.size());
  std::vector<Outcome> outcomes(schedule.size());
  std::vector<char> done(schedule.size(), 0);
  PhaseResult out;
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex mu;
  double probe_before = SpeedProbeNs(5);
  int64_t base = NowNs() + 5000000;
  std::vector<Tracer> tracers(kConnections, Tracer(tracer->enabled()));
  std::vector<std::thread> workers;
  for (int c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      uint64_t frames = 0;
      while (!abort.load(std::memory_order_relaxed)) {
        size_t i = next.fetch_add(1);
        if (i >= schedule.size()) break;
        int64_t due = base + schedule[i].due_ns;
        int64_t now = NowNs();
        // Sleep to just before the due time and spin the rest: a timer
        // wake-up can be later than a whole in-process request takes.
        if (now < due - kSpinNs) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - now));
        }
        while ((now = NowNs()) < due) {
        }
        if (NsToMs(now - due) > kAbortLagMs) {
          abort.store(true);
          break;
        }
        xsq::Status status;
        {
          ScopedSpan root(&tracers[c], "gen.request", i + 1);
          status = Execute(schedule[i], &state->conns[c], *state, cluster,
                           &tracers[c], i + 1, &frames, &outcomes[i]);
        }
        int64_t end = NowNs();
        lag[i] = NsToMs(now - due);
        latency[i] = status.ok() ? NsToMs(end - due)
                                 : std::numeric_limits<double>::infinity();
        if (!status.ok()) outcomes[i] = Outcome{};
        done[i] = 1;
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          out.failed++;
          if (out.errors.size() < 4) out.errors.push_back(status.ToString());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      out.publish_frames += frames;
    });
  }
  for (std::thread& worker : workers) worker.join();
  // Probes before and after, while the system under test is idle: a
  // probe during the phase would read its own load as a slow machine.
  out.probe_ns = (probe_before + SpeedProbeNs(5)) / 2;
  for (const Tracer& t : tracers) tracer->Append(t);
  out.aborted = abort.load();
  // Only requests that ran count; an aborted phase is judged by
  // `aborted`.
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (!done[i]) continue;
    size_t window =
        static_cast<size_t>(schedule[i].due_ns / (kWindowMs * 1000000));
    if (window >= out.latency_ms.size()) {
      out.latency_ms.resize(window + 1);
      out.lag_ms.resize(window + 1);
    }
    out.latency_ms[window].push_back(latency[i]);
    out.lag_ms[window].push_back(lag[i]);
    out.attempted++;
    const Outcome& outcome = outcomes[i];
    out.source_bytes += outcome.source_bytes;
    if (outcome.doc_ns >= 0) out.doc_ms.push_back(NsToMs(outcome.doc_ns));
    if (outcome.has_item) out.first_item_ms.push_back(latency[i]);
  }
  return out;
}

// The (query, document) evaluations the daemons perform, for the
// in-process engine probes.
std::vector<Pair> EnginePairs(const ServeState& state) {
  std::vector<Pair> pairs;
  for (const ServePair& pair : state.pairs) {
    pairs.push_back(Pair{&state.inputs.queries[pair.query].text,
                         &state.inputs.docs[pair.doc].xml});
  }
  return pairs;
}

void Account(const PhaseResult& phase, RunResult* result) {
  result->attempted += phase.attempted;
  result->failed += phase.failed;
  for (const std::string& error : phase.errors) result->Fail(error);
}

// A ladder step holds when its p99 meets the latency limit and the
// backlog did not grow: no failure, the phase was not aborted, and the
// requests of its last window went out within the limit of their due
// times.
bool StepHolds(const PhaseResult& phase) {
  if (phase.aborted || phase.failed > 0 || phase.lag_ms.empty()) return false;
  return phase.LatencyMs(0.99) <= kLatencyLimitMs &&
         Quantile(phase.lag_ms.back(), 0.99) <= kLatencyLimitMs;
}

double LadderRate(int step) { return kLadderBase * std::pow(kLadderRatio, step); }

double SeriesValue(const xsq::obs::Exposition& exposition,
                   const std::string& name) {
  const xsq::obs::ExpositionSeries* series = exposition.Find(name);
  return series != nullptr ? static_cast<double>(series->value) : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The traced run's service, net, pubsub and cluster probes.
void ProbeServeLayers(const Options& options, bool cluster,
                      ServeState* state, Tracer* tracer, RunResult* result) {
  int64_t budget = static_cast<int64_t>(options.seconds) * 1000000000 / 4;
  xsq::service::QueryService* service = state->service.get();
  LineProtocol* protocol = state->protocol.get();

  // Service and line-protocol self time, in process, on the transcript
  // stack (which holds the same recorded documents).
  std::vector<double> run_cached_us, handle_us;
  uint64_t request = 1u << 30;
  int64_t deadline = NowNs() + budget / 2;
  for (int round = 0; round < 3 || NowNs() < deadline; ++round) {
    for (const ServePair& pair : state->pairs) {
      const std::string& sid = state->oracle_session_of_query[pair.query];
      const std::string& name = state->inputs.docs[pair.doc].name;
      xsq::service::SessionId id = std::strtoull(sid.c_str(), nullptr, 10);
      ++request;
      int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "service.run_cached", request);
        xsq::Status status = service->RunCached(id, name);
        service->Drain(id);
        service->FinalAggregate(id);
        if (!status.ok()) result->Fail("RunCached: " + status.ToString());
      }
      int64_t t1 = NowNs();
      {
        ScopedSpan span(tracer, "net.handle_line", request);
        Handle(protocol, "RUNCACHED " + sid + " " + name);
      }
      int64_t t2 = NowNs();
      run_cached_us.push_back(NsToUs(t1 - t0));
      handle_us.push_back(NsToUs(t2 - t1));
    }
  }
  double run_cached = Median(run_cached_us);
  double handle = Median(handle_us);
  result->Set("service.run_cached_us", run_cached, "us");
  result->Set("net.handle_us", handle - run_cached, "us");

  {
    std::vector<double> publish_us;
    for (int round = 0; round < 5; ++round) {
      for (const std::string& doc : state->inputs.publish_docs) {
        ScopedSpan span(tracer, "pubsub.publish", ++request);
        int64_t t0 = NowNs();
        auto summary = service->Publish(doc);
        publish_us.push_back(NsToUs(NowNs() - t0));
        if (!summary.ok()) result->Fail("Publish: " + summary.status().ToString());
      }
    }
    result->Set("pubsub.publish_us", Median(publish_us), "us");
    double survivors = 0;
    for (const std::string& reply : state->transcript.publish) {
      survivors += FieldValue(reply, "survivors");
    }
    result->Set("filter.survivor_ratio",
                Ratio(survivors, static_cast<double>(
                                     state->transcript.publish.size() *
                                     state->inputs.standing_queries.size())),
                "ratio");
  }

  // Direct TCP requests to the shard that owns each document (the only
  // shard on serve-mixed), and on cluster-rf2 the same request through
  // an in-process Router handler over the same shards.
  std::unique_ptr<xsq::cluster::Router> router;
  std::unique_ptr<xsq::net::ConnectionHandler> router_handler;
  std::vector<std::string> router_session_of_query;
  if (cluster) {
    xsq::cluster::RouterConfig config;
    for (const auto& shard : state->shards) {
      config.shards.push_back(xsq::cluster::ShardAddress{"127.0.0.1",
                                                         shard->port()});
    }
    config.replication.factor = 2;
    config.start_prober = false;
    auto created = xsq::cluster::Router::Create(config);
    if (!created.ok()) {
      result->Fail("router: " + created.status().ToString());
      return;
    }
    router = std::move(*created);
    router->ProbeNow();
    router_handler = router->MakeHandler();
    for (const QuerySpec& query : state->inputs.queries) {
      std::string out, id;
      router_handler->HandleLine("OPEN " + query.text, &out);
      if (!IsOpenReply(out, &id)) result->Fail("router OPEN: " + out);
      router_session_of_query.push_back(id);
    }
  }
  std::vector<Conn> direct(state->shards.size());
  for (size_t s = 0; s < state->shards.size(); ++s) {
    direct[s].channel = std::make_unique<TcpChannel>(state->shards[s]->port());
    for (const QuerySpec& query : state->inputs.queries) {
      auto reply = direct[s].channel->Request("OPEN " + query.text);
      std::string id;
      if (!reply.ok() || !IsOpenReply(*reply, &id)) {
        result->Fail("direct OPEN failed");
        return;
      }
      direct[s].session_of_query.push_back(id);
    }
  }
  std::vector<double> wire_us, hop_us;
  deadline = NowNs() + budget / 2;
  for (int round = 0; round < 3 || NowNs() < deadline; ++round) {
    for (size_t p = 0; p < state->pairs.size(); ++p) {
      const ServePair& pair = state->pairs[p];
      const std::string& name = state->inputs.docs[pair.doc].name;
      size_t owner = 0;
      if (router) owner = router->OwnerOf(name).value_or(0);
      Conn& conn = direct[owner];
      ++request;
      int64_t t0 = NowNs();
      xsq::Status status;
      {
        ScopedSpan span(tracer, "net.request", request);
        status = Expect(conn.channel.get(),
                        "RUNCACHED " + conn.session_of_query[pair.query] + " " +
                            name,
                        state->transcript.runcached[p]);
      }
      int64_t t1 = NowNs();
      if (!status.ok()) result->Fail("direct: " + status.ToString());
      wire_us.push_back(NsToUs(t1 - t0));
      if (router_handler) {
        std::string out;
        {
          ScopedSpan span(tracer, "cluster.router.handle_line", request);
          router_handler->HandleLine(
              "RUNCACHED " + router_session_of_query[pair.query] + " " + name,
              &out);
        }
        hop_us.push_back(NsToUs(NowNs() - t1));
        if (out != state->transcript.runcached[p]) {
          result->Fail("in-process router reply differs for " + name);
        }
      }
    }
  }
  double direct_us = Median(wire_us);
  result->Set("net.wire_us", direct_us - handle, "us");
  if (cluster) {
    result->Set("cluster.router_hop_us", Median(hop_us) - direct_us, "us");
  }
  router_handler.reset();
  router.reset();
}

void ReportDaemonLayers(bool cluster, ServeState* state, RunResult* result) {
  Channel* client = state->conns[0].channel.get();
  if (cluster) {
    // Replication lag: RECORD ACK until the router's queue drains.
    std::vector<double> lag_ms;
    for (size_t d = 0; d < state->inputs.docs.size(); ++d) {
      const Doc& doc = state->inputs.docs[d];
      xsq::Status status = Expect(
          client, "RECORD " + doc.name + " " + LineProtocol::Escape(doc.xml),
          state->transcript.record[d]);
      int64_t acked = NowNs();
      if (status.ok()) status = WaitReplicated(client, 5000);
      if (!status.ok()) {
        result->Fail("replication probe: " + status.ToString());
        break;
      }
      lag_ms.push_back(NsToMs(NowNs() - acked));
    }
    result->Set("cluster.repl_lag_ms", Median(lag_ms), "ms");
    auto status = client->Request("REPLSTATUS");
    if (status.ok() && status->rfind("REPL ", 0) == 0) {
      const std::string line = BlockLines(*status)[0];
      result->Set("cluster.repl_fail_ratio",
                  Ratio(FieldValue(line, "failed"), FieldValue(line, "fanouts")),
                  "ratio");
    } else {
      result->Fail("REPLSTATUS failed");
    }
  }
  auto exposition = Scrape(client, cluster);
  if (!exposition.ok()) {
    result->Fail(exposition.status().ToString());
    return;
  }
  result->Set("xsq_queue_wait_us_p99",
              FamilyQuantile(*exposition, "xsq_queue_wait_us", 0.99), "us");
  result->Set("xsq_tape_replay_us_p50",
              FamilyQuantile(*exposition, "xsq_tape_replay_us", 0.5), "us");
  double plan_hits = SeriesValue(*exposition, "xsq_plan_cache_hits");
  double doc_hits = SeriesValue(*exposition, "xsq_doc_cache_hits");
  result->Set("service.plan_cache_hit_ratio",
              Ratio(plan_hits,
                    plan_hits + SeriesValue(*exposition, "xsq_plan_cache_misses")),
              "ratio");
  result->Set("service.doc_cache_hit_ratio",
              Ratio(doc_hits,
                    doc_hits + SeriesValue(*exposition, "xsq_doc_cache_misses")),
              "ratio");
  result->Set("xsq_connections_shed",
              SeriesValue(*exposition, "xsq_connections_shed"), "count");
  if (cluster) {
    result->Set("xsq_router_backend_request_us_p99",
                FamilyQuantile(*exposition, "xsq_router_backend_request_us",
                               0.99),
                "us");
    result->Set("cluster.failover_ratio",
                Ratio(SeriesValue(*exposition, "xsq_router_failovers_total"),
                      SeriesValue(*exposition, "xsq_router_requests_total")),
                "ratio");
  }
}

}  // namespace

void RunServe(const Options& options, ServeMode mode, Tracer* tracer,
              RunResult* result) {
  bool cluster = mode == ServeMode::kCluster;
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();  // stops the previous repetition's daemons
    double probe = SpeedProbeNs(5);
    int64_t start = NowNs();
    state = std::make_unique<ServeState>();
    xsq::Status status = SetUp(options, mode, state.get());
    setup_s.push_back(ToReferenceTime(NsToMs(NowNs() - start) / 1e3, probe));
    if (!status.ok()) {
      result->Fail("set-up: " + status.ToString());
      return;
    }
  }
  Mix mix;
  if (cluster) mix.publish = 0;  // the router answers pub/sub NotSupported
  result->report["connections"] = std::to_string(kConnections);
  result->report["latency_limit_ms"] = JsonNumber(kLatencyLimitMs);
  result->report["fixed_rate_rps"] = JsonNumber(kFixedRate);
  result->report["documents"] = std::to_string(state->inputs.docs.size());
  result->report["pairs"] = std::to_string(state->pairs.size());

  int64_t budget = static_cast<int64_t>(options.seconds) * 1000000000;
  uint64_t expected_frames = 0;
  Tracer off(false);
  if (!options.trace) {
    PhaseResult fixed = RunPhase(
        MakeSchedule(options.seed * 31 + 1, kFixedRate, budget * 2 / 5, mix,
                     *state),
        state.get(), cluster, &off);
    Account(fixed, result);
    expected_frames += fixed.publish_frames;
    if (fixed.aborted) result->Fail("backlog grew at the fixed rate");
    std::vector<double> all = fixed.AllLatencies();
    result->report["req_samples"] = std::to_string(all.size());
    std::vector<double> window_p50, window_p99;
    for (const auto& window : fixed.latency_ms) {
      window_p50.push_back(Quantile(window, 0.5));
      window_p99.push_back(Quantile(window, 0.99));
    }
    result->report["window_req_ms_p50"] = JsonArray(window_p50);
    result->report["window_req_ms_p99"] = JsonArray(window_p99);
    result->report["req_ms_p99_pooled"] = JsonNumber(Quantile(all, 0.99));

    // max_rps: binary search over the fixed ladder.
    int lo = -1, hi = kLadderSteps;  // lo holds (or -1), hi fails
    int64_t step_ns = budget * 3 / 5 / kLadderSlots;
    double max_rate_bytes = 0;  // source bytes evaluated at step `lo`
    double max_rate_probe = 0;  // SpeedProbeNs around step `lo`
    std::string ladder = "[";
    while (hi - lo > 1 && result->correct) {
      int mid = (lo + hi) / 2;
      // A step that misses is run once more: the machine's stalls only
      // ever slow a step, so one miss can be a stall, two are the load.
      PhaseResult step;
      bool holds = false;
      for (int attempt = 0; attempt < 2 && !holds; ++attempt) {
        step = RunPhase(MakeSchedule(options.seed * 31 + 2 + mid + 97 * attempt,
                                     LadderRate(mid), step_ns, mix, *state),
                        state.get(), cluster, &off);
        // Failures inside a step are real failures, not just a miss.
        Account(step, result);
        expected_frames += step.publish_frames;
        holds = StepHolds(step);
      }
      ladder += std::string(ladder.size() > 1 ? "," : "") + "{\"rps\":" +
                JsonNumber(LadderRate(mid)) + ",\"p99_ms\":" +
                JsonNumber(step.LatencyMs(0.99)) + ",\"probe_us\":" +
                JsonNumber(step.probe_ns / 1e3) + ",\"holds\":" +
                (holds ? "true" : "false") + "}";
      (holds ? lo : hi) = mid;
      if (holds) {
        max_rate_bytes = step.source_bytes;
        max_rate_probe = step.probe_ns;
      }
    }
    result->report["ladder"] = ladder + "]";
    if (lo < 0) result->Fail("no ladder rate met the latency limit");

    double probe = fixed.probe_ns;
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("req_ms_p50", ToReferenceTime(fixed.LatencyMs(0.5), probe), "ms");
    result->Set("req_ms_p99", ToReferenceTime(fixed.LatencyMs(0.99), probe),
                "ms");
    result->Set("max_rps",
                lo >= 0 ? ToReferenceRate(LadderRate(lo), max_rate_probe) : 0,
                "1/s");
    result->Set("throughput_mb_s",
                ToReferenceRate(max_rate_bytes / 1e6 / (step_ns / 1e9),
                                max_rate_probe),
                "MB/s");
    // Streamed sessions are the parse path's documents; an item-bearing
    // RUNCACHED reply is when a caller sees its first item.
    result->Set("doc_ms_p50",
                ToReferenceTime(Quantile(fixed.doc_ms, 0.5), probe), "ms");
    result->Set("doc_ms_p99",
                ToReferenceTime(Quantile(fixed.doc_ms, 0.99), probe), "ms");
    result->Set("first_item_ms_p50",
                ToReferenceTime(Median(fixed.first_item_ms), probe), "ms");
    result->report["fixed_rate_probe_us"] = JsonNumber(probe / 1e3);
    result->report["raw_req_ms_p50"] = JsonNumber(fixed.LatencyMs(0.5));
    result->report["raw_req_ms_p99"] = JsonNumber(fixed.LatencyMs(0.99));
    result->Set("peak_buffer_kb", PeakBufferBytes(EnginePairs(*state)) / 1024.0,
                "KiB");
    result->report["doc_samples"] = std::to_string(fixed.doc_ms.size());
    result->report["first_item_samples"] =
        std::to_string(fixed.first_item_ms.size());
    // In process, the server is part of perfbench.
    double rss_kb = state->served ? PeakRssKb(getpid()) : 0;
    for (const auto& shard : state->shards) rss_kb += PeakRssKb(shard->pid());
    if (state->router) rss_kb += PeakRssKb(state->router->pid());
    result->Set("server_rss_mb", rss_kb / 1024.0, "MB");
  } else {
    PhaseResult plain = RunPhase(
        MakeSchedule(options.seed * 31 + 1, kFixedRate, budget / 4, mix,
                     *state),
        state.get(), cluster, &off);
    PhaseResult traced = RunPhase(
        MakeSchedule(options.seed * 31 + 1, kFixedRate, budget / 4, mix,
                     *state),
        state.get(), cluster, tracer);
    Account(plain, result);
    Account(traced, result);
    expected_frames += plain.publish_frames + traced.publish_frames;
    double p50 = ToReferenceTime(plain.LatencyMs(0.5), plain.probe_ns);
    double traced_p50 = ToReferenceTime(traced.LatencyMs(0.5), traced.probe_ns);
    result->Set("trace.overhead_pct", p50 > 0 ? (traced_p50 - p50) / p50 * 100 : 0,
                "%");
    result->report["req_ms_p50_untraced"] = JsonNumber(p50);
    result->report["req_ms_p50_traced"] = JsonNumber(traced_p50);
    result->Set("gen.lag_ms_p99", plain.LagMs(0.99), "ms");

    std::vector<const std::string*> docs;
    for (const Doc& doc : state->inputs.docs) docs.push_back(&doc.xml);
    std::vector<std::string> queries;
    for (const QuerySpec& query : state->inputs.queries) {
      queries.push_back(query.text);
    }
    ProbeEngineLayers(docs, queries, EnginePairs(*state), budget / 8, tracer,
                      result);
    // The wire, daemon and cluster layers need daemons. In process, they
    // are probed on a cluster-rf2 set-up under a short fixed-rate load.
    ServeState* daemons = state.get();
    std::unique_ptr<ServeState> cluster_state;
    if (mode == ServeMode::kInProcess) {
      cluster_state = std::make_unique<ServeState>();
      xsq::Status status =
          SetUp(options, ServeMode::kCluster, cluster_state.get());
      if (!status.ok()) {
        result->Fail("cluster set-up: " + status.ToString());
        return;
      }
      Mix cluster_mix = mix;
      cluster_mix.publish = 0;
      Account(RunPhase(MakeSchedule(options.seed * 31 + 3, kFixedRate,
                                    budget / 8, cluster_mix, *cluster_state),
                       cluster_state.get(), true, &off),
              result);
      daemons = cluster_state.get();
    }
    bool daemons_cluster = daemons->router != nullptr;
    ProbeServeLayers(options, daemons_cluster, daemons, tracer, result);
    ReportDaemonLayers(daemons_cluster, daemons, result);
  }

  if (!cluster) {
    // Every EVENT frame the publishes enqueued must reach the subscriber.
    int64_t deadline = NowNs() + 5000000000;
    while (state->SubscriberFrames() < expected_frames && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    result->report["event_frames"] = std::to_string(state->SubscriberFrames());
    if (state->SubscriberFrames() != expected_frames) {
      result->Fail("subscriber received " +
                   std::to_string(state->SubscriberFrames()) +
                   " EVENT frames, publishes enqueued " +
                   std::to_string(expected_frames));
    }
  }
}

}  // namespace perfbench
