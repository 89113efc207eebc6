#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <shared_mutex>

#include "common/framing.h"
#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/stats_bridge.h"
#include "obs/trace.h"
#include "service/report.h"
#include "service/request_codec.h"

namespace deltarepair {

namespace {

Status MakeListenSocket(int port, int* fd_out, int* port_out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("server: socket() failed: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal(
        StrFormat("server: cannot bind port %d: %s", port, err.c_str()));
  }
  if (::listen(fd, 128) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal(
        StrFormat("server: listen() failed: %s", err.c_str()));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal(
        StrFormat("server: getsockname() failed: %s", err.c_str()));
  }
  *fd_out = fd;
  *port_out = static_cast<int>(ntohs(bound.sin_port));
  return Status::OK();
}

void WriteError(int fd, const Status& status) {
  // Best-effort: the peer may already be gone.
  (void)WriteFrame(fd, FrameType::kError, EncodeErrorPayload(status));
}

// Per-type serving metrics; the label space is the fixed request-type
// set, so handles are cached per call-site static.
Counter* RequestsTotal(const char* type) {
  return MetricsRegistry::Global().GetCounter(
      "drepair_server_requests_total", "Requests handled by type", "type",
      type);
}

Histogram* RequestSeconds(const char* type) {
  return MetricsRegistry::Global().GetHistogram(
      "drepair_server_request_seconds",
      "Request latency from dequeue to response written", "type", type);
}

}  // namespace

StatusOr<std::unique_ptr<RepairServer>> RepairServer::Start(
    std::unique_ptr<PersistentStore> store, Program program,
    ServerOptions options) {
  if (store == nullptr) {
    return Status::InvalidArgument("server: null store");
  }
  if (options.workers < 1 || options.workers > 256) {
    return Status::InvalidArgument("server: workers must be in [1, 256]");
  }
  auto server = std::unique_ptr<RepairServer>(new RepairServer());
  server->options_ = options;
  server->store_ = std::move(store);
  server->flight_ = std::make_unique<FlightRecorder>(
      options.flight_capacity, options.slow_request_seconds);
  StatusOr<RepairEngine> engine =
      RepairEngine::Create(&server->store_->db(), program);
  if (!engine.ok()) return engine.status();
  server->engine_ =
      std::make_unique<RepairEngine>(std::move(engine).value());
  if (options.incremental) {
    IncrementalEngineOptions inc_options;
    inc_options.cold_fallback_fraction = options.cold_fallback_fraction;
    StatusOr<std::unique_ptr<IncrementalEngine>> inc =
        IncrementalEngine::Create(&server->store_->db(), std::move(program),
                                  inc_options);
    if (!inc.ok()) return inc.status();
    server->inc_engine_ = std::move(inc).value();
  }
  DR_RETURN_IF_ERROR(MakeListenSocket(options.port, &server->listen_fd_,
                                      &server->port_));
  server->accept_thread_ = std::thread(&RepairServer::AcceptLoop,
                                       server.get());
  server->workers_.reserve(static_cast<size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w) {
    server->workers_.emplace_back(&RepairServer::WorkerLoop, server.get());
  }
  return server;
}

RepairServer::~RepairServer() { Drain(); }

void RepairServer::Drain() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_) {
      // A second caller just waits for the first drain to finish via the
      // joins below being no-ops once threads are gone.
    }
    draining_ = true;
  }
  queue_cv_.notify_all();
  if (listen_fd_ >= 0) {
    // Unblocks the accept thread.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void RepairServer::Stop() {
  stopped_.store(true, std::memory_order_relaxed);
  cancel_.Cancel();
  Drain();
}

void RepairServer::Bump(uint64_t Stats::*field) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  counters_.*field += 1;
}

void RepairServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Shutdown/close of the listening socket lands here.
      return;
    }
    Bump(&Stats::accepted);
    bool reject_draining = false, reject_full = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (draining_) {
        reject_draining = true;
      } else if (queue_.size() >= options_.max_queue) {
        reject_full = true;
      } else {
        queue_.push_back(PendingConn{fd, Trace::NowNs()});
      }
    }
    if (reject_draining) {
      WriteError(fd, Status::FailedPrecondition("server is draining"));
      ::close(fd);
      continue;
    }
    if (reject_full) {
      Bump(&Stats::rejected_overload);
      static Counter* rejected = MetricsRegistry::Global().GetCounter(
          "drepair_server_rejected_overload_total",
          "Connections rejected because the accept queue was full");
      rejected->Inc();
      Log::Event(LogLevel::kWarn, 0,
                 "rejected connection: %zu queued at capacity",
                 options_.max_queue);
      WriteError(fd, Status::ResourceExhausted(StrFormat(
                         "server overloaded: %zu connections queued",
                         options_.max_queue)));
      ::close(fd);
      continue;
    }
    queue_cv_.notify_one();
  }
}

void RepairServer::WorkerLoop() {
  for (;;) {
    PendingConn conn{-1, 0};
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and dry
      conn = queue_.front();
      queue_.pop_front();
    }
    // Count before answering: a client that has its response in hand
    // must already see itself in the served counter.
    Bump(&Stats::served);
    ServeConnection(conn.fd, conn.enqueue_ns, Trace::NowNs());
    ::close(conn.fd);
  }
}

void RepairServer::ServeConnection(int fd, uint64_t enqueue_ns,
                                   uint64_t dequeue_ns) {
  const double queue_wait =
      static_cast<double>(dequeue_ns - enqueue_ns) * 1e-9;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.queue_wait_seconds += queue_wait;
  }
  static Histogram* queue_wait_hist =
      MetricsRegistry::Global().GetHistogram(
          "drepair_server_queue_wait_seconds",
          "Seconds a served connection waited in the accept queue");
  queue_wait_hist->Observe(queue_wait);
  WallTimer timer;

  Frame frame;
  Status st = ReadFrame(fd, &frame);
  if (!st.ok()) {
    Bump(&Stats::request_errors);
    if (st.code() != StatusCode::kNotFound) {
      Log::Event(LogLevel::kWarn, 0, "bad frame: %s",
                 st.message().c_str());
      WriteError(fd, st);
    }
    return;
  }

  // The queue wait happened on the accept thread, so it cannot be a
  // worker-side RAII span; it is injected with the request's trace id
  // once that is known (lambda below), or with none for control frames.
  auto emit_queue_wait = [&](uint64_t trace_id) {
    Trace::Emit("server.queue_wait", enqueue_ns, dequeue_ns, trace_id);
  };

  // Shape the request's budget: default when unset, clamp to the
  // server's maximum, and wire in the server-wide cancel token so a
  // hard Stop() unwinds in-flight runs.
  auto shape_options = [this](RepairOptions* o) {
    if (o->budget_seconds <= 0) {
      o->budget_seconds = options_.default_budget_seconds;
    }
    if (options_.max_budget_seconds > 0 &&
        (o->budget_seconds <= 0 ||
         o->budget_seconds > options_.max_budget_seconds)) {
      o->budget_seconds = options_.max_budget_seconds;
    }
    o->cancel = &cancel_;
  };

  switch (frame.type) {
    case FrameType::kPingRequest: {
      emit_queue_wait(0);
      (void)WriteFrame(fd, FrameType::kJson, "{\"ok\":true}");
      RequestsTotal("ping")->Inc();
      return;
    }
    case FrameType::kRepairRequest: {
      Bump(&Stats::repair_requests);
      RepairRequest request;
      st = DecodeRepairRequest(frame.payload, &request);
      if (!st.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, 0, "repair decode failed: %s",
                   st.message().c_str());
        WriteError(fd, st);
        return;
      }
      // Client-sent ids are echoed in the response; requests arriving
      // without one still get a server-assigned id so their spans form
      // one collectable tree.
      const uint64_t client_trace_id = request.trace_id;
      const uint64_t trace_id =
          client_trace_id != 0 ? client_trace_id : Trace::NewTraceId();
      TraceIdScope trace_scope(trace_id);
      emit_queue_wait(trace_id);
      Span req_span("server.request");
      req_span.SetArg("repair", 1);
      shape_options(&request.options);
      RepairOutcome outcome;
      {
        Span exec_span("server.execute");
        if (request.apply) {
          // Applying mutates the instance: run and persist the deletions
          // under the exclusive lock so no reader sees a half-applied
          // repair and the WAL records it durably.
          std::unique_lock<std::shared_mutex> lock(store_->mutex());
          outcome = engine_->ExecuteOnSnapshot(request);
          if (outcome.ok()) {
            std::map<uint32_t, std::vector<Tuple>> by_relation;
            for (const TupleId& t : outcome.result.deleted) {
              by_relation[t.relation].push_back(store_->db().tuple(t));
            }
            for (auto& [rel, tuples] : by_relation) {
              st = store_->ApplyDelete(rel, tuples);
              if (!st.ok()) break;
            }
            if (!st.ok()) {
              Bump(&Stats::request_errors);
              Log::Event(LogLevel::kError, trace_id,
                         "repair apply failed: %s", st.message().c_str());
              WriteError(fd, st);
              return;
            }
          }
        } else if (inc_engine_ != nullptr) {
          // Warm path: the engine advances its cached grounding/solver/
          // fixpoint state by the realized delta and answers from it
          // (with an internal cold fallback when nothing warm applies).
          std::shared_lock<std::shared_mutex> lock(store_->mutex());
          outcome = inc_engine_->ExecuteRepair(request);
        } else {
          std::shared_lock<std::shared_mutex> lock(store_->mutex());
          outcome = engine_->ExecuteOnSnapshot(request);
        }
      }
      if (!outcome.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, trace_id, "repair failed: %s",
                   outcome.status.message().c_str());
        WriteError(fd, outcome.status);
        return;
      }
      JsonWriter json;
      {
        Span encode_span("server.encode");
        std::shared_lock<std::shared_mutex> lock(store_->mutex());
        WriteOutcomeJson(json, store_->db(), outcome, request.apply,
                         client_trace_id);
      }
      (void)WriteFrame(fd, FrameType::kJson, json.str());
      AddRepairStatsToMetrics(outcome.result.stats);
      RequestsTotal("repair")->Inc();
      const double seconds = timer.ElapsedSeconds();
      RequestSeconds("repair")->Observe(seconds);
      flight_->MaybeRecord(trace_id, "repair", seconds);
      Log::Event(LogLevel::kInfo, trace_id,
                 "repair served semantics=%s deleted=%llu in %.3fs",
                 request.semantics.c_str(),
                 static_cast<unsigned long long>(outcome.result.size()),
                 seconds);
      return;
    }
    case FrameType::kCqaRequest: {
      Bump(&Stats::cqa_requests);
      CqaRequest request;
      st = DecodeCqaRequest(frame.payload, &request);
      if (!st.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, 0, "cqa decode failed: %s",
                   st.message().c_str());
        WriteError(fd, st);
        return;
      }
      const uint64_t client_trace_id = request.trace_id;
      const uint64_t trace_id =
          client_trace_id != 0 ? client_trace_id : Trace::NewTraceId();
      TraceIdScope trace_scope(trace_id);
      emit_queue_wait(trace_id);
      Span req_span("server.request");
      req_span.SetArg("cqa", 1);
      shape_options(&request.options);
      CqaResult result;
      {
        Span exec_span("server.execute");
        std::shared_lock<std::shared_mutex> lock(store_->mutex());
        result = inc_engine_ != nullptr
                     ? inc_engine_->ExecuteCqa(request)
                     : AnswerQueryOnSnapshot(engine_.get(), request);
      }
      if (!result.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, trace_id, "cqa failed: %s",
                   result.status.message().c_str());
        WriteError(fd, result.status);
        return;
      }
      JsonWriter json;
      {
        Span encode_span("server.encode");
        std::shared_lock<std::shared_mutex> lock(store_->mutex());
        WriteCqaResultJson(json, store_->db(), result, client_trace_id);
      }
      (void)WriteFrame(fd, FrameType::kJson, json.str());
      AddCqaStatsToMetrics(result.stats);
      RequestsTotal("cqa")->Inc();
      const double seconds = timer.ElapsedSeconds();
      RequestSeconds("cqa")->Observe(seconds);
      flight_->MaybeRecord(trace_id, "cqa", seconds);
      Log::Event(LogLevel::kInfo, trace_id,
                 "cqa served answers=%zu certain=%llu in %.3fs",
                 result.answers.size(),
                 static_cast<unsigned long long>(
                     result.stats.certain_answers),
                 seconds);
      return;
    }
    case FrameType::kUpdateRequest: {
      Bump(&Stats::update_requests);
      UpdateRequest request;
      st = DecodeUpdateRequest(frame.payload, &request);
      if (!st.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, 0, "update decode failed: %s",
                   st.message().c_str());
        WriteError(fd, st);
        return;
      }
      emit_queue_wait(0);
      Span req_span("server.request");
      req_span.SetArg("update", 1);
      size_t total_live = 0;
      {
        Span exec_span("server.execute");
        std::unique_lock<std::shared_mutex> lock(store_->mutex());
        int rel = store_->db().RelationIndex(request.relation);
        if (rel < 0) {
          st = Status::NotFound(
              StrFormat("unknown relation '%s'", request.relation.c_str()));
        } else if (request.op == WalOp::kInsert) {
          st = store_->ApplyInsert(static_cast<uint32_t>(rel),
                                   request.tuples);
        } else {
          st = store_->ApplyDelete(static_cast<uint32_t>(rel),
                                   request.tuples);
        }
        total_live = store_->db().TotalLive();
      }
      if (!st.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, 0, "update failed: %s",
                   st.message().c_str());
        WriteError(fd, st);
        return;
      }
      JsonWriter json;
      json.BeginObject();
      json.Field("ok", true);
      json.Field("op",
                 request.op == WalOp::kInsert ? "insert" : "delete");
      json.Field("tuples", static_cast<uint64_t>(request.tuples.size()));
      json.Field("total_live", static_cast<uint64_t>(total_live));
      json.EndObject();
      (void)WriteFrame(fd, FrameType::kJson, json.str());
      RequestsTotal("update")->Inc();
      RequestSeconds("update")->Observe(timer.ElapsedSeconds());
      Log::Event(LogLevel::kInfo, 0, "update %s %s tuples=%zu live=%zu",
                 request.op == WalOp::kInsert ? "insert" : "delete",
                 request.relation.c_str(), request.tuples.size(),
                 total_live);
      return;
    }
    case FrameType::kCompactRequest: {
      emit_queue_wait(0);
      Span req_span("server.request");
      req_span.SetArg("compact", 1);
      {
        std::unique_lock<std::shared_mutex> lock(store_->mutex());
        st = store_->Compact();
      }
      if (!st.ok()) {
        Bump(&Stats::request_errors);
        Log::Event(LogLevel::kWarn, 0, "compaction failed: %s",
                   st.message().c_str());
        WriteError(fd, st);
        return;
      }
      Bump(&Stats::compactions);
      RequestsTotal("compact")->Inc();
      Log::Event(LogLevel::kInfo, 0, "compacted WAL into snapshot");
      (void)WriteFrame(fd, FrameType::kJson,
                       "{\"ok\":true,\"wal_reset\":true}");
      return;
    }
    case FrameType::kStatsRequest: {
      emit_queue_wait(0);
      (void)WriteFrame(fd, FrameType::kJson, HandleStats());
      RequestsTotal("stats")->Inc();
      return;
    }
    case FrameType::kSchemaRequest: {
      emit_queue_wait(0);
      (void)WriteFrame(fd, FrameType::kJson, HandleSchema());
      RequestsTotal("schema")->Inc();
      return;
    }
    case FrameType::kMetricsRequest: {
      Bump(&Stats::metrics_requests);
      emit_queue_wait(0);
      (void)WriteFrame(fd, FrameType::kText,
                       MetricsRegistry::Global().PrometheusText());
      RequestsTotal("metrics")->Inc();
      return;
    }
    case FrameType::kTraceRequest: {
      Bump(&Stats::trace_requests);
      emit_queue_wait(0);
      TraceLoss loss;
      std::vector<TraceEvent> events = Trace::Collect(&loss);
      (void)WriteFrame(fd, FrameType::kJson, Trace::ChromeJson(events, loss));
      RequestsTotal("trace")->Inc();
      return;
    }
    case FrameType::kJson:
    case FrameType::kText:
    case FrameType::kError: {
      Bump(&Stats::request_errors);
      WriteError(fd, Status::InvalidArgument(
                         "response frame type in a request"));
      return;
    }
  }
}

std::string RepairServer::HandleSchema() {
  JsonWriter json;
  json.BeginObject();
  std::shared_lock<std::shared_mutex> lock(store_->mutex());
  json.Key("relations");
  json.BeginArray();
  for (uint32_t i = 0; i < store_->db().num_relations(); ++i) {
    const RelationSchema& schema = store_->db().relation(i).schema();
    json.BeginObject();
    json.Field("name", schema.name());
    json.Field("arity", static_cast<uint64_t>(schema.arity()));
    json.Key("attributes");
    json.BeginArray();
    for (const Attribute& a : schema.attributes()) json.String(a.name);
    json.EndArray();
    // One declared-type code per attribute: i=int s=string n=null.
    std::string types;
    types.reserve(schema.arity());
    for (const Attribute& a : schema.attributes()) {
      types.push_back(a.type == ValueType::kInt      ? 'i'
                      : a.type == ValueType::kString ? 's'
                                                     : 'n');
    }
    json.Field("types", types);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string RepairServer::HandleStats() {
  const Stats s = stats();
  JsonWriter json;
  json.BeginObject();
  json.Field("accepted", s.accepted);
  json.Field("served", s.served);
  json.Field("repair_requests", s.repair_requests);
  json.Field("cqa_requests", s.cqa_requests);
  json.Field("update_requests", s.update_requests);
  json.Field("metrics_requests", s.metrics_requests);
  json.Field("trace_requests", s.trace_requests);
  json.Field("rejected_overload", s.rejected_overload);
  json.Field("request_errors", s.request_errors);
  json.Field("compactions", s.compactions);
  json.Field("queue_wait_seconds_total", s.queue_wait_seconds);
  json.Field("workers", static_cast<int64_t>(options_.workers));
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    json.Field("queued", static_cast<uint64_t>(queue_.size()));
    json.Field("draining", draining_);
  }
  {
    std::shared_lock<std::shared_mutex> lock(store_->mutex());
    json.Field("relations",
               static_cast<uint64_t>(store_->db().num_relations()));
    json.Field("total_live",
               static_cast<uint64_t>(store_->db().TotalLive()));
    json.Field("total_rows",
               static_cast<uint64_t>(store_->db().TotalRows()));
    json.Field("updates_applied", store_->updates_applied());
    json.Field("instance_version", store_->db().version());
    json.Field("recovered_wal_records",
               static_cast<uint64_t>(store_->recovery_stats()
                                         .records_applied));
    json.Field("recovered_wal_batches",
               static_cast<uint64_t>(store_->recovery_stats()
                                         .batches_applied));
    json.Field("recovered_wal_bytes_dropped",
               static_cast<uint64_t>(store_->recovery_stats()
                                         .bytes_dropped));
  }
  json.Field("incremental", inc_engine_ != nullptr);
  if (inc_engine_ != nullptr) {
    const IncrementalEngine::Stats inc = inc_engine_->stats();
    json.Field("warm_version", inc_engine_->warm_version());
    json.Field("inc_syncs", inc.syncs);
    json.Field("inc_noop_syncs", inc.noop_syncs);
    json.Field("inc_incremental_syncs", inc.incremental_syncs);
    json.Field("inc_cold_rebuilds", inc.cold_rebuilds);
    json.Field("inc_incremental_repairs", inc.incremental_repairs);
    json.Field("inc_reused_repair_results", inc.reused_repair_results);
    json.Field("inc_cold_repairs", inc.cold_repairs);
    json.Field("inc_warm_cqa", inc.warm_cqa);
    json.Field("inc_cold_cqa", inc.cold_cqa);
  }
  json.Field("flight_threshold_seconds", flight_->threshold_seconds());
  json.Key("flight");
  flight_->WriteJson(json);
  json.EndObject();
  return json.str();
}

IncrementalEngine::Stats RepairServer::incremental_stats() const {
  return inc_engine_ != nullptr ? inc_engine_->stats()
                                : IncrementalEngine::Stats{};
}

RepairServer::Stats RepairServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return counters_;
}

}  // namespace deltarepair
