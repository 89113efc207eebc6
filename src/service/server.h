// drepair server: a long-lived serving loop over a PersistentStore and a
// resolved delta program. Speaks the length-prefixed frame protocol of
// common/framing.h on localhost TCP — one request frame per connection,
// one response frame back (kJson on success, kError with a typed Status
// otherwise).
//
//   kRepairRequest  -> the same JSON object the batch CLI emits per
//   kCqaRequest        result in --json mode (service/report.h)
//   kUpdateRequest  -> WAL-logged insert/delete batch + ack JSON
//   kCompactRequest -> fold the WAL into a fresh snapshot + ack JSON
//   kStatsRequest   -> serving/store counters as JSON
//   kPingRequest    -> liveness ack
//   kMetricsRequest -> Prometheus text exposition (kText response)
//   kTraceRequest   -> Chrome trace_event JSON of the span rings
//
// Observability: every repair/CQA request runs under a trace id —
// the one the client sent (echoed back in the response JSON) or a
// server-assigned one — so its spans (queue wait, decode, execute,
// encode, plus everything the engine records underneath) can be pulled
// out of the rings as one tree. Requests slower than
// ServerOptions.slow_request_seconds are retained in a flight recorder
// dumped through the stats frame.
//
// Concurrency: an accept thread feeds a bounded connection queue drained
// by a worker pool. Repair/CQA requests execute on per-request snapshot
// views under a shared lock; updates and compaction take the lock
// exclusively, so readers never observe a half-applied batch. When the
// queue is full the accept thread answers kError/ResourceExhausted
// immediately (admission control) instead of letting latency collapse.
//
// Budgets: a request's own budget_seconds is clamped to
// ServerOptions.max_budget_seconds, and defaulted to
// default_budget_seconds when unset; the server's CancelToken is wired
// into every run so Stop() cancels in-flight work (the anytime contract
// still yields a stabilizing set / conservative verdicts).
//
// Shutdown: Drain() stops accepting, serves everything already queued,
// and joins (SIGTERM path); Stop() additionally fires the cancel token.
#ifndef DELTAREPAIR_SERVICE_SERVER_H_
#define DELTAREPAIR_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datalog/ast.h"
#include "obs/flight_recorder.h"
#include "repair/repair_engine.h"
#include "service/incremental_engine.h"
#include "service/store.h"

namespace deltarepair {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Connection-handling worker threads.
  int workers = 4;
  /// Pending connections admitted beyond the ones being served; a full
  /// queue answers ResourceExhausted immediately.
  size_t max_queue = 64;
  /// Budget applied to requests that carry none (0 = unlimited).
  double default_budget_seconds = 0;
  /// Upper clamp on any request's budget (0 = no clamp).
  double max_budget_seconds = 0;
  /// Serve read-only repair/CQA requests from warm delta-aware engine
  /// state (service/incremental_engine.h) instead of re-grounding per
  /// request. Correctness is identical: the engine cold-falls-back on
  /// anything it cannot prove unchanged.
  bool incremental = true;
  /// Delta fraction above which the warm engine re-snapshots its view
  /// and drops its cached results instead of maintaining the end
  /// fixpoint by delete-rederive (IncrementalEngineOptions).
  double cold_fallback_fraction = 0.25;
  /// Requests slower than this are retained in the flight recorder
  /// (span tree by trace id, dumped via the stats frame); <= 0 disables
  /// it. Only useful with tracing enabled.
  double slow_request_seconds = 0;
  /// How many slow requests the flight recorder keeps (oldest evicted).
  size_t flight_capacity = 8;
};

class RepairServer {
 public:
  /// Takes ownership of the recovered store, resolves `program` against
  /// its database, binds the listening socket, and starts the accept
  /// thread + worker pool.
  static StatusOr<std::unique_ptr<RepairServer>> Start(
      std::unique_ptr<PersistentStore> store, Program program,
      ServerOptions options = {});

  ~RepairServer();
  RepairServer(const RepairServer&) = delete;
  RepairServer& operator=(const RepairServer&) = delete;

  /// The bound port (resolves option port 0).
  int port() const { return port_; }

  /// Graceful shutdown: stop accepting, serve the queue dry, join.
  /// Idempotent.
  void Drain();

  /// Hard shutdown: Drain plus cancelling in-flight runs first.
  void Stop();

  struct Stats {
    uint64_t accepted = 0;
    uint64_t served = 0;
    uint64_t repair_requests = 0;
    uint64_t cqa_requests = 0;
    uint64_t update_requests = 0;
    uint64_t metrics_requests = 0;
    uint64_t trace_requests = 0;
    uint64_t rejected_overload = 0;
    uint64_t request_errors = 0;
    uint64_t compactions = 0;
    /// Total seconds served connections spent in the accept queue.
    double queue_wait_seconds = 0;
  };
  /// Coherent snapshot: all counters are read under one lock, so the
  /// fields are mutually consistent (served never exceeds accepted in
  /// one snapshot, etc.).
  Stats stats() const;

  PersistentStore& store() { return *store_; }

  /// Warm-engine counters (zeros when ServerOptions.incremental is off).
  IncrementalEngine::Stats incremental_stats() const;

 private:
  RepairServer() = default;

  void AcceptLoop();
  void WorkerLoop();
  /// Serves one connection: one request frame in, one response out.
  /// The enqueue/dequeue timestamps (Trace::NowNs clock) bound the
  /// connection's queue wait.
  void ServeConnection(int fd, uint64_t enqueue_ns, uint64_t dequeue_ns);
  std::string HandleStats();
  std::string HandleSchema();
  /// One locked increment of a Stats counter.
  void Bump(uint64_t Stats::*field);

  ServerOptions options_;
  std::unique_ptr<PersistentStore> store_;
  std::unique_ptr<RepairEngine> engine_;
  /// Warm serving state (null when options_.incremental is off). Readers
  /// call it under the store's shared lock; the engine serializes its own
  /// state internally (lock order: store mutex, then engine mutex).
  std::unique_ptr<IncrementalEngine> inc_engine_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// One admitted connection waiting for a worker; the enqueue
  /// timestamp feeds the queue-wait span and counters.
  struct PendingConn {
    int fd;
    uint64_t enqueue_ns;
  };

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingConn> queue_;
  bool draining_ = false;

  CancelToken cancel_;
  std::atomic<bool> stopped_{false};

  /// Serving counters, mutated and snapshotted under one mutex so
  /// stats() is coherent. Increments are rare next to request work.
  mutable std::mutex stats_mu_;
  Stats counters_;

  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_SERVICE_SERVER_H_
