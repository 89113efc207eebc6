// Low-overhead in-process tracing: RAII spans feeding lock-free
// per-thread ring buffers, exported as Chrome trace_event JSON.
//
// Cost model. Every instrumented call site constructs a Span on the
// stack; when tracing is globally off (the default) the constructor is
// one relaxed atomic load and a branch — no clock read, no allocation,
// no TLS write — so instrumentation can stay in hot paths permanently
// (the bench gate in bench_micro_engine holds this to <= 2% of the
// grounder+fixpoint loop). When tracing is on, finishing a span writes
// one fixed-size record into the current thread's ring buffer under a
// per-slot seqlock: no locks, no allocation after the buffer's one-time
// setup, wait-free for the recording thread. Collection (trace dump,
// flight recorder) walks every registered ring and keeps the slots
// whose seqlock was stable — a torn slot is dropped, never blocked on.
// Collection also counts what it could not return (TraceLoss): spans a
// wrapped ring overwrote, and torn slots.
//
// Span names and argument keys must be string literals (or otherwise
// have static storage duration): records keep the pointer, not a copy.
//
// Trace ids. A thread has a current trace id (0 = none) installed by
// TraceIdScope; spans inherit it, and Collect(trace_id) filters on it —
// this is how one server request's spans are picked out of the shared
// rings. Cross-thread propagation is by value: capture CurrentTraceId()
// before spawning workers and re-install it in each (the CQA and batch
// worker pools do this). Sampling composes with the
// id: TraceIdScope suppresses recording when its id fails
// SampleTraceId(), so a server can trace 1-in-N requests.
//
// Compile-out: building with -DDR_NO_TRACING turns Span into an empty
// shell (and the DR_* macros into nothing) for deployments that want
// even the disabled-mode branch gone.
#ifndef DELTAREPAIR_OBS_TRACE_H_
#define DELTAREPAIR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace deltarepair {

class JsonWriter;

/// Numeric arguments a span can carry.
constexpr int kMaxSpanArgs = 8;

/// One completed span as read back out of the rings. `name` and
/// `arg_keys` point at static-storage strings.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;  // relative to the process trace epoch
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;  // 0 = recorded outside any TraceIdScope
  uint32_t tid = 0;       // small sequential id of the recording thread
  uint32_t depth = 0;     // span-stack depth at the recording site
  const char* arg_keys[kMaxSpanArgs] = {};
  uint64_t arg_vals[kMaxSpanArgs] = {};
};

/// Spans one collection could not return: those a wrapped ring
/// overwrote before it (head - capacity per ring), and slots torn by a
/// concurrent write.
struct TraceLoss {
  uint64_t overwritten = 0;
  uint64_t torn = 0;
};

namespace trace_internal {
extern std::atomic<bool> g_enabled;
inline bool Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}
}  // namespace trace_internal

/// Process-wide tracing control and collection surface. All static;
/// every method is thread-safe.
class Trace {
 public:
  /// Master switch. Off by default; spans recorded while off cost one
  /// relaxed load. Turning it off does not clear already-recorded data.
  static void Enable(bool on);
  static bool enabled() { return trace_internal::Enabled(); }

  /// Ring capacity in slots per thread (rounded up to a power of two,
  /// minimum 8). Applies to buffers created after the call; the
  /// default is 4096 (~700KB per recording thread).
  static void SetRingCapacity(size_t slots);

  /// Request sampling: TraceIdScope records only ids with
  /// id % period == 0 (period <= 1 records everything). Spans outside
  /// any scope are always recorded while tracing is on.
  static void SetSamplePeriod(uint64_t period);
  static uint64_t sample_period();
  static bool SampleTraceId(uint64_t id);

  /// Process-unique nonzero ids for requests that arrive without one.
  static uint64_t NewTraceId();
  /// The current thread's trace id (0 outside any TraceIdScope).
  static uint64_t CurrentTraceId();

  /// Nanoseconds since the process trace epoch (steady clock).
  static uint64_t NowNs();

  /// Manually injects a completed span — for durations measured across
  /// threads, where RAII can't hold the interval (e.g. the server's
  /// accept-to-dequeue queue wait). Only records while enabled.
  static void Emit(const char* name, uint64_t start_ns, uint64_t end_ns,
                   uint64_t trace_id);

  /// Snapshot of every stable recorded span, oldest first; `loss`
  /// (nullable) receives what the rings lost. The filtered overload
  /// keeps only one trace id's spans.
  static std::vector<TraceEvent> Collect();
  static std::vector<TraceEvent> Collect(TraceLoss* loss);
  static std::vector<TraceEvent> CollectTrace(uint64_t trace_id);

  /// Drops all recorded spans (rings stay registered).
  static void Clear();

  /// Chrome trace_event JSON ({"traceEvents":[...]}; load via
  /// chrome://tracing or https://ui.perfetto.dev). The top-level
  /// "otherData" object carries `loss` as overwritten_spans and
  /// torn_spans.
  static void WriteChromeJson(JsonWriter& json,
                              const std::vector<TraceEvent>& events,
                              const TraceLoss& loss = {});
  static std::string ChromeJson(const std::vector<TraceEvent>& events,
                                const TraceLoss& loss = {});
};

/// Installs `id` as the current thread's trace id for the scope's
/// lifetime (restoring the previous id on exit) and applies the
/// sampling verdict: spans inside a scope whose id fails
/// Trace::SampleTraceId are not recorded.
class TraceIdScope {
 public:
  explicit TraceIdScope(uint64_t id);
  ~TraceIdScope();
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  uint64_t saved_id_;
  bool saved_suppressed_;
};

#ifndef DR_NO_TRACING

/// RAII span: records [construction, destruction) into the current
/// thread's ring when tracing is enabled. Up to kMaxSpanArgs numeric
/// arguments ride along (keys must be string literals; setting a key
/// again overwrites its value, and once every slot is taken a new key
/// overwrites the last one). Must be stack-scoped on one thread.
class Span {
 public:
  explicit Span(const char* name) {
    if (trace_internal::Enabled()) Begin(name);
  }
  ~Span() {
    if (active_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// No-op when the span is not recording.
  void SetArg(const char* key, uint64_t value) {
    if (!active_) return;
    int i = 0;
    while (i < kMaxSpanArgs - 1 && arg_keys_[i] != nullptr &&
           arg_keys_[i] != key) {
      ++i;
    }
    arg_keys_[i] = key;
    arg_vals_[i] = value;
  }
  bool active() const { return active_; }

 private:
  void Begin(const char* name);
  void End();

  bool active_ = false;
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;
  uint32_t depth_ = 0;
  const char* arg_keys_[kMaxSpanArgs] = {};
  uint64_t arg_vals_[kMaxSpanArgs] = {};
};

#else  // DR_NO_TRACING

class Span {
 public:
  explicit Span(const char*) {}
  void SetArg(const char*, uint64_t) {}
  bool active() const { return false; }
};

#endif  // DR_NO_TRACING

}  // namespace deltarepair

#endif  // DELTAREPAIR_OBS_TRACE_H_
