#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common/json_writer.h"

namespace deltarepair {

namespace trace_internal {

std::atomic<bool> g_enabled{false};

namespace {

std::atomic<uint64_t> g_sample_period{1};
std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<size_t> g_ring_capacity{4096};

thread_local uint64_t tls_trace_id = 0;
thread_local bool tls_suppressed = false;
thread_local uint32_t tls_depth = 0;

uint64_t SteadyNowNs() {
  // The epoch is the first call, so Chrome-JSON timestamps start near 0.
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

// One ring slot under a per-slot seqlock: `seq` is odd while the owner
// thread writes, and payload words are relaxed atomics, so collectors
// racing a wrapping writer read either a stable record or a detectable
// torn one — never a data race.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> dur_ns{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> meta{0};  // tid << 32 | depth
  std::atomic<const char*> keys[kMaxSpanArgs] = {};
  std::atomic<uint64_t> vals[kMaxSpanArgs] = {};
};

struct ThreadBuffer {
  explicit ThreadBuffer(size_t capacity)
      : slots(capacity), mask(capacity - 1) {}

  std::vector<Slot> slots;
  size_t mask;
  std::atomic<uint64_t> head{0};  // owner-incremented write cursor
  uint32_t tid = 0;

  // Owner-thread only.
  void Record(const TraceEvent& ev) {
    uint64_t h = head.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots[h & mask];
    uint64_t seq = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq + 1, std::memory_order_relaxed);  // odd: writing
    std::atomic_thread_fence(std::memory_order_release);
    s.name.store(ev.name, std::memory_order_relaxed);
    s.start_ns.store(ev.start_ns, std::memory_order_relaxed);
    s.dur_ns.store(ev.dur_ns, std::memory_order_relaxed);
    s.trace_id.store(ev.trace_id, std::memory_order_relaxed);
    s.meta.store((uint64_t{ev.tid} << 32) | ev.depth,
                 std::memory_order_relaxed);
    for (int i = 0; i < kMaxSpanArgs; ++i) {
      s.keys[i].store(ev.arg_keys[i], std::memory_order_relaxed);
      s.vals[i].store(ev.arg_vals[i], std::memory_order_relaxed);
    }
    s.seq.store(seq + 2, std::memory_order_release);  // even: stable
  }

  // Any thread; torn slots are skipped and counted.
  void CollectInto(std::vector<TraceEvent>* out, TraceLoss* loss) const {
    const uint64_t written = head.load(std::memory_order_acquire);
    if (written > slots.size()) loss->overwritten += written - slots.size();
    for (const Slot& s : slots) {
      uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 == 0) continue;
      if ((s1 & 1) != 0) {
        ++loss->torn;
        continue;
      }
      TraceEvent ev;
      ev.name = s.name.load(std::memory_order_relaxed);
      ev.start_ns = s.start_ns.load(std::memory_order_relaxed);
      ev.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      ev.trace_id = s.trace_id.load(std::memory_order_relaxed);
      uint64_t meta = s.meta.load(std::memory_order_relaxed);
      ev.tid = static_cast<uint32_t>(meta >> 32);
      ev.depth = static_cast<uint32_t>(meta & 0xffffffffu);
      for (int i = 0; i < kMaxSpanArgs; ++i) {
        ev.arg_keys[i] = s.keys[i].load(std::memory_order_relaxed);
        ev.arg_vals[i] = s.vals[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != s1) {
        ++loss->torn;
        continue;
      }
      if (ev.name == nullptr) continue;
      out->push_back(ev);
    }
  }

  void ClearSlots() {
    for (Slot& s : slots) s.seq.store(0, std::memory_order_relaxed);
    head.store(0, std::memory_order_relaxed);
  }
};

// Owns every ring ever created; the mutex guards registration, reuse
// and collection only — recording never takes it.
struct BufferRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> all;
  std::vector<ThreadBuffer*> free_list;
  uint32_t next_tid = 1;

  static BufferRegistry& Get() {
    static BufferRegistry* kRegistry = new BufferRegistry();
    return *kRegistry;
  }

  ThreadBuffer* Acquire() {
    size_t capacity = g_ring_capacity.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    while (!free_list.empty()) {
      ThreadBuffer* buf = free_list.back();
      free_list.pop_back();
      if (buf->slots.size() == capacity) {
        buf->ClearSlots();  // a dead thread's spans must not resurface
        return buf;
      }
    }
    all.push_back(std::make_unique<ThreadBuffer>(capacity));
    all.back()->tid = next_tid++;
    return all.back().get();
  }

  void Release(ThreadBuffer* buf) {
    std::lock_guard<std::mutex> lock(mu);
    free_list.push_back(buf);
  }
};

// Thread-local handle; returns the ring to the free list on thread exit
// so a churning thread pool reuses a bounded set of rings.
struct TlsBuffer {
  ThreadBuffer* buf = nullptr;
  ~TlsBuffer() {
    if (buf != nullptr) BufferRegistry::Get().Release(buf);
  }
};

ThreadBuffer* CurrentBuffer() {
  thread_local TlsBuffer tls;
  if (tls.buf == nullptr) tls.buf = BufferRegistry::Get().Acquire();
  return tls.buf;
}

}  // namespace
}  // namespace trace_internal

using trace_internal::BufferRegistry;
using trace_internal::CurrentBuffer;
using trace_internal::g_next_trace_id;
using trace_internal::g_ring_capacity;
using trace_internal::g_sample_period;
using trace_internal::SteadyNowNs;
using trace_internal::tls_depth;
using trace_internal::tls_suppressed;
using trace_internal::tls_trace_id;

void Trace::Enable(bool on) {
  if (on) SteadyNowNs();  // pin the epoch before the first span
  trace_internal::g_enabled.store(on, std::memory_order_relaxed);
}

void Trace::SetRingCapacity(size_t slots) {
  size_t capacity = 8;
  while (capacity < slots) capacity <<= 1;
  g_ring_capacity.store(capacity, std::memory_order_relaxed);
}

void Trace::SetSamplePeriod(uint64_t period) {
  g_sample_period.store(period == 0 ? 1 : period,
                        std::memory_order_relaxed);
}

uint64_t Trace::sample_period() {
  return g_sample_period.load(std::memory_order_relaxed);
}

bool Trace::SampleTraceId(uint64_t id) {
  uint64_t period = sample_period();
  return period <= 1 || id % period == 0;
}

uint64_t Trace::NewTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Trace::CurrentTraceId() { return tls_trace_id; }

uint64_t Trace::NowNs() { return SteadyNowNs(); }

void Trace::Emit(const char* name, uint64_t start_ns, uint64_t end_ns,
                 uint64_t trace_id) {
  if (!trace_internal::Enabled()) return;
  trace_internal::ThreadBuffer* buf = CurrentBuffer();
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  ev.trace_id = trace_id;
  ev.tid = buf->tid;
  ev.depth = tls_depth;
  buf->Record(ev);
}

std::vector<TraceEvent> Trace::Collect() { return Collect(nullptr); }

std::vector<TraceEvent> Trace::Collect(TraceLoss* loss) {
  std::vector<TraceEvent> out;
  TraceLoss counted;
  BufferRegistry& reg = BufferRegistry::Get();
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& buf : reg.all) buf->CollectInto(&out, &counted);
  }
  if (loss != nullptr) *loss = counted;
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::vector<TraceEvent> Trace::CollectTrace(uint64_t trace_id) {
  std::vector<TraceEvent> all = Collect();
  std::vector<TraceEvent> out;
  out.reserve(all.size());
  for (const TraceEvent& ev : all) {
    if (ev.trace_id == trace_id) out.push_back(ev);
  }
  return out;
}

void Trace::Clear() {
  BufferRegistry& reg = BufferRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& buf : reg.all) buf->ClearSlots();
}

void Trace::WriteChromeJson(JsonWriter& json,
                            const std::vector<TraceEvent>& events,
                            const TraceLoss& loss) {
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  char hex[32];
  for (const TraceEvent& ev : events) {
    json.BeginObject();
    json.Field("name", ev.name);
    json.Field("cat", "drepair");
    json.Field("ph", "X");
    json.Field("ts", static_cast<double>(ev.start_ns) / 1000.0);
    json.Field("dur", static_cast<double>(ev.dur_ns) / 1000.0);
    json.Field("pid", static_cast<int64_t>(1));
    json.Field("tid", static_cast<int64_t>(ev.tid));
    json.Key("args");
    json.BeginObject();
    if (ev.trace_id != 0) {
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(ev.trace_id));
      json.Field("trace_id", hex);
    }
    json.Field("depth", static_cast<int64_t>(ev.depth));
    for (int i = 0; i < kMaxSpanArgs; ++i) {
      if (ev.arg_keys[i] != nullptr) {
        json.Field(ev.arg_keys[i], static_cast<int64_t>(ev.arg_vals[i]));
      }
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Field("displayTimeUnit", "ms");
  json.Key("otherData");
  json.BeginObject();
  json.Field("overwritten_spans", loss.overwritten);
  json.Field("torn_spans", loss.torn);
  json.EndObject();
  json.EndObject();
}

std::string Trace::ChromeJson(const std::vector<TraceEvent>& events,
                              const TraceLoss& loss) {
  JsonWriter json;
  WriteChromeJson(json, events, loss);
  return json.str();
}

TraceIdScope::TraceIdScope(uint64_t id)
    : saved_id_(tls_trace_id), saved_suppressed_(tls_suppressed) {
  tls_trace_id = id;
  tls_suppressed = !Trace::SampleTraceId(id);
}

TraceIdScope::~TraceIdScope() {
  tls_trace_id = saved_id_;
  tls_suppressed = saved_suppressed_;
}

#ifndef DR_NO_TRACING

void Span::Begin(const char* name) {
  if (tls_suppressed) return;
  active_ = true;
  name_ = name;
  trace_id_ = tls_trace_id;
  depth_ = tls_depth++;
  start_ns_ = SteadyNowNs();
}

void Span::End() {
  uint64_t end_ns = SteadyNowNs();
  --tls_depth;
  trace_internal::ThreadBuffer* buf = CurrentBuffer();
  TraceEvent ev;
  ev.name = name_;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  ev.trace_id = trace_id_;
  ev.tid = buf->tid;
  ev.depth = depth_;
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    ev.arg_keys[i] = arg_keys_[i];
    ev.arg_vals[i] = arg_vals_[i];
  }
  buf->Record(ev);
}

#endif  // DR_NO_TRACING

}  // namespace deltarepair
