#include "obs/flight_recorder.h"

#include <cstdio>

#include "common/json_writer.h"

namespace deltarepair {

bool FlightRecorder::MaybeRecord(uint64_t trace_id, const char* kind,
                                 double seconds) {
  if (threshold_seconds_ <= 0 || capacity_ == 0) return false;
  if (trace_id == 0 || seconds < threshold_seconds_) return false;

  FlightRecord record;
  record.trace_id = trace_id;
  record.kind = kind;
  record.duration_seconds = seconds;
  record.spans = Trace::CollectTrace(trace_id);

  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
  return true;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<FlightRecord>(records_.begin(), records_.end());
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void FlightRecorder::WriteJson(JsonWriter& json) const {
  std::vector<FlightRecord> records = Snapshot();
  json.BeginArray();
  char hex[32];
  for (const FlightRecord& record : records) {
    json.BeginObject();
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(record.trace_id));
    json.Field("trace_id", hex);
    json.Field("kind", record.kind);
    json.Field("duration_seconds", record.duration_seconds);
    json.Key("spans");
    json.BeginArray();
    for (const TraceEvent& ev : record.spans) {
      json.BeginObject();
      json.Field("name", ev.name);
      json.Field("start_us", static_cast<double>(ev.start_ns) / 1000.0);
      json.Field("dur_us", static_cast<double>(ev.dur_ns) / 1000.0);
      json.Field("tid", static_cast<int64_t>(ev.tid));
      json.Field("depth", static_cast<int64_t>(ev.depth));
      for (int i = 0; i < kMaxSpanArgs; ++i) {
        if (ev.arg_keys[i] != nullptr) {
          json.Field(ev.arg_keys[i], static_cast<int64_t>(ev.arg_vals[i]));
        }
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace deltarepair
