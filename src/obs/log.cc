#include "obs/log.h"

#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <mutex>

#include <sys/time.h>

namespace deltarepair {

namespace {

std::atomic<bool> g_structured{false};
std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
// Serializes whole lines so concurrent workers never interleave.
std::mutex g_write_mu;

void WriteStructuredLine(LogLevel level, uint64_t trace_id, const char* fmt,
                         va_list args) {
  struct timeval tv;
  gettimeofday(&tv, nullptr);
  struct tm utc;
  time_t secs = tv.tv_sec;
  gmtime_r(&secs, &utc);

  // Sized for the worst case: seven ints of up to 11 characters each plus
  // the 7 separators and the terminator (85 bytes), so out-of-range tm
  // fields print in full instead of being cut.
  char ts[96];
  std::snprintf(ts, sizeof(ts), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(tv.tv_usec / 1000));

  char trace[24];
  if (trace_id == 0) {
    std::snprintf(trace, sizeof(trace), "-");
  } else {
    std::snprintf(trace, sizeof(trace), "%016llx",
                  static_cast<unsigned long long>(trace_id));
  }

  char msg[1024];
  std::vsnprintf(msg, sizeof(msg), fmt, args);

  std::lock_guard<std::mutex> lock(g_write_mu);
  std::fprintf(stderr, "%s %-5s trace=%s %s\n", ts, Log::LevelName(level),
               trace, msg);
  std::fflush(stderr);
}

}  // namespace

void Log::SetStructured(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_structured.store(true, std::memory_order_relaxed);
}

bool Log::structured() {
  return g_structured.load(std::memory_order_relaxed);
}

LogLevel Log::level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool Log::ParseLevel(const std::string& text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else if (text == "off") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

const char* Log::LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

void Log::Startup(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  if (!structured()) {
    std::lock_guard<std::mutex> lock(g_write_mu);
    std::vprintf(fmt, args);
    std::printf("\n");
    std::fflush(stdout);
  } else if (Enabled(LogLevel::kInfo)) {
    WriteStructuredLine(LogLevel::kInfo, 0, fmt, args);
  }
  va_end(args);
}

void Log::Event(LogLevel level, uint64_t trace_id, const char* fmt, ...) {
  if (!Enabled(level)) return;
  va_list args;
  va_start(args, fmt);
  WriteStructuredLine(level, trace_id, fmt, args);
  va_end(args);
}

}  // namespace deltarepair
