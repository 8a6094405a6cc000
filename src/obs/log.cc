#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/flight_recorder.h"

namespace hiergat {
namespace obs {

namespace {

LogLevel LevelFromEnv() {
  const char* env = std::getenv("HIERGAT_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "INFO") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "WARN") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "ERROR") == 0) return LogLevel::kError;
  if (std::strcmp(env, "OFF") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

std::atomic<int>& ThresholdStorage() {
  static std::atomic<int>* threshold =
      new std::atomic<int>(static_cast<int>(LevelFromEnv()));
  return *threshold;
}

/// Serializes emission (stderr + sinks); never held on the skip path.
std::mutex& EmitMutex() {
  static std::mutex* mutex = new std::mutex();
  return *mutex;
}

LogSink& SinkStorage() {
  static LogSink* sink = new LogSink();
  return *sink;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "UNKNOWN";
}

void SetLogLevel(LogLevel level) {
  ThresholdStorage().store(static_cast<int>(level), std::memory_order_relaxed);
}

bool LogLevelEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         ThresholdStorage().load(std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(EmitMutex());
  SinkStorage() = std::move(sink);
}

namespace internal_log {

LogMessage::LogMessage(const char* file, int line, LogLevel level)
    : file_(file), line_(line), level_(level) {}

LogMessage::~LogMessage() {
  const std::string message = stream_.str();
  if (level_ == LogLevel::kError) {
    // Errors are rare enough to be flight-recorder-worthy: a crash dump
    // then shows the last errors in sequence with engine/cache events.
    RecordFlightEvent(FlightEventKind::kLogError, file_, line_);
  }
  const int64_t ts_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  // Basename keeps lines short; __FILE__ may carry the full build path.
  const char* base = std::strrchr(file_, '/');
  base = base != nullptr ? base + 1 : file_;

  std::lock_guard<std::mutex> lock(EmitMutex());
  std::fprintf(stderr, "[%c %lld %s:%d] %s\n", LogLevelName(level_)[0],
               static_cast<long long>(ts_ms), base, line_, message.c_str());
  const LogSink& sink = SinkStorage();
  if (sink) sink(level_, file_, line_, message);
}

}  // namespace internal_log
}  // namespace obs
}  // namespace hiergat
