#ifndef HIERGAT_OBS_LOG_H_
#define HIERGAT_OBS_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace hiergat {
namespace obs {

/// Severity levels for HG_LOG. kOff disables everything.
enum class LogLevel : int { kInfo = 0, kWarn = 1, kError = 2, kOff = 3 };

const char* LogLevelName(LogLevel level);

/// Runtime threshold: messages below it are skipped before any
/// formatting work. The initial value comes from the HIERGAT_LOG_LEVEL
/// environment variable (INFO/WARN/ERROR/OFF); default WARN.
void SetLogLevel(LogLevel level);
bool LogLevelEnabled(LogLevel level);

/// Test/embedding hook: receives every emitted record after level
/// filtering. Pass nullptr to remove. Not thread-safe against concurrent
/// logging — install sinks before the workload starts.
using LogSink = std::function<void(LogLevel level, const char* file, int line,
                                   const std::string& message)>;
void SetLogSink(LogSink sink);

namespace internal_log {

/// Collects one log record and emits it on destruction.
class LogMessage {
 public:
  LogMessage(const char* file, int line, LogLevel level);
  ~LogMessage();
  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  LogLevel level_;
  std::ostringstream stream_;
};

/// Lets the macro swallow the stream expression inside a ternary whose
/// branches must share the type void.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

// Severity aliases so HG_LOG(INFO) reads naturally at call sites.
inline constexpr LogLevel INFO = LogLevel::kInfo;
inline constexpr LogLevel WARN = LogLevel::kWarn;
inline constexpr LogLevel ERROR = LogLevel::kError;

}  // namespace internal_log
}  // namespace obs
}  // namespace hiergat

/// Leveled, stream-style logging:
///   HG_LOG(INFO) << "cache hit rate " << rate;
/// Below the runtime threshold the stream operands are not evaluated.
/// Expands to a single expression, so it nests safely in unbraced
/// if/else (no dangling-else hazard) — complements the fatal HG_CHECK
/// family in core/logging.h.
#define HG_LOG(severity)                                                     \
  !::hiergat::obs::LogLevelEnabled(::hiergat::obs::internal_log::severity)   \
      ? (void)0                                                              \
      : ::hiergat::obs::internal_log::LogMessageVoidify() &                  \
            ::hiergat::obs::internal_log::LogMessage(                        \
                __FILE__, __LINE__, ::hiergat::obs::internal_log::severity)  \
                .stream()

#endif  // HIERGAT_OBS_LOG_H_
