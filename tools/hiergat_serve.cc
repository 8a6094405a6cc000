// Long-lived ER matching server (DESIGN.md §14): loads checkpoints
// into a hot-swappable model registry and serves the framed scoring
// protocol plus the /healthz //readyz //metrics HTTP shim on one port.
//
//   hiergat_serve --port=7071 --model=prod=model.ckpt --threads=4
//
// Models can be named explicitly (--model=name=path, repeatable) or
// discovered from a directory of *.ckpt files (--model_dir=DIR, model
// name = file stem). Clients hot-swap any of them at runtime via the
// reload RPC. SIGTERM/SIGINT triggers a graceful drain: stop
// accepting, answer everything admitted, then flush the trace rings
// (--trace_out) and the flight recorder via obs::DrainAndDump — the
// same dump path a crash would take.

#include <cctype>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "er/session.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tensor/threadpool.h"

namespace hiergat {
namespace {

// Self-pipe wakeup: the handler only writes one byte (async-signal
// safe); the main thread blocks in read() and runs the actual drain.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  (void)!write(g_shutdown_pipe[1], &byte, 1);
}

struct Flags {
  std::string host = "127.0.0.1";
  int port = 7071;
  int threads = 0;  // 0 = hardware concurrency.
  int max_batch_size = 32;
  int max_delay_us = 1000;
  int max_pending_pairs = 8192;
  std::vector<std::pair<std::string, std::string>> models;  // name -> path.
  std::string model_dir;
  std::string trace_out;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--model=NAME=CKPT]... [--model_dir=DIR] [options]\n"
      "\n"
      "  --model=NAME=CKPT      publish checkpoint CKPT as model NAME\n"
      "                         (repeatable)\n"
      "  --model_dir=DIR        publish every *.ckpt in DIR (name = stem)\n"
      "  --host=ADDR            bind address         (default 127.0.0.1)\n"
      "  --port=N               TCP port, 0=ephemeral (default 7071)\n"
      "  --threads=N            engine lanes per model; the calling thread\n"
      "                         is one, 0=auto (default 0)\n"
      "  --max_batch_size=N     pairs per coalesced batch (default 32)\n"
      "  --max_delay_us=N       batch hold time in usec  (default 1000)\n"
      "  --max_pending_pairs=N  admission cap, 0=off     (default 8192)\n"
      "  --trace_out=PATH       write a Chrome trace on shutdown\n",
      argv0);
}

/// Parses all of `text` as a decimal integer in [0, max]. Rejects an
/// empty string, a sign or leading space, trailing characters, and
/// values that overflow `long` or exceed `max`.
bool ParseNonNegativeInt(const char* text, long max, int* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value > max) return false;
  *out = static_cast<int>(value);
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  struct IntFlag {
    const char* name;
    long max;
    int* value;
  };
  const IntFlag int_flags[] = {
      {"--port", 65535, &flags->port},
      {"--threads", kMaxThreads, &flags->threads},
      {"--max_batch_size", INT_MAX, &flags->max_batch_size},
      {"--max_delay_us", INT_MAX, &flags->max_delay_us},
      {"--max_pending_pairs", INT_MAX, &flags->max_pending_pairs},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    const IntFlag* int_flag = nullptr;
    const char* int_text = nullptr;
    for (const IntFlag& f : int_flags) {
      if ((int_text = value_of(f.name)) != nullptr) {
        int_flag = &f;
        break;
      }
    }
    if (int_flag != nullptr) {
      if (!ParseNonNegativeInt(int_text, int_flag->max, int_flag->value)) {
        std::fprintf(stderr, "%s wants an integer in [0, %ld], got \"%s\"\n",
                     int_flag->name, int_flag->max, int_text);
        PrintUsage(argv[0]);
        return false;
      }
    } else if (const char* v = value_of("--model")) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') {
        std::fprintf(stderr, "--model wants NAME=CKPT, got \"%s\"\n", v);
        return false;
      }
      flags->models.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (const char* v = value_of("--model_dir")) {
      flags->model_dir = v;
    } else if (const char* v = value_of("--host")) {
      flags->host = v;
    } else if (const char* v = value_of("--trace_out")) {
      flags->trace_out = v;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "unknown flag \"%s\"\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  if (!flags.model_dir.empty()) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(flags.model_dir, ec)) {
      if (entry.path().extension() == ".ckpt") {
        flags.models.emplace_back(entry.path().stem().string(),
                                  entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "cannot read --model_dir=%s: %s\n",
                   flags.model_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  if (flags.models.empty()) {
    std::fprintf(stderr, "no models: pass --model=NAME=CKPT or --model_dir\n");
    PrintUsage(argv[0]);
    return 2;
  }

  serve::ModelRegistry registry;
  for (const auto& [name, path] : flags.models) {
    SessionOptions session_options;
    session_options.checkpoint_path = path;
    session_options.engine.num_threads = flags.threads;
    const Status status = registry.LoadModel(name, session_options);
    if (!status.ok()) {
      std::fprintf(stderr, "loading model \"%s\" from %s failed: %s\n",
                   name.c_str(), path.c_str(), status.ToString().c_str());
      return 1;
    }
    std::printf("published model \"%s\" from %s\n", name.c_str(),
                path.c_str());
  }

  serve::ServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = flags.port;
  server_options.batcher.max_batch_size = flags.max_batch_size;
  server_options.batcher.max_delay_us = flags.max_delay_us;
  server_options.batcher.max_pending_pairs = flags.max_pending_pairs;

  auto server_or = serve::Server::Start(&registry, server_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::Server> server = std::move(server_or).value();

  if (!flags.trace_out.empty()) {
    obs::SetTraceDrainPath(flags.trace_out);
    obs::TraceRecorder::Global().Start();
  }
  // First Global() touch installs the crash handlers, so a SIGSEGV
  // after this point dumps the flight ring.
  obs::FlightRecorder::Global();

  if (pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "pipe() failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action{};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::printf("serving on %s:%d (batch<=%d, hold<=%dus); SIGTERM drains\n",
              flags.host.c_str(), server->port(), flags.max_batch_size,
              flags.max_delay_us);
  std::fflush(stdout);

  char byte;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::printf("shutdown signal received; draining...\n");
  server->Shutdown();
  const serve::Server::Stats stats = server->stats();
  std::printf("served %lld request(s) on %lld connection(s)\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.connections));
  obs::TraceRecorder::Global().Stop();
  obs::DrainAndDump();
  return 0;
}

}  // namespace
}  // namespace hiergat

int main(int argc, char** argv) { return hiergat::Main(argc, argv); }
