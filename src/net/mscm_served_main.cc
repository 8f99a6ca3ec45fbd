// mscm_served — the MDBS cost-estimation agent as a network server.
//
// Stands up a synthetic multi-site federation (derived multi-state cost
// models + background contention probing + drift-triggered refresh) and
// serves the binary estimation protocol on a TCP port until SIGINT/SIGTERM,
// then performs the ordered graceful shutdown (drain → adaptation → daemon
// → probers) and prints final wire + runtime stats.
//
//   mscm_served [--port N] [--address A] [--sites N] [--io-threads N]
//               [--workers N] [--max-inflight N] [--probe-interval-ms N]
//               [--no-refresh] [--no-adaptation] [--quiet]
//
// Requests are priced on the --io-threads epoll loops that read them, each
// frame in one pass on its loop; --workers sizes only the refresh daemon's
// background re-derivation pool (0 re-derives on the adaptation drain
// thread).
//
// With --port 0 (the default) an ephemeral port is chosen and announced on
// stdout as "mscm_served listening on ADDR:PORT" — scripted harnesses
// (tests/net_smoke.sh) parse that line.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/served_runtime.h"

namespace {

std::sig_atomic_t volatile g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

long ArgLong(int argc, char** argv, const char* flag, long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atol(argv[i + 1]);
  }
  return fallback;
}

const char* ArgStr(int argc, char** argv, const char* flag,
                   const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mscm;

  net::ServedRuntimeConfig config;
  config.server.port = static_cast<uint16_t>(ArgLong(argc, argv, "--port", 0));
  config.server.bind_address = ArgStr(argc, argv, "--address", "127.0.0.1");
  config.server.io_threads =
      static_cast<int>(ArgLong(argc, argv, "--io-threads", 2));
  config.server.max_inflight =
      static_cast<size_t>(ArgLong(argc, argv, "--max-inflight", 256));
  config.sites = static_cast<size_t>(ArgLong(argc, argv, "--sites", 4));
  config.worker_threads =
      static_cast<int>(ArgLong(argc, argv, "--workers", 2));
  config.probe_interval = std::chrono::milliseconds(
      ArgLong(argc, argv, "--probe-interval-ms", 50));
  config.refresh = !HasFlag(argc, argv, "--no-refresh");
  config.adaptation = !HasFlag(argc, argv, "--no-adaptation");
  const bool quiet = HasFlag(argc, argv, "--quiet");

  net::ServedRuntime served(config);
  std::string error;
  if (!served.Start(&error)) {
    std::fprintf(stderr, "mscm_served: start failed: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("mscm_served listening on %s:%u\n",
              config.server.bind_address.c_str(), served.port());
  std::printf("  sites=%zu io_threads=%d workers=%d max_inflight=%zu "
              "refresh=%s adaptation=%s\n",
              config.sites, config.server.io_threads, config.worker_threads,
              config.server.max_inflight, config.refresh ? "on" : "off",
              config.adaptation ? "on" : "off");
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (!quiet) std::printf("mscm_served: shutting down\n");
  const net::NetServerStatsSnapshot wire = served.server().Stats();
  const runtime::RuntimeStatsSnapshot stats = served.service().Stats();
  served.Shutdown();
  if (!quiet) {
    std::printf("wire: %s\n", wire.ToString().c_str());
    std::printf("runtime: %s\n", stats.ToString().c_str());
    if (served.adaptation() != nullptr) {
      std::printf("adaptation: %s\n",
                  served.adaptation()->Stats().ToString().c_str());
    }
  }
  return 0;
}
