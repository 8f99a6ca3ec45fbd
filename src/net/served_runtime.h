// The full serving stack in one object: an EstimationService with a
// synthetic multi-site federation (derived cost models + probed contention
// per site), a ModelRefreshDaemon watching every (site, class) key, and an
// EstimateServer fronting it all — what the mscm_served binary runs and
// what the shutdown regression tests tear down.
//
// The reason this class exists is the teardown *ordering*, which is easy to
// get wrong and deadlocks or drops work when you do:
//
//   1. server.Stop()        — stop reading, flush responses, join the IO
//                             loops. Requests are priced on the loops, so
//                             after this nothing touches the service for a
//                             client again — and no loop can feed the
//                             adaptation controller.
//   2. adaptation stop      — the controller joins its drain thread after a
//                             final drain; that drain may still escalate
//                             into the refresh daemon, so it precedes 3.
//   3. daemon stop          — the refresh daemon's destructor blocks until
//                             in-flight re-derivations on its pool finish,
//                             then joins the pool.
//   4. service.StopProbing()— background probers join; abandoned-probe
//                             deadlines guarantee this terminates.
//
// Violating 1→2 lets a live IO loop's feedback race a dying controller and
// daemon; violating 2→3 lets the controller's final drain escalate into a
// destroyed daemon.
// Shutdown() is idempotent and safe to call from a signal-handling main
// loop.

#ifndef MSCM_NET_SERVED_RUNTIME_H_
#define MSCM_NET_SERVED_RUNTIME_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/observation_source.h"
#include "net/server.h"
#include "runtime/adaptation.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"

namespace mscm::net {

struct ServedRuntimeConfig {
  // Synthetic federation shape: sites "site0".."site{n-1}", each serving
  // the unary-scan and no-index-join classes with a fitted 4-state model.
  size_t sites = 4;
  uint64_t seed = 1;
  // Threads of the refresh daemon's re-derivation pool (see
  // ModelRefreshConfig::worker_threads): 0 re-derives inline on the
  // adaptation drain thread that escalated, < 0 = one per hardware thread.
  // Wire requests never queue on it; the server prices them on its IO
  // loops.
  int worker_threads = 2;
  // Background probing cadence (zero disables the probers).
  std::chrono::nanoseconds probe_interval = std::chrono::milliseconds(50);
  bool refresh = true;  // run a ModelRefreshDaemon over every key
  // Run the two-tier adaptation loop: kReportActual frames feed an
  // AdaptationController (RLS fast tier) that escalates stalls to the
  // refresh daemon (full re-derivation slow tier).
  bool adaptation = true;
  runtime::AdaptationConfig adaptation_config;
  EstimateServerConfig server;
};

class ServedRuntime {
 public:
  explicit ServedRuntime(ServedRuntimeConfig config = {});
  ~ServedRuntime();  // Shutdown()

  ServedRuntime(const ServedRuntime&) = delete;
  ServedRuntime& operator=(const ServedRuntime&) = delete;

  // Builds the federation and starts the server. False on socket failure.
  bool Start(std::string* error = nullptr);

  // Ordered graceful shutdown (see header comment). Idempotent.
  void Shutdown();

  uint16_t port() const;
  runtime::EstimationService& service() { return *service_; }
  EstimateServer& server() { return *server_; }
  runtime::ModelRefreshDaemon* daemon() { return daemon_.get(); }
  runtime::AdaptationController* adaptation() { return adaptation_.get(); }

 private:
  const ServedRuntimeConfig config_;
  std::unique_ptr<runtime::EstimationService> service_;
  std::vector<std::unique_ptr<core::ObservationSource>> sources_;
  std::unique_ptr<runtime::ModelRefreshDaemon> daemon_;
  std::unique_ptr<runtime::AdaptationController> adaptation_;
  std::unique_ptr<EstimateServer> server_;
  bool shut_down_ = false;
};

}  // namespace mscm::net

#endif  // MSCM_NET_SERVED_RUNTIME_H_
