// Multi-threaded epoll serving front end for the EstimationService: the
// MDBS agent finally answers cost questions over a socket, the way the
// paper's remote global query optimizers would ask them.
//
// Architecture (one process, no RPC framework):
//
//   listener ──▶ accept (loop 0) ──▶ connection assigned round-robin to an
//   IO event loop (epoll, level-triggered). The loop owns the connection
//   outright. In one wake it reads at most one chunk from each ready
//   socket and gathers the frames the FrameAssembler completes, deciding
//   admission for each; it then answers the gathered frames in arrival
//   order — decode at the wire boundary (see wire_format.h), price through
//   the EstimationService, encode into the connection's write buffer — and
//   finally writes every buffer that gained bytes, all before it returns to
//   epoll_wait. EPOLLOUT is armed only after a short write. A request never
//   leaves its loop's thread, so the connection needs no lock and a
//   response needs no wake.
//
// Admission control — the server prefers shedding to buffering:
//   * max_inflight bounds frames read off sockets and not yet answered,
//     server-wide; past it, a request gets an immediate kOverloaded error
//     frame instead of being priced (the client retries elsewhere / later —
//     that is the load-shed contract, see DESIGN.md §8).
//   * max_read_buffer bounds unparsed inbound bytes per connection; a peer
//     that streams frames faster than it drains responses is disconnected,
//     not buffered without bound.
//   * max_write_buffer bounds queued outbound bytes per connection; a peer
//     that stops reading its responses is disconnected.
//   * max_connections bounds accepted sockets; past it, accepts are closed
//     immediately.
//
// Graceful shutdown (Stop): set draining and wake every loop (the only use
// of each loop's eventfd). A loop stops reading — the frames of its last
// wake were answered in that wake — flushes its write buffers until they
// are empty or flush_timeout passes, and exits; Stop() joins the loops and
// closes every connection. A request that was admitted is therefore always
// answered before its connection closes — never dropped silently. Full-stack
// teardown order is
//   server.Stop() → ModelRefreshDaemon dtor → service.StopProbing() →
//   EstimationService dtor (ThreadPool join)
// so no component's background threads can touch a component destroyed
// before it.

#ifndef MSCM_NET_SERVER_H_
#define MSCM_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire_format.h"
#include "runtime/estimation_service.h"

namespace mscm::net {

struct EstimateServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; EstimateServer::port() after Start
  int io_threads = 1;
  int listen_backlog = 128;
  // Frames with a larger payload length are rejected as malformed before
  // any buffering toward them (capped at wire_format's kMaxPayloadBytes).
  uint32_t max_frame_payload = kMaxPayloadBytes;
  size_t max_connections = 1024;
  // Server-wide bound on frames read off sockets and not yet answered; 0
  // sheds everything (useful to force the overload path in tests).
  size_t max_inflight = 256;
  size_t max_read_buffer = 1u << 20;
  size_t max_write_buffer = 1u << 22;
  // Stop(): how long each loop keeps flushing queued responses to slow
  // readers before it closes their connections.
  std::chrono::milliseconds flush_timeout{2000};
  // Sink for kReportActual frames (typically AdaptationController::Record).
  // Returns whether the report was buffered; the ack echoes that. Null =
  // feedback unsupported: reports are decoded, counted, and acked
  // accepted=false — never an error frame (feedback is advisory).
  std::function<bool(const runtime::FeedbackReport&)> feedback_handler;
};

// Monotonic serving-boundary counters (the runtime's own counters stay in
// RuntimeStatsSnapshot; these cover what happens on the wire).
struct NetServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t malformed_frames = 0;     // stream poisoned; connection closed
  uint64_t unknown_type_frames = 0;  // answered kUnknownType, kept open
  uint64_t requests_dispatched = 0;  // admitted for pricing
  uint64_t requests_completed = 0;   // admitted requests answered
  uint64_t responses_sent = 0;       // data responses enqueued
  uint64_t error_frames_sent = 0;    // error frames enqueued
  uint64_t invalid_requests = 0;     // kInvalidRequest at the wire boundary
  uint64_t overload_shed = 0;        // kOverloaded by admission control
  uint64_t shutdown_shed = 0;        // kShuttingDown while draining
  uint64_t internal_errors = 0;      // handler threw; answered kInternal
  uint64_t read_limit_closes = 0;
  uint64_t write_limit_closes = 0;
  uint64_t dropped_responses = 0;  // computed, but the peer had gone away
  uint64_t estimates = 0;
  uint64_t batches = 0;
  uint64_t batch_items = 0;
  uint64_t placements = 0;
  uint64_t stats_requests = 0;
  uint64_t feedback_reports = 0;  // kReportActual frames decoded and routed
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;

  std::string ToString() const;
};

class EstimateServer {
 public:
  // `service` must outlive the server; requests are priced on the IO loop
  // that read them.
  explicit EstimateServer(runtime::EstimationService* service,
                          EstimateServerConfig config = {});
  ~EstimateServer();  // calls Stop()

  EstimateServer(const EstimateServer&) = delete;
  EstimateServer& operator=(const EstimateServer&) = delete;

  // Binds, listens, and starts the IO loops. False (with *error set) on any
  // socket failure. Start-once: a stopped server is not restartable.
  bool Start(std::string* error = nullptr);

  // The bound port (after a successful Start).
  uint16_t port() const { return port_; }

  // Graceful shutdown; see the header comment for the ordering contract.
  // Idempotent, safe from any non-IO thread.
  void Stop();

  bool running() const { return started_.load() && !stopped_.load(); }

  NetServerStatsSnapshot Stats() const;

  // Frames read off sockets and not yet answered (admission gauge).
  size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  struct Connection;
  struct Loop;

  void LoopThread(Loop& loop);
  void AcceptReady();
  void ReadChunk(Loop& loop, Connection& conn);
  // Counts a gathered frame against admission; kNone admits it for
  // pricing, anything else is the error code it will be answered with.
  WireError Admit(uint8_t type);
  void Answer(Loop& loop, Connection& conn, const Frame& frame,
              WireError refusal);
  void ServeFrame(Loop& loop, Connection& conn, const Frame& frame);
  void CountBoundaryReject(WireError code);
  std::map<std::string, uint64_t> NetCounterEntries() const;
  void QueueResponse(Loop& loop, Connection& conn,
                     const std::vector<uint8_t>& bytes);
  void QueueError(Loop& loop, Connection& conn, uint32_t request_id,
                  WireError code, const std::string& message);
  void QueueBytes(Loop& loop, Connection& conn,
                  const std::vector<uint8_t>& bytes);
  // Writes what the socket takes; false once the connection is closed.
  bool Flush(Loop& loop, Connection& conn);
  void SetInterest(Loop& loop, Connection& conn);
  void CloseConnection(Loop& loop, Connection& conn);
  void DrainLoop(Loop& loop);

  runtime::EstimationService* const service_;
  const EstimateServerConfig config_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  size_t next_loop_ = 0;  // loop 0's round-robin accept cursor
  std::atomic<size_t> num_connections_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;  // serializes Stop()

  std::atomic<size_t> inflight_{0};

  // Counters (relaxed; the serving boundary is not the hot path the sharded
  // runtime counters protect).
  struct Counters;
  std::unique_ptr<Counters> counters_;
};

}  // namespace mscm::net

#endif  // MSCM_NET_SERVER_H_
