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
// Counters: every wire counter is one row of MSCM_NET_COUNTERS below. Each
// IO loop counts on its own shard (runtime::ShardedCounters, no shared
// atomic RMW), Stats() sums the shards, and a StatsRequest is answered with
// the runtime's stats plus every row as "net.<name>".
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
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire_format.h"
#include "runtime/estimation_service.h"
#include "runtime/runtime_stats.h"

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

// The server's counter rows (see the counter tables in
// runtime/runtime_stats.h): each names a NetServerStatsSnapshot field, its
// stats-protocol key "net.<name>" and its printed name at once. The
// runtime's own counters stay in RuntimeStatsSnapshot; these cover what
// happens on the wire. The keys are a wire contract: append-only.
#define MSCM_NET_COUNTERS(ROW)                                                \
  ROW(connections_accepted, kCounter)                                         \
  ROW(connections_rejected, kCounter) /* over max_connections */              \
  ROW(connections_closed, kCounter)                                           \
  ROW(frames_received, kCounter)                                              \
  ROW(malformed_frames, kCounter)    /* stream poisoned; connection closed */ \
  ROW(unknown_type_frames, kCounter) /* answered kUnknownType, kept open */   \
  ROW(requests_dispatched, kCounter) /* admitted for pricing */               \
  ROW(requests_completed, kCounter)  /* admitted requests answered */         \
  ROW(responses_sent, kCounter)      /* data responses enqueued */            \
  ROW(error_frames_sent, kCounter)   /* error frames enqueued */              \
  ROW(invalid_requests, kCounter)    /* kInvalidRequest at the boundary */    \
  ROW(overload_shed, kCounter)       /* kOverloaded by admission control */   \
  ROW(shutdown_shed, kCounter)       /* kShuttingDown while draining */       \
  ROW(internal_errors, kCounter)     /* handler threw; answered kInternal */  \
  ROW(read_limit_closes, kCounter)   /* peer past max_read_buffer */          \
  ROW(write_limit_closes, kCounter)  /* peer past max_write_buffer */         \
  ROW(dropped_responses, kCounter)   /* computed, but the peer had gone */    \
  ROW(estimates, kCounter)                                                    \
  ROW(batches, kCounter)                                                      \
  ROW(batch_items, kCounter)                                                  \
  ROW(placements, kCounter)                                                   \
  ROW(stats_requests, kCounter)                                               \
  ROW(feedback_reports, kCounter)    /* kReportActual decoded and routed */   \
  ROW(bytes_received, kCounter)                                               \
  ROW(bytes_sent, kCounter)

enum class NetCounter : uint8_t { MSCM_NET_COUNTERS(MSCM_COUNTER_ENUM) };
inline constexpr size_t kNumNetCounters = 0 MSCM_NET_COUNTERS(MSCM_COUNTER_ONE);

struct NetServerStatsSnapshot {
  MSCM_NET_COUNTERS(MSCM_COUNTER_FIELD)

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

  using Counters = runtime::ShardedCounters<NetCounter, kNumNetCounters>;

  void LoopThread(Loop& loop);
  void AcceptReady(Loop& loop);
  void ReadChunk(Loop& loop, Connection& conn);
  // Counts a gathered frame against admission; kNone admits it for
  // pricing, anything else is the error code it will be answered with.
  WireError Admit(Loop& loop, uint8_t type);
  void Answer(Loop& loop, Connection& conn, const Frame& frame,
              WireError refusal);
  void ServeFrame(Loop& loop, Connection& conn, const Frame& frame);
  void CountBoundaryReject(Loop& loop, WireError code);
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

  // One shard per IO loop (each loop bumps its own; Stop() bumps from its
  // caller's thread), summed by Stats().
  Counters counters_;
};

}  // namespace mscm::net

#endif  // MSCM_NET_SERVER_H_
