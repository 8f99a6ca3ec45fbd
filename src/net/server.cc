#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "common/str_util.h"
#include "net/stats_codec.h"

namespace mscm::net {

// ---- Internal structures ----------------------------------------------------

namespace {

std::span<const runtime::CounterRow<NetServerStatsSnapshot>> NetCounterRows() {
  using S = NetServerStatsSnapshot;
  static constexpr runtime::CounterRow<S> kRows[] = {
      MSCM_NET_COUNTERS(MSCM_COUNTER_ROW)};
  return kRows;
}

}  // namespace

// Every field is the owning loop's: it reads, answers and writes the
// connection on its own thread. Stop() touches what is left after the join.
struct EstimateServer::Connection {
  Connection(int fd_in, uint32_t max_payload)
      : fd(fd_in), assembler(max_payload) {}

  size_t pending() const { return write_buf.size() - write_pos; }

  const int fd;
  FrameAssembler assembler;
  std::vector<uint8_t> write_buf;
  size_t write_pos = 0;
  bool reading = true;       // EPOLLIN armed
  bool write_armed = false;  // EPOLLOUT armed: the last write came up short
  bool close_after_flush = false;
  bool closed = false;
};

struct EstimateServer::Loop {
  // One frame read in this wake, answered after every ready socket was read.
  // Its payload points into conn's assembler, which no Feed touches before
  // the answer: a wake reads each socket at most once.
  struct Gathered {
    Connection* conn;
    FrameView frame;
    WireError refusal;  // kNone = admitted for pricing
  };

  int epoll_fd = -1;
  int wake_fd = -1;  // Stop()'s wake; nothing else writes it
  std::thread thread;
  Counters::Shard* counters = nullptr;  // the loop thread's own shard

  // Loop 0's acceptor inserts; the owning loop erases when it closes one.
  std::mutex conns_mutex;
  std::map<int, std::unique_ptr<Connection>> conns;

  // Per-wake state, loop thread only.
  std::vector<Gathered> gathered;
  std::vector<Connection*> unflushed;  // gained bytes since the last flush
  std::vector<std::unique_ptr<Connection>> closed;  // freed at the wake's end

  // Decode and pricing storage, reused frame to frame so that a warm frame
  // allocates nothing. After a failed decode it holds a partly decoded
  // message, which is never priced.
  runtime::EstimateRequest request;
  std::vector<runtime::EstimateRequest> batch;  // a frame uses the first n
  std::vector<runtime::EstimateResponse> responses;
  std::vector<runtime::PlacementCandidate> candidates;
  runtime::FeedbackReport report;
};

// ---- Stats ------------------------------------------------------------------

std::string NetServerStatsSnapshot::ToString() const {
  std::string out;
  for (const auto& row : NetCounterRows()) {
    if (!out.empty()) out += ' ';
    out += Format("%s=%llu", row.name,
                  static_cast<unsigned long long>(this->*row.field));
  }
  return out;
}

NetServerStatsSnapshot EstimateServer::Stats() const {
  const Counters::Tally sums = counters_.Sum();
  const auto rows = NetCounterRows();
  NetServerStatsSnapshot s;
  for (size_t i = 0; i < rows.size(); ++i) s.*rows[i].field = sums.values[i];
  return s;
}

// ---- Lifecycle --------------------------------------------------------------

EstimateServer::EstimateServer(runtime::EstimationService* service,
                               EstimateServerConfig config)
    : service_(service), config_(std::move(config)) {}

EstimateServer::~EstimateServer() { Stop(); }

bool EstimateServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& loop : loops_) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    }
    loops_.clear();
    return false;
  };

  if (started_.load()) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + config_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  const int n_loops = std::max(1, config_.io_threads);
  for (int i = 0; i < n_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      loops_.push_back(std::move(loop));
      return fail("epoll_create1");
    }
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) {
      loops_.push_back(std::move(loop));
      return fail("eventfd");
    }
    // epoll tags: a connection's is its Connection*, these two are the
    // addresses of their fds.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_fd_;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listener)");
  }

  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { LoopThread(*l); });
  }
  started_.store(true);
  return true;
}

void EstimateServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!started_.load() || stopped_.load()) return;

  // Each loop sees draining at its next wake: it stops reading (what it
  // gathered was answered in the wake that read it), flushes within
  // flush_timeout and exits. Nothing is priced off the loops, so once they
  // are joined no request is left in flight.
  draining_.store(true);
  for (auto& loop : loops_) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) loop->thread.join();

  ::close(listen_fd_);
  listen_fd_ = -1;
  Counters::Shard& counters = counters_.Local();
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) {
      ::close(fd);
      counters.Add(NetCounter::connections_closed);
    }
    loop->conns.clear();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  stopped_.store(true);
}

// ---- Event loop -------------------------------------------------------------

void EstimateServer::LoopThread(Loop& loop) {
  loop.counters = &counters_.Local();
  epoll_event events[64];
  while (!draining_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, -1);
    if (n < 0 && errno != EINTR) break;

    // Gather: one chunk from each ready socket.
    for (int i = 0; i < n; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == &loop.wake_fd) continue;  // draining_ ends the loop
      if (tag == &listen_fd_) {
        AcceptReady(loop);
        continue;
      }
      Connection& conn = *static_cast<Connection*>(tag);
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && conn.reading) {
        ReadChunk(loop, conn);
      }
      if ((events[i].events & EPOLLOUT) != 0) Flush(loop, conn);
    }

    // Answer in arrival order, then write what the answers queued. The
    // admitted frames leave the in-flight count once their answers are out.
    size_t admitted = 0;
    for (Loop::Gathered& g : loop.gathered) {
      Answer(loop, *g.conn, g.frame, g.refusal);
      if (g.refusal == WireError::kNone) ++admitted;
    }
    loop.gathered.clear();
    for (Connection* conn : loop.unflushed) Flush(loop, *conn);
    loop.unflushed.clear();
    loop.closed.clear();
    if (admitted > 0) inflight_.fetch_sub(admitted, std::memory_order_relaxed);
  }
  DrainLoop(loop);
}

void EstimateServer::DrainLoop(Loop& loop) {
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lock(loop.conns_mutex);
    for (auto& [fd, conn] : loop.conns) conns.push_back(conn.get());
  }
  // A peer that stopped reading forfeits its tail at the deadline; Stop()
  // closes what is left. Connections closed here stay alive in loop.closed.
  const auto deadline =
      std::chrono::steady_clock::now() + config_.flush_timeout;
  for (;;) {
    bool pending = false;
    for (Connection* conn : conns) {
      if (Flush(loop, *conn) && conn->pending() > 0) pending = true;
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void EstimateServer::AcceptReady(Loop& acceptor) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or transient accept failure: try later
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    if (num_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      acceptor.counters->Add(NetCounter::connections_rejected);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Loop& loop = *loops_[next_loop_++ % loops_.size()];
    auto owned = std::make_unique<Connection>(fd, config_.max_frame_payload);
    Connection* conn = owned.get();
    {
      std::lock_guard<std::mutex> lock(loop.conns_mutex);
      loop.conns[fd] = std::move(owned);
    }
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    acceptor.counters->Add(NetCounter::connections_accepted);
    // The owning loop first sees the connection through this registration.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      // Never registered, so no loop will serve it: hang up on the peer
      // and leave the record for Stop() to close.
      ::shutdown(fd, SHUT_RDWR);
    }
  }
}

void EstimateServer::ReadChunk(Loop& loop, Connection& conn) {
  uint8_t buf[65536];
  ssize_t n;
  do {
    n = ::read(conn.fd, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n <= 0) {
    CloseConnection(loop, conn);
    return;
  }
  loop.counters->Add(NetCounter::bytes_received, static_cast<uint64_t>(n));
  if (!conn.assembler.Feed(buf, static_cast<size_t>(n))) {
    // Stream poisoned: one typed error, flush it, close. Reading stops now
    // so a garbage firehose cannot keep the connection busy.
    loop.counters->Add(NetCounter::malformed_frames);
    QueueError(loop, conn, 0, conn.assembler.error(), "unframeable bytes");
    conn.reading = false;
    conn.close_after_flush = true;
    SetInterest(loop, conn);
    return;
  }
  while (const auto frame = conn.assembler.NextView()) {
    loop.counters->Add(NetCounter::frames_received);
    const WireError refusal = Admit(loop, frame->type);
    loop.gathered.push_back({&conn, *frame, refusal});
  }
  if (conn.assembler.buffered_bytes() > config_.max_read_buffer) {
    loop.counters->Add(NetCounter::read_limit_closes);
    CloseConnection(loop, conn);
  }
}

void EstimateServer::SetInterest(Loop& loop, Connection& conn) {
  epoll_event ev{};
  if (conn.reading) ev.events |= EPOLLIN;
  if (conn.write_armed) ev.events |= EPOLLOUT;
  ev.data.ptr = &conn;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EstimateServer::CloseConnection(Loop& loop, Connection& conn) {
  if (conn.closed) return;
  conn.closed = true;
  // Out of the map before the fd is released, so an accept that reuses the
  // number cannot collide with this entry; frames of this wake may still
  // point at the object, so it lives until the wake ends.
  {
    std::lock_guard<std::mutex> lock(loop.conns_mutex);
    auto it = loop.conns.find(conn.fd);
    loop.closed.push_back(std::move(it->second));
    loop.conns.erase(it);
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  loop.counters->Add(NetCounter::connections_closed);
}

// ---- Frame handling ---------------------------------------------------------

WireError EstimateServer::Admit(Loop& loop, uint8_t type) {
  if (draining_.load(std::memory_order_relaxed)) {
    loop.counters->Add(NetCounter::shutdown_shed);
    return WireError::kShuttingDown;
  }
  if (!IsKnownMessageType(type)) {
    loop.counters->Add(NetCounter::unknown_type_frames);
    return WireError::kUnknownType;
  }
  switch (static_cast<MessageType>(type)) {
    case MessageType::kEstimateRequest:
    case MessageType::kEstimateBatchRequest:
    case MessageType::kPlacementRequest:
    case MessageType::kStatsRequest:
    case MessageType::kReportActual:
      break;
    default:
      loop.counters->Add(NetCounter::invalid_requests);
      return WireError::kInvalidRequest;
  }
  // Admission control: shed rather than queue without bound.
  if (inflight_.fetch_add(1, std::memory_order_relaxed) >=
      config_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    loop.counters->Add(NetCounter::overload_shed);
    return WireError::kOverloaded;
  }
  loop.counters->Add(NetCounter::requests_dispatched);
  return WireError::kNone;
}

void EstimateServer::Answer(Loop& loop, Connection& conn,
                            const FrameView& frame, WireError refusal) {
  const uint32_t id = frame.request_id;
  switch (refusal) {
    case WireError::kNone:
      // Nothing is priced for a peer that went away earlier in this wake.
      if (conn.closed) {
        loop.counters->Add(NetCounter::dropped_responses);
      } else {
        ServeFrame(loop, conn, frame);
      }
      loop.counters->Add(NetCounter::requests_completed);
      return;
    case WireError::kShuttingDown:
      QueueError(loop, conn, id, refusal, "server draining");
      return;
    case WireError::kUnknownType:
      QueueError(loop, conn, id, refusal,
                 Format("unknown message type %u", frame.type));
      return;
    case WireError::kInvalidRequest:
      QueueError(loop, conn, id, refusal,
                 std::string(ToString(static_cast<MessageType>(frame.type))) +
                     " is not a request");
      return;
    default:
      QueueError(loop, conn, id, WireError::kOverloaded, "server overloaded");
      return;
  }
}

void EstimateServer::ServeFrame(Loop& loop, Connection& conn,
                                const FrameView& frame) {
  const uint32_t id = frame.request_id;
  const MessageType type = static_cast<MessageType>(frame.type);
  try {
    switch (type) {
      case MessageType::kEstimateRequest: {
        const WireError err = DecodeEstimateRequestInto(frame.payload,
                                                        &loop.request);
        if (err != WireError::kNone) {
          RejectFrame(loop, conn, id, err, "bad EstimateRequest");
          return;
        }
        const runtime::EstimateResponse response =
            service_->Estimate(loop.request);
        loop.counters->Add(NetCounter::estimates);
        QueueFrame(loop, conn, MessageType::kEstimateResponse, id,
                   kEstimateResponsePayloadSize, [&](WireWriter& w) {
                     EncodeEstimateResponsePayload(response, w);
                   });
        return;
      }
      case MessageType::kEstimateBatchRequest: {
        size_t n = 0;
        const WireError err =
            DecodeEstimateBatchRequestInto(frame.payload, &loop.batch, &n);
        if (err != WireError::kNone) {
          RejectFrame(loop, conn, id, err, "bad EstimateBatchRequest");
          return;
        }
        if (loop.responses.size() < n) loop.responses.resize(n);
        const std::span<runtime::EstimateResponse> responses(
            loop.responses.data(), n);
        service_->EstimateBatch(
            std::span<const runtime::EstimateRequest>(loop.batch.data(), n),
            responses);
        loop.counters->Add(NetCounter::batches);
        loop.counters->Add(NetCounter::batch_items, n);
        QueueFrame(loop, conn, MessageType::kEstimateBatchResponse, id,
                   EstimateBatchResponsePayloadSize(n), [&](WireWriter& w) {
                     EncodeEstimateBatchResponse(responses, w);
                   });
        return;
      }
      case MessageType::kPlacementRequest: {
        runtime::PlacementOptions options;
        const WireError err = DecodePlacementRequestInto(
            frame.payload, &loop.candidates, &options);
        if (err != WireError::kNone) {
          RejectFrame(loop, conn, id, err, "bad PlacementRequest");
          return;
        }
        const runtime::PlacementResult result =
            service_->ChoosePlacement(loop.candidates, options);
        loop.counters->Add(NetCounter::placements);
        QueueFrame(loop, conn, MessageType::kPlacementResponse, id,
                   PlacementResponsePayloadSize(result),
                   [&](WireWriter& w) { EncodePlacementResponse(result, w); });
        return;
      }
      case MessageType::kStatsRequest: {
        if (!frame.payload.empty()) {
          RejectFrame(loop, conn, id, WireError::kMalformedFrame,
                      "StatsRequest carries no payload");
          return;
        }
        loop.counters->Add(NetCounter::stats_requests);
        const NetServerStatsSnapshot net = Stats();
        std::map<std::string, uint64_t> net_entries;
        for (const auto& row : NetCounterRows()) {
          net_entries[std::string("net.") + row.name] = net.*row.field;
        }
        const std::vector<uint8_t> payload =
            EncodeStats(service_->Stats(), net_entries);
        QueueFrame(loop, conn, MessageType::kStatsResponse, id, payload.size(),
                   [&](WireWriter& w) {
                     w.PutBytes(payload.data(), payload.size());
                   });
        return;
      }
      case MessageType::kReportActual: {
        const WireError err = DecodeReportActualInto(frame.payload,
                                                     &loop.report);
        if (err != WireError::kNone) {
          RejectFrame(loop, conn, id, err, "bad ReportActual");
          return;
        }
        loop.counters->Add(NetCounter::feedback_reports);
        // Feedback is advisory: an absent handler or a full buffer is an
        // accepted=false ack, never an error frame.
        const bool accepted = config_.feedback_handler != nullptr &&
                              config_.feedback_handler(loop.report);
        QueueFrame(loop, conn, MessageType::kReportActualAck, id,
                   kReportActualAckPayloadSize,
                   [&](WireWriter& w) { EncodeReportActualAck(accepted, w); });
        return;
      }
      default:
        // Unreachable: Admit passes only the five request types.
        QueueError(loop, conn, id, WireError::kInternal, "bad dispatch");
        return;
    }
  } catch (...) {
    // The wire boundary contract: a request may fail, the server may not.
    loop.counters->Add(NetCounter::internal_errors);
    QueueError(loop, conn, id, WireError::kInternal,
               "exception serving request");
  }
}

void EstimateServer::RejectFrame(Loop& loop, Connection& conn,
                                 uint32_t request_id, WireError code,
                                 std::string_view message) {
  loop.counters->Add(code == WireError::kInvalidRequest
                         ? NetCounter::invalid_requests
                         : NetCounter::malformed_frames);
  QueueError(loop, conn, request_id, code, message);
}

// ---- Write path -------------------------------------------------------------

template <typename Encode>
void EstimateServer::QueueFrame(Loop& loop, Connection& conn, MessageType type,
                                uint32_t request_id, size_t payload_size,
                                const Encode& encode) {
  loop.counters->Add(type == MessageType::kError
                         ? NetCounter::error_frames_sent
                         : NetCounter::responses_sent);
  const size_t frame_size = kHeaderSize + payload_size;
  // Past the bound, first hand the socket what it will take: a peer that
  // reads keeps its connection however deep it pipelines.
  if (conn.pending() + frame_size > config_.max_write_buffer) {
    Flush(loop, conn);
  }
  if (conn.closed) {
    loop.counters->Add(NetCounter::dropped_responses);
    return;
  }
  if (conn.pending() + frame_size > config_.max_write_buffer) {
    // A peer that will not read its responses is disconnected, not buffered
    // without bound.
    loop.counters->Add(NetCounter::write_limit_closes);
    CloseConnection(loop, conn);
    return;
  }
  if (conn.pending() == 0) {
    conn.write_buf.clear();
    conn.write_pos = 0;
    loop.unflushed.push_back(&conn);
  }
  // Header and payload go straight into the write buffer.
  AppendFrame(&conn.write_buf, type, request_id, payload_size, encode);
}

void EstimateServer::QueueError(Loop& loop, Connection& conn,
                                uint32_t request_id, WireError code,
                                std::string_view message) {
  QueueFrame(loop, conn, MessageType::kError, request_id,
             ErrorBodySize(message),
             [&](WireWriter& w) { EncodeErrorBody(code, message, w); });
}

bool EstimateServer::Flush(Loop& loop, Connection& conn) {
  if (conn.closed) return false;
  while (conn.pending() > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_pos,
               conn.pending(), MSG_NOSIGNAL);
    if (n > 0) {
      loop.counters->Add(NetCounter::bytes_sent, static_cast<uint64_t>(n));
      conn.write_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(loop, conn);  // the peer is gone
    return false;
  }
  if (conn.pending() == 0 && conn.close_after_flush) {
    CloseConnection(loop, conn);
    return false;
  }
  // EPOLLOUT stays armed exactly while bytes wait on a full socket.
  if (conn.write_armed != (conn.pending() > 0)) {
    conn.write_armed = !conn.write_armed;
    SetInterest(loop, conn);
  }
  return true;
}

}  // namespace mscm::net
