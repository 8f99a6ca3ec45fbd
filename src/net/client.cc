#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mscm::net {

namespace {

RpcStatus Transport(const std::string& what) {
  RpcStatus s;
  s.code = RpcStatus::Code::kTransportError;
  s.message = what + ": " + std::strerror(errno);
  return s;
}

RpcStatus Protocol(const std::string& what) {
  RpcStatus s;
  s.code = RpcStatus::Code::kProtocolError;
  s.message = what;
  return s;
}

}  // namespace

NetClient::NetClient(NetClientConfig config) : config_(config) {}

NetClient::~NetClient() { Close(); }

bool NetClient::Connect(const std::string& host, uint16_t port,
                        std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad address: " + host;
    Close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (config_.recv_timeout.count() > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(config_.recv_timeout.count() / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((config_.recv_timeout.count() % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  assembler_ = FrameAssembler();
  return true;
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RpcStatus NetClient::SendFrame(MessageType type, uint32_t request_id,
                               const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Transport("send on closed client");
  // Framed into the client's own buffer, reused call to call.
  send_buf_.clear();
  AppendFrame(&send_buf_, type, request_id, payload.size(),
              [&](WireWriter& w) {
                w.PutBytes(payload.data(), payload.size());
              });
  const std::vector<uint8_t>& bytes = send_buf_;
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return Transport("send");
  }
  return {};
}

RpcStatus NetClient::ReadFrame(uint32_t expect_request_id, Frame* out) {
  uint8_t buf[65536];
  for (;;) {
    if (const auto frame = assembler_.NextView()) {
      if (frame->request_id != expect_request_id) {
        // One request in flight per call: any other id is a broken peer.
        Close();
        return Protocol("response for unexpected request id");
      }
      out->type = frame->type;
      out->request_id = frame->request_id;
      out->payload.assign(frame->payload.begin(), frame->payload.end());
      return {};
    }
    if (assembler_.broken()) {
      Close();
      return Protocol(std::string("unframeable response stream: ") +
                      ToString(assembler_.error()));
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      assembler_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      Close();
      return Transport("connection closed by server");
    }
    if (errno == EINTR) continue;
    Close();
    return Transport(errno == EAGAIN || errno == EWOULDBLOCK ? "recv timeout"
                                                             : "recv");
  }
}

RpcStatus NetClient::Call(MessageType send_type,
                          const std::vector<uint8_t>& payload,
                          MessageType want,
                          std::vector<uint8_t>* response_payload) {
  const uint32_t id = next_request_id_++;
  RpcStatus status = SendFrame(send_type, id, payload);
  if (!status.ok()) return status;
  Frame frame;
  status = ReadFrame(id, &frame);
  if (!status.ok()) return status;
  if (frame.type == static_cast<uint8_t>(MessageType::kError)) {
    auto body = DecodeErrorBodyPayload(frame.payload);
    if (!body.has_value()) {
      Close();
      return Protocol("undecodable error frame");
    }
    RpcStatus err;
    err.code = RpcStatus::Code::kErrorFrame;
    err.wire_error = body->code;
    err.message = body->message;
    return err;
  }
  if (frame.type != static_cast<uint8_t>(want)) {
    Close();
    return Protocol(std::string("expected ") + ToString(want) + " frame");
  }
  *response_payload = std::move(frame.payload);
  return {};
}

RpcStatus NetClient::Estimate(const runtime::EstimateRequest& request,
                              runtime::EstimateResponse* out) {
  WireWriter w;
  EncodeEstimateRequest(request, w);
  std::vector<uint8_t> payload;
  RpcStatus status = Call(MessageType::kEstimateRequest, w.bytes(),
                          MessageType::kEstimateResponse, &payload);
  if (!status.ok()) return status;
  auto response = DecodeEstimateResponsePayload(payload);
  if (!response.has_value()) {
    Close();
    return Protocol("undecodable EstimateResponse");
  }
  *out = *response;
  return {};
}

RpcStatus NetClient::EstimateBatch(
    const std::vector<runtime::EstimateRequest>& requests,
    std::vector<runtime::EstimateResponse>* out) {
  std::vector<uint8_t> payload;
  RpcStatus status =
      Call(MessageType::kEstimateBatchRequest,
           EncodeEstimateBatchRequest(requests),
           MessageType::kEstimateBatchResponse, &payload);
  if (!status.ok()) return status;
  auto responses = DecodeEstimateBatchResponsePayload(payload);
  if (!responses.has_value()) {
    Close();
    return Protocol("undecodable EstimateBatchResponse");
  }
  *out = std::move(*responses);
  return {};
}

RpcStatus NetClient::ChoosePlacement(
    const std::vector<runtime::PlacementCandidate>& candidates,
    runtime::PlacementResult* out) {
  return ChoosePlacement(candidates, runtime::PlacementOptions{}, out);
}

RpcStatus NetClient::ChoosePlacement(
    const std::vector<runtime::PlacementCandidate>& candidates,
    const runtime::PlacementOptions& options, runtime::PlacementResult* out) {
  std::vector<uint8_t> payload;
  RpcStatus status =
      Call(MessageType::kPlacementRequest,
           EncodePlacementRequest(candidates, options),
           MessageType::kPlacementResponse, &payload);
  if (!status.ok()) return status;
  auto result = DecodePlacementResponsePayload(payload);
  if (!result.has_value()) {
    Close();
    return Protocol("undecodable PlacementResponse");
  }
  *out = std::move(*result);
  return {};
}

RpcStatus NetClient::Stats(WireStats* out) {
  std::vector<uint8_t> payload;
  RpcStatus status = Call(MessageType::kStatsRequest, {},
                          MessageType::kStatsResponse, &payload);
  if (!status.ok()) return status;
  auto stats = DecodeStatsPayload(payload);
  if (!stats.has_value()) {
    Close();
    return Protocol("undecodable StatsResponse");
  }
  *out = std::move(*stats);
  return {};
}

RpcStatus NetClient::ReportActual(const runtime::FeedbackReport& report,
                                  bool* accepted) {
  std::vector<uint8_t> payload;
  RpcStatus status = Call(MessageType::kReportActual, EncodeReportActual(report),
                          MessageType::kReportActualAck, &payload);
  if (!status.ok()) return status;
  auto ack = DecodeReportActualAckPayload(payload);
  if (!ack.has_value()) {
    Close();
    return Protocol("undecodable ReportActualAck");
  }
  *accepted = *ack;
  return {};
}

RpcStatus NetClient::RoundTrip(MessageType type,
                               const std::vector<uint8_t>& payload,
                               Frame* out) {
  const uint32_t id = next_request_id_++;
  RpcStatus status = SendFrame(type, id, payload);
  if (!status.ok()) return status;
  return ReadFrame(id, out);
}

}  // namespace mscm::net
