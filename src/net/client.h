// Blocking request/response client for the estimation wire protocol: what a
// remote global query optimizer (or the load generator) links to speak to
// mscm_served. One socket, one outstanding request per call; request ids
// are verified against the response echo. All failures are values, never
// exceptions.

#ifndef MSCM_NET_CLIENT_H_
#define MSCM_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/stats_codec.h"
#include "net/wire_format.h"
#include "runtime/estimation_service.h"

namespace mscm::net {

struct NetClientConfig {
  // Receive deadline per call (SO_RCVTIMEO); zero = block forever.
  std::chrono::milliseconds recv_timeout{5000};
};

// The outcome of one RPC.
struct RpcStatus {
  enum class Code {
    kOk,
    kTransportError,  // connect/send/recv/close failure; connection dead
    kProtocolError,   // undecodable or mismatched response; connection dead
    kErrorFrame,      // server answered a typed error (wire_error says which)
  };

  Code code = Code::kOk;
  WireError wire_error = WireError::kNone;  // set for kErrorFrame
  std::string message;

  bool ok() const { return code == Code::kOk; }
  bool overloaded() const {
    return code == Code::kErrorFrame && wire_error == WireError::kOverloaded;
  }
};

class NetClient {
 public:
  explicit NetClient(NetClientConfig config = {});
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // IPv4 dotted-quad host (the serving boundary is loopback/LAN-facing).
  bool Connect(const std::string& host, uint16_t port,
               std::string* error = nullptr);
  void Close();
  bool connected() const { return fd_ >= 0; }

  RpcStatus Estimate(const runtime::EstimateRequest& request,
                     runtime::EstimateResponse* out);
  RpcStatus EstimateBatch(const std::vector<runtime::EstimateRequest>& requests,
                          std::vector<runtime::EstimateResponse>* out);
  RpcStatus ChoosePlacement(
      const std::vector<runtime::PlacementCandidate>& candidates,
      runtime::PlacementResult* out);
  // As above with an explicit ranking policy (least-expected-cost /
  // risk-adjusted placement; see runtime::PlacementOptions).
  RpcStatus ChoosePlacement(
      const std::vector<runtime::PlacementCandidate>& candidates,
      const runtime::PlacementOptions& options,
      runtime::PlacementResult* out);
  RpcStatus Stats(WireStats* out);

  // Reports an observed execution cost back to the server's adaptation
  // fast path (kReportActual). `*accepted` echoes the server's ack: false
  // means the report was decoded but not buffered (no handler, or the
  // feedback ring was full) — advisory, not an error.
  RpcStatus ReportActual(const runtime::FeedbackReport& report,
                         bool* accepted);

  // Escape hatch for boundary tests: sends a pre-encoded frame and returns
  // the raw response frame (if any).
  RpcStatus RoundTrip(MessageType type, const std::vector<uint8_t>& payload,
                      Frame* out);

 private:
  RpcStatus SendFrame(MessageType type, uint32_t request_id,
                      const std::vector<uint8_t>& payload);
  RpcStatus ReadFrame(uint32_t expect_request_id, Frame* out);
  // Shared tail: expect `want` (or an error frame, mapped to kErrorFrame).
  RpcStatus Call(MessageType send_type, const std::vector<uint8_t>& payload,
                 MessageType want, std::vector<uint8_t>* response_payload);

  const NetClientConfig config_;
  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  FrameAssembler assembler_;
  std::vector<uint8_t> send_buf_;
};

}  // namespace mscm::net

#endif  // MSCM_NET_CLIENT_H_
