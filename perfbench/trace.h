// Span recorder for the traced benchmark mode.
//
// The benchmark wraps each call it makes into a layer's public function in
// a span: name, start, end, parent span and request id. Spans on one thread
// nest strictly, so a layer's self time (its span minus the time its child
// spans cover) is accumulated online when a span ends; per-name totals are
// exact over every span. The first `keep` spans are also kept in memory and
// written out at exit for inspection. A disabled tracer records nothing and
// costs one branch per call.
//
// One Tracer per thread; Merge() folds another thread's totals in.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum SpanName : uint8_t {
  kClientOp,           // one workload operation on a client connection
  kNetEncode,          // net::Encode* request payload
  kNetRoundTrip,       // net::NetClient::RoundTrip
  kNetDecodeResponse,  // net::Decode*ResponsePayload / ack payload
  kServerFrame,        // one replayed server-side frame
  kNetAssemble,        // net::FrameAssembler::Feed + Next
  kNetDecode,          // net::Decode*RequestPayload / DecodeReportActualPayload
  kRuntimeEstimate,    // runtime::EstimationService::Estimate
  kRuntimeBatch,       // runtime::EstimationService::EstimateBatch
  kRuntimeRecord,      // runtime::AdaptationController::Record
  kNetEncodeResponse,  // net::Encode*Response* + EncodeFrame
  kDeriveJob,          // one derivation job (build + validate)
  kCoreBuild,          // core::BuildCostModel
  kMdbsDraw,           // core::ObservationSource::Draw / DrawInProbingRange
  kCoreValidate,       // core::Validate
  kStatsFit,           // core::FitCostModel replayed on a training set
  kMdbsProbe,          // mdbs::LocalDbs::RunProbingQuery
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Totals {
    uint64_t count = 0;
    uint64_t items = 0;     // work items the spans covered (batch size, ...)
    int64_t total_ns = 0;   // sum of span durations
    int64_t self_ns = 0;    // sum of durations minus child spans
  };

  Tracer(bool enabled, int thread_index, size_t keep);

  bool enabled() const { return enabled_; }

  // Opens a span. Spans must close in LIFO order.
  void Begin(SpanName name, uint64_t request_id = 0, uint64_t items = 1);
  // Closes the innermost span; returns its duration (0 when disabled).
  int64_t End();

  const Totals& totals(SpanName name) const { return totals_[name]; }
  void Merge(const Tracer& other);

  // Writes the kept spans as CSV rows (no header).
  void WriteCsv(std::FILE* out) const;
  static void WriteCsvHeader(std::FILE* out);

 private:
  struct Open {
    SpanName name;
    int64_t start_ns;
    int64_t child_ns;
    uint64_t items;
    int64_t kept_index;  // -1 when not kept
  };
  struct Kept {
    SpanName name;
    int64_t parent;  // index into kept_, -1 for a root span
    uint64_t request_id;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_;
  int thread_index_;
  size_t keep_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<Totals, kNumSpanNames> totals_{};
};

// RAII span for straight-line code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name, uint64_t request_id = 0,
             uint64_t items = 1)
      : tracer_(tracer) {
    tracer_.Begin(name, request_id, items);
  }
  ~ScopedSpan() { tracer_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

// Writes every tracer's kept spans to `path` (CSV). False on I/O failure.
bool WriteTraceFile(const std::string& path,
                    const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
