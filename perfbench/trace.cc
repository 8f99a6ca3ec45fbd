#include "trace.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kClientOp: return "client.op";
    case kNetEncode: return "net.encode";
    case kNetRoundTrip: return "net.roundtrip";
    case kNetDecodeResponse: return "net.decode_response";
    case kServerFrame: return "server.frame";
    case kNetAssemble: return "net.assemble";
    case kNetDecode: return "net.decode";
    case kRuntimeEstimate: return "runtime.estimate";
    case kRuntimeBatch: return "runtime.batch";
    case kRuntimeRecord: return "runtime.record";
    case kNetEncodeResponse: return "net.encode_response";
    case kDeriveJob: return "derive.job";
    case kCoreBuild: return "core.build";
    case kMdbsDraw: return "mdbs.draw";
    case kCoreValidate: return "core.validate";
    case kStatsFit: return "stats.fit";
    case kMdbsProbe: return "mdbs.probe";
    case kNumSpanNames: break;
  }
  return "?";
}

Tracer::Tracer(bool enabled, int thread_index, size_t keep)
    : enabled_(enabled), thread_index_(thread_index), keep_(keep) {
  if (enabled_) {
    stack_.reserve(16);
    kept_.reserve(keep_);
  }
}

void Tracer::Begin(SpanName name, uint64_t request_id, uint64_t items) {
  if (!enabled_) return;
  int64_t kept_index = -1;
  if (kept_.size() < keep_) {
    kept_index = static_cast<int64_t>(kept_.size());
    const int64_t parent = stack_.empty() ? -1 : stack_.back().kept_index;
    kept_.push_back(Kept{name, parent, request_id, 0, 0});
  }
  const int64_t start = NowNs();
  if (kept_index >= 0) kept_[static_cast<size_t>(kept_index)].start_ns = start;
  stack_.push_back(Open{name, start, 0, items, kept_index});
}

int64_t Tracer::End() {
  if (!enabled_ || stack_.empty()) return 0;
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start_ns;
  Totals& t = totals_[open.name];
  ++t.count;
  t.items += open.items;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.kept_index >= 0) {
    kept_[static_cast<size_t>(open.kept_index)].end_ns = end;
  }
  return duration;
}

void Tracer::Merge(const Tracer& other) {
  for (size_t i = 0; i < totals_.size(); ++i) {
    totals_[i].count += other.totals_[i].count;
    totals_[i].items += other.totals_[i].items;
    totals_[i].total_ns += other.totals_[i].total_ns;
    totals_[i].self_ns += other.totals_[i].self_ns;
  }
}

void Tracer::WriteCsvHeader(std::FILE* out) {
  std::fprintf(out, "thread,span,name,parent,request_id,start_ns,end_ns\n");
}

void Tracer::WriteCsv(std::FILE* out) const {
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(out, "%d,%zu,%s,%lld,%llu,%lld,%lld\n", thread_index_, i,
                 SpanNameString(k.name), static_cast<long long>(k.parent),
                 static_cast<unsigned long long>(k.request_id),
                 static_cast<long long>(k.start_ns),
                 static_cast<long long>(k.end_ns));
  }
}

bool WriteTraceFile(const std::string& path,
                    const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Tracer::WriteCsvHeader(out);
  for (const Tracer* t : tracers) t->WriteCsv(out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
