// The three serving workloads: closed-loop clients against the mscm_served
// binary (launched with no flags, so it runs exactly as shipped), output
// checks on every response, and in traced mode an in-process replay of the
// run's own frames through the server's public functions.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "core/validation.h"
#include "histogram.h"
#include "net/client.h"
#include "net/served_runtime.h"
#include "net/stats_codec.h"
#include "net/wire_format.h"
#include "runtime/adaptation.h"
#include "stats/rls.h"
#include "trace.h"

namespace perfbench {

namespace {

using mscm::net::Frame;
using mscm::net::MessageType;
using mscm::net::NetClient;
using mscm::net::RpcStatus;
using mscm::runtime::EstimateRequest;
using mscm::runtime::EstimateResponse;
using mscm::runtime::FeedbackReport;

constexpr int kSetups = 11;
// Traced mode splits the run: an untraced phase, then a traced one.
constexpr double kTracePhaseShare = 0.4;
// Every kSampleStride-th operation of the traced phase keeps its frames
// for the server-side replay, up to these bounds per connection.
constexpr uint64_t kSampleStride = 4;
constexpr size_t kMaxSampledFrames = 4096;
constexpr size_t kMaxSampledBytes = 4u << 20;
constexpr int kReplayPasses = 3;
constexpr size_t kKeptSpans = 1u << 16;
// Relative tolerance of the law check (the federation's models are exact
// least-squares fits of the law, so only rounding separates them).
constexpr double kLawTolerance = 1e-9;

// ---- The server under test --------------------------------------------------

// mscm_served as a child process: launched with no flags, its announced port
// parsed from stdout, stopped with SIGTERM and reaped. The child is killed
// if the benchmark dies first.
class ServedProcess {
 public:
  ServedProcess() = default;
  ~ServedProcess() { Stop(); }
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  bool Launch(const std::string& path, std::string* error) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      *error = std::string("fork: ") + std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];

    // "mscm_served listening on 127.0.0.1:PORT"
    const std::string marker = "listening on ";
    std::string seen;
    const int64_t deadline = NowNs() + 10'000'000'000;
    while (NowNs() < deadline) {
      const size_t at = seen.find(marker);
      const size_t eol = at == std::string::npos ? at : seen.find('\n', at);
      if (eol != std::string::npos) {
        const size_t colon = seen.rfind(':', eol);
        port_ = static_cast<uint16_t>(std::atoi(seen.c_str() + colon + 1));
        if (port_ == 0) break;
        return true;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      seen.append(buf, static_cast<size_t>(n));
    }
    *error = "mscm_served did not announce a port: " + seen;
    Stop();
    return false;
  }

  // SIGTERM, drain its output, reap. True when it exited with status 0
  // (and trivially when nothing runs).
  bool Stop() {
    if (pid_ < 0) return true;
    ::kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 20'000'000'000;
    char buf[4096];
    while (NowNs() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      if (::read(out_fd_, buf, sizeof(buf)) <= 0) break;  // EOF: it exited
    }
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           NowNs() < deadline) {
      ::usleep(2000);
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      status = -1;
    }
    ::close(out_fd_);
    pid_ = -1;
    out_fd_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

  // User + system CPU seconds of the whole process so far.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(in, line);
    const size_t paren = line.rfind(')');
    if (paren == std::string::npos) return 0.0;
    std::istringstream fields(line.substr(paren + 2));
    std::string field;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// ---- What a workload sends --------------------------------------------------

struct Plan {
  Workload workload;
  std::vector<EstimateRequest> working_set;
  // serve_batch: working_set cut into consecutive 64-item frames.
  std::vector<std::vector<EstimateRequest>> batches;
  // Feedback key of each working-set entry: site index * 2 + class index.
  std::vector<int> key_of;
};

Plan MakePlan(Workload w, uint64_t seed) {
  Plan plan;
  plan.workload = w;
  plan.working_set = ServingWorkingSet(w, seed);
  if (w == Workload::kServeBatch) {
    for (size_t i = 0; i < plan.working_set.size(); i += kBatchSize) {
      plan.batches.emplace_back(plan.working_set.begin() + i,
                                plan.working_set.begin() + i + kBatchSize);
    }
  }
  for (const EstimateRequest& r : plan.working_set) {
    const int site = std::atoi(r.site.c_str() + 4);  // "siteN"
    const int cls =
        r.class_id == mscm::core::QueryClassId::kUnarySeqScan ? 0 : 1;
    plan.key_of.push_back(site * 2 + cls);
  }
  return plan;
}

// A phase is cut into kWindows windows of equal length, and each frame's
// latency goes to the window it was sent in. The latency percentiles pool
// every frame except those of the kTrimmedWindows windows with the highest
// p99: a burst of host contention that covers less than a tenth of the run
// does not move them, a slowdown that covers more does.
constexpr size_t kWindows = 100;
constexpr size_t kTrimmedWindows = 10;

struct SampledFrame {
  MessageType type;
  uint32_t request_id;
  std::vector<uint8_t> payload;
};

// One closed-loop connection, owned by one thread while a phase runs.
struct Connection {
  explicit Connection(int index, uint64_t seed, size_t offset)
      : index(index),
        tracer(false, index, 0),
        noise(FeedbackNoiseSeed(seed, index)),
        cursor(offset) {}

  int index;
  NetClient client;
  Tracer tracer;
  mscm::Rng noise;
  size_t cursor;

  // Phase tallies (reset per phase).
  uint64_t attempted = 0;  // estimates attempted
  uint64_t failed = 0;     // estimates failed
  uint64_t very_good = 0;
  uint64_t good = 0;
  uint64_t reports = 0;
  uint64_t acks = 0;
  uint64_t accepted = 0;
  uint64_t bytes = 0;
  uint64_t ops = 0;
  uint64_t answered = 0;
  int64_t phase_start_ns = 0;
  int64_t window_ns = 0;
  // Per window: each estimate frame's encode → round trip → decode.
  std::vector<Histogram> latency = std::vector<Histogram>(1);
  Histogram roundtrip;  // traced RoundTrip spans
  Histogram publish_lag;
  std::string first_error;

  // Feedback: per key, the oldest report whose generation has not yet
  // been superseded in a response.
  struct Pending {
    bool active = false;
    uint64_t generation = 0;
    int64_t sent_ns = 0;
  };
  std::array<Pending, kServedSites * 2> pending{};

  bool sampling = false;
  std::vector<SampledFrame> samples;
  size_t sampled_bytes = 0;

  void ResetTallies(size_t windows = 1) {
    attempted = failed = very_good = good = 0;
    reports = acks = accepted = bytes = ops = answered = 0;
    latency.assign(windows, Histogram());
    roundtrip = Histogram();
    publish_lag = Histogram();
  }

  // Counts `items` estimates answered by a frame sent at t0 and decoded at
  // t1.
  void Answered(int64_t t0, int64_t t1, uint64_t items) {
    size_t w = 0;
    if (window_ns > 0 && t0 > phase_start_ns) {
      w = std::min(latency.size() - 1,
                   static_cast<size_t>((t0 - phase_start_ns) / window_ns));
    }
    latency[w].Record(t1 - t0);
    answered += items;
  }

  void Error(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
};

// encode → RoundTrip → check type; the response payload lands in `frame`.
// False (with the connection's first error set) on any failure.
bool SendFrame(Connection& c, MessageType type,
               const std::vector<uint8_t>& payload, MessageType want,
               bool sample, Frame* frame) {
  RpcStatus status;
  {
    ScopedSpan span(c.tracer, kNetRoundTrip);
    const int64_t t0 = NowNs();
    status = c.client.RoundTrip(type, payload, frame);
    if (c.tracer.enabled()) c.roundtrip.Record(NowNs() - t0);
  }
  if (!status.ok()) {
    c.Error("transport: " + status.message);
    if (!c.client.connected()) c.Error("connection lost");
    return false;
  }
  if (sample && c.sampled_bytes + payload.size() <= kMaxSampledBytes &&
      c.samples.size() < kMaxSampledFrames) {
    c.samples.push_back(SampledFrame{type, frame->request_id, payload});
    c.sampled_bytes += payload.size();
  }
  c.bytes += 2 * mscm::net::kHeaderSize + payload.size() +
             frame->payload.size();
  if (frame->type != static_cast<uint8_t>(want)) {
    c.Error(std::string("unexpected response frame type ") +
            std::to_string(frame->type));
    return false;
  }
  return true;
}

std::optional<EstimateResponse> EstimateOnce(Connection& c,
                                             const EstimateRequest& request,
                                             bool sample) {
  std::vector<uint8_t> payload;
  {
    ScopedSpan span(c.tracer, kNetEncode);
    mscm::net::WireWriter w;
    mscm::net::EncodeEstimateRequest(request, w);
    payload = w.Take();
  }
  Frame frame;
  if (!SendFrame(c, MessageType::kEstimateRequest, payload,
                 MessageType::kEstimateResponse, sample, &frame)) {
    return std::nullopt;
  }
  ScopedSpan span(c.tracer, kNetDecodeResponse);
  auto response = mscm::net::DecodeEstimateResponsePayload(frame.payload);
  if (!response.has_value()) c.Error("undecodable EstimateResponse");
  return response;
}

// True when `response` is the federation's law for `request`.
bool MatchesLaw(const EstimateRequest& request,
                const EstimateResponse& response) {
  if (!response.ok() || response.state < 0 ||
      response.state >= static_cast<int>(kServedSites)) {
    return false;
  }
  const double law = LawCost(request, response.state);
  return std::fabs(response.estimate_seconds - law) <=
         kLawTolerance * std::max(1.0, std::fabs(law));
}

// One serve_point operation: a single estimate, checked against the law.
void PointOp(const Plan& plan, Connection& c, bool sample) {
  const EstimateRequest& request =
      plan.working_set[c.cursor++ % plan.working_set.size()];
  ++c.attempted;
  const int64_t t0 = NowNs();
  const auto response = EstimateOnce(c, request, sample);
  const int64_t t1 = NowNs();
  if (!response.has_value() || !MatchesLaw(request, *response)) {
    if (response.has_value()) c.Error("estimate differs from the law");
    ++c.failed;
    return;
  }
  c.Answered(t0, t1, 1);
  const double law = LawCost(request, response->state);
  c.very_good += mscm::core::IsVeryGoodEstimate(response->estimate_seconds, law);
  c.good += mscm::core::IsGoodEstimate(response->estimate_seconds, law);
}

// One serve_batch operation: a 64-item frame; every item must be answered
// and match the law.
void BatchOp(const Plan& plan, Connection& c, bool sample) {
  const std::vector<EstimateRequest>& batch =
      plan.batches[(c.cursor / kBatchSize) % plan.batches.size()];
  c.cursor += kBatchSize;
  c.attempted += batch.size();
  const int64_t t0 = NowNs();
  std::vector<uint8_t> payload;
  {
    ScopedSpan span(c.tracer, kNetEncode, 0, batch.size());
    payload = mscm::net::EncodeEstimateBatchRequest(batch);
  }
  Frame frame;
  std::optional<std::vector<EstimateResponse>> responses;
  if (SendFrame(c, MessageType::kEstimateBatchRequest, payload,
                MessageType::kEstimateBatchResponse, sample, &frame)) {
    ScopedSpan span(c.tracer, kNetDecodeResponse, 0, batch.size());
    responses = mscm::net::DecodeEstimateBatchResponsePayload(frame.payload);
    if (!responses.has_value()) c.Error("undecodable EstimateBatchResponse");
  }
  const int64_t t1 = NowNs();
  if (!responses.has_value() || responses->size() != batch.size()) {
    if (responses.has_value()) c.Error("batch answered a different count");
    c.failed += batch.size();
    return;
  }
  uint64_t answered = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const EstimateResponse& r = (*responses)[i];
    if (!MatchesLaw(batch[i], r)) {
      c.Error("batch item differs from the law");
      ++c.failed;
      continue;
    }
    ++answered;
    const double law = LawCost(batch[i], r.state);
    c.very_good += mscm::core::IsVeryGoodEstimate(r.estimate_seconds, law);
    c.good += mscm::core::IsGoodEstimate(r.estimate_seconds, law);
  }
  c.Answered(t0, t1, answered);
}

// One serve_feedback operation: an estimate over the hot set, judged against
// the truth it then reports with kReportActual.
void FeedbackOp(const Plan& plan, Connection& c, bool sample,
                int64_t run_start_ns) {
  const size_t index = c.cursor++ % plan.working_set.size();
  const EstimateRequest& request = plan.working_set[index];
  ++c.attempted;
  const int64_t t0 = NowNs();
  const auto response = EstimateOnce(c, request, sample);
  const int64_t t1 = NowNs();
  if (!response.has_value() || !response->ok() || response->state < 0 ||
      !(response->estimate_seconds >= 0.0) ||
      !std::isfinite(response->estimate_seconds)) {
    if (response.has_value()) c.Error("feedback estimate not served");
    ++c.failed;
    return;
  }
  Connection::Pending& pending = c.pending[plan.key_of[index]];
  if (pending.active && response->model_generation > pending.generation) {
    c.publish_lag.Record(t1 - pending.sent_ns);
    pending.active = false;
  }

  const double factor = FeedbackFactor(Seconds(run_start_ns, t1));
  const double truth = std::max(
      1e-9, LawCost(request, response->state) * factor *
                (1.0 + c.noise.Gaussian(0.0, kFeedbackNoise)));
  FeedbackReport report;
  report.site = request.site;
  report.class_id = request.class_id;
  report.features = request.features;
  report.actual_cost = truth;
  report.probing_cost = response->probing_cost;
  report.model_generation = response->model_generation;

  std::vector<uint8_t> payload;
  {
    ScopedSpan span(c.tracer, kNetEncode);
    payload = mscm::net::EncodeReportActual(report);
  }
  const int64_t sent = NowNs();
  ++c.reports;
  Frame frame;
  std::optional<bool> ack;
  if (SendFrame(c, MessageType::kReportActual, payload,
                MessageType::kReportActualAck, sample, &frame)) {
    ScopedSpan span(c.tracer, kNetDecodeResponse);
    ack = mscm::net::DecodeReportActualAckPayload(frame.payload);
    if (!ack.has_value()) c.Error("undecodable ReportActualAck");
  }
  if (!ack.has_value()) {
    ++c.failed;
    return;
  }
  ++c.acks;
  c.accepted += *ack ? 1 : 0;
  if (!pending.active) {
    pending = Connection::Pending{true, response->model_generation, sent};
  }
  c.Answered(t0, t1, 1);
  c.very_good +=
      mscm::core::IsVeryGoodEstimate(response->estimate_seconds, truth);
  c.good += mscm::core::IsGoodEstimate(response->estimate_seconds, truth);
}

void RunOp(const Plan& plan, Connection& c, int64_t run_start_ns) {
  const bool sample = c.sampling && c.ops % kSampleStride == 0;
  ScopedSpan op(c.tracer, kClientOp, c.ops);
  ++c.ops;
  switch (plan.workload) {
    case Workload::kServePoint:
      PointOp(plan, c, sample);
      return;
    case Workload::kServeBatch:
      BatchOp(plan, c, sample);
      return;
    case Workload::kServeFeedback:
      FeedbackOp(plan, c, sample, run_start_ns);
      return;
    case Workload::kDerive:
      return;
  }
}

// ---- Set-up ------------------------------------------------------------------

// Launches mscm_served, connects every connection and runs the warm pass:
// the connections together send the working set (four times over for the
// hot set), as estimates only, checked like the timed run. Returns the
// set-up time in seconds, or a negative value with *error set.
double SetUp(const Plan& plan, const Options& options, ServedProcess& server,
             std::vector<std::unique_ptr<Connection>>& conns,
             std::string* error) {
  const int64_t t0 = NowNs();
  if (!server.Launch(options.served_path, error)) return -1.0;
  for (auto& c : conns) {
    if (!c->client.Connect("127.0.0.1", server.port(), error)) return -1.0;
  }
  const size_t ops_per_connection =
      (plan.workload == Workload::kServeBatch
           ? plan.working_set.size() / kBatchSize
           : kWarmEstimates) /
      conns.size();
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    Connection* c = conn.get();
    threads.emplace_back([&plan, c, ops_per_connection] {
      const size_t saved_cursor = c->cursor;
      c->cursor = ConnectionOffset(plan.working_set.size(), c->index);
      for (size_t i = 0; i < ops_per_connection; ++i) {
        if (plan.workload == Workload::kServeBatch) {
          BatchOp(plan, *c, false);
        } else {
          PointOp(plan, *c, false);  // feedback warms without reporting
        }
      }
      c->cursor = saved_cursor;
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = Seconds(t0, NowNs());
  for (auto& c : conns) {
    if (c->failed > 0) {
      *error = "warm pass failed: " + c->first_error;
      return -1.0;
    }
    c->ResetTallies();
  }
  return seconds;
}

// ---- Timed phases ------------------------------------------------------------

struct PhaseResult {
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answered = 0;
  uint64_t very_good = 0;
  uint64_t good = 0;
  uint64_t reports = 0;
  uint64_t acks = 0;
  uint64_t accepted = 0;
  uint64_t bytes = 0;
  double server_cpu_s = 0.0;  // user + system CPU of mscm_served
  std::vector<Histogram> windows;  // frame latency per window
  Histogram roundtrip;
  Histogram publish_lag;
  std::string first_error;

  double items_per_s() const {
    return seconds > 0.0 ? static_cast<double>(answered) / seconds : 0.0;
  }
  double cpu_us_per_op() const {
    return server_cpu_s * 1e6 /
           std::max<double>(1.0, static_cast<double>(answered));
  }
  // The latency of every frame but those of the kTrimmedWindows windows
  // with the highest p99.
  Histogram KeptLatency() const {
    std::vector<std::pair<double, size_t>> by_p99;
    for (size_t w = 0; w < windows.size(); ++w) {
      by_p99.emplace_back(windows[w].PercentileNs(0.99), w);
    }
    std::sort(by_p99.begin(), by_p99.end());
    Histogram kept;
    for (size_t i = 0; i + kTrimmedWindows < by_p99.size(); ++i) {
      kept.Merge(windows[by_p99[i].second]);
    }
    return kept;
  }
};

// Runs every connection's closed loop on its own thread for `seconds`, and
// reads the server's CPU time before and after.
PhaseResult RunPhase(const Plan& plan,
                     std::vector<std::unique_ptr<Connection>>& conns,
                     const ServedProcess& server, double seconds,
                     int64_t run_start_ns) {
  const int64_t phase_ns = static_cast<int64_t>(seconds * 1e9);
  for (auto& c : conns) c->ResetTallies(kWindows);
  std::atomic<int> ready{0};
  std::atomic<int64_t> stop_ns{0};  // 0 until every thread is ready
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    Connection* c = conn.get();
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      int64_t stop = 0;
      while ((stop = stop_ns.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      while (NowNs() < stop) RunOp(plan, *c, run_start_ns);
    });
  }
  while (ready.load() < static_cast<int>(conns.size())) {
    std::this_thread::yield();
  }
  const double cpu_start = server.CpuSeconds();
  const int64_t start = NowNs();
  for (auto& c : conns) {
    c->phase_start_ns = start;
    c->window_ns = phase_ns / static_cast<int64_t>(kWindows);
  }
  stop_ns.store(start + phase_ns, std::memory_order_release);
  for (auto& t : threads) t.join();

  PhaseResult r;
  r.seconds = Seconds(start, NowNs());
  r.server_cpu_s = server.CpuSeconds() - cpu_start;
  r.windows.resize(kWindows);
  for (auto& c : conns) {
    r.answered += c->answered;
    for (size_t w = 0; w < kWindows; ++w) r.windows[w].Merge(c->latency[w]);
    r.attempted += c->attempted;
    r.failed += c->failed;
    r.very_good += c->very_good;
    r.good += c->good;
    r.reports += c->reports;
    r.acks += c->acks;
    r.accepted += c->accepted;
    r.bytes += c->bytes;
    r.roundtrip.Merge(c->roundtrip);
    r.publish_lag.Merge(c->publish_lag);
    if (r.first_error.empty()) r.first_error = c->first_error;
  }
  return r;
}

// ---- Server stats ------------------------------------------------------------

struct ServerStats {
  mscm::net::WireStats wire;
  mscm::runtime::RuntimeStatsSnapshot runtime;

  uint64_t Net(const std::string& key) const {
    auto it = wire.counters.find("net." + key);
    return it == wire.counters.end() ? 0 : it->second;
  }
};

bool FetchStats(NetClient& client, ServerStats* out, std::string* error) {
  const RpcStatus status = client.Stats(&out->wire);
  if (!status.ok()) {
    *error = "stats request failed: " + status.message;
    return false;
  }
  out->runtime = mscm::net::ToSnapshot(out->wire);
  return true;
}

// The end-of-run invariants: every dispatched request completed (the stats
// request being answered is the one still in flight), no response dropped,
// and every report acknowledged.
void CheckServerInvariants(NetClient& client, uint64_t reports_sent,
                           uint64_t acks, ServerStats* final_stats,
                           Result& result) {
  std::string error;
  bool drained = false;
  for (int attempt = 0; attempt < 200 && !drained; ++attempt) {
    if (!FetchStats(client, final_stats, &error)) {
      result.FailCheck(error);
      return;
    }
    drained = final_stats->Net("requests_dispatched") ==
              final_stats->Net("requests_completed") + 1;
    if (!drained) ::usleep(5000);
  }
  if (!drained) {
    result.FailCheck("server stats: requests_dispatched " +
                std::to_string(final_stats->Net("requests_dispatched")) +
                " != requests_completed " +
                std::to_string(final_stats->Net("requests_completed")) +
                " + 1");
  }
  if (final_stats->Net("dropped_responses") != 0) {
    result.FailCheck("server stats: dropped_responses " +
                std::to_string(final_stats->Net("dropped_responses")));
  }
  if (final_stats->Net("feedback_reports") != reports_sent ||
      acks != reports_sent) {
    result.FailCheck("feedback: sent " + std::to_string(reports_sent) +
                " reports, server counted " +
                std::to_string(final_stats->Net("feedback_reports")) +
                ", acks " + std::to_string(acks));
  }
}

// ---- Server-side replay (traced mode) ----------------------------------------

struct ReplayResult {
  Tracer tracer{true, 100, kKeptSpans};
  double inproc_items_per_s = 0.0;
  double evaluate_ns = 0.0;
  double record_ns = 0.0;
  double drain_us_per_report = 0.0;
  double rls_update_ns = 0.0;
};

volatile double g_sink = 0.0;

// Replays sampled client frames through the server's public functions on an
// in-process ServedRuntime configured as mscm_served's defaults (the
// federation is deterministic: it always uses seed 1).
void Replay(const Plan& plan, const std::vector<SampledFrame>& frames,
            ReplayResult& out, Result& result) {
  using namespace mscm;
  net::ServedRuntimeConfig config;  // sites 4, workers 2, probing 50 ms,
  config.server.io_threads = 2;     // refresh + adaptation: as mscm_served
  net::ServedRuntime served(config);
  std::string error;
  if (!served.Start(&error)) {
    result.FailCheck("replay runtime did not start: " + error);
    return;
  }
  runtime::EstimationService& service = served.service();

  std::vector<std::vector<uint8_t>> wire;
  for (const SampledFrame& f : frames) {
    wire.push_back(net::EncodeFrame(f.type, f.request_id, f.payload));
  }

  std::vector<EstimateRequest> singles;
  std::vector<std::vector<EstimateRequest>> batches;
  std::vector<FeedbackReport> reports;
  net::FrameAssembler assembler;
  Tracer idle(false, 0, 0);
  size_t response_bytes = 0;
  auto replay_frame = [&](Tracer& t, const std::vector<uint8_t>& bytes,
                          bool collect) {
    ScopedSpan frame_span(t, kServerFrame);
    std::optional<Frame> frame;
    {
      ScopedSpan span(t, kNetAssemble);
      assembler.Feed(bytes.data(), bytes.size());
      frame = assembler.Next();
    }
    if (!frame.has_value()) {
      result.FailCheck("replay: frame did not reassemble");
      return;
    }
    const uint32_t id = frame->request_id;
    net::WireError err = net::WireError::kNone;
    std::vector<uint8_t> response;
    switch (static_cast<MessageType>(frame->type)) {
      case MessageType::kEstimateRequest: {
        std::optional<EstimateRequest> request;
        {
          ScopedSpan span(t, kNetDecode);
          request = net::DecodeEstimateRequestPayload(frame->payload, &err);
        }
        if (!request.has_value()) break;
        EstimateResponse r;
        {
          ScopedSpan span(t, kRuntimeEstimate);
          r = service.Estimate(*request);
        }
        if (plan.workload == Workload::kServePoint && !MatchesLaw(*request, r)) {
          result.FailCheck("replay: estimate differs from the law");
        }
        {
          ScopedSpan span(t, kNetEncodeResponse);
          response = net::EncodeFrame(MessageType::kEstimateResponse, id,
                                      net::EncodeEstimateResponsePayload(r));
        }
        if (collect) singles.push_back(std::move(*request));
        break;
      }
      case MessageType::kEstimateBatchRequest: {
        std::optional<std::vector<EstimateRequest>> requests;
        {
          ScopedSpan span(t, kNetDecode);
          requests =
              net::DecodeEstimateBatchRequestPayload(frame->payload, &err);
        }
        if (!requests.has_value()) break;
        std::vector<EstimateResponse> rs;
        {
          ScopedSpan span(t, kRuntimeBatch, 0, requests->size());
          rs = service.EstimateBatch(*requests);
        }
        for (size_t i = 0; i < rs.size(); ++i) {
          if (!MatchesLaw((*requests)[i], rs[i])) {
            result.FailCheck("replay: batch item differs from the law");
            break;
          }
        }
        {
          ScopedSpan span(t, kNetEncodeResponse);
          response = net::EncodeFrame(MessageType::kEstimateBatchResponse, id,
                                      net::EncodeEstimateBatchResponse(rs));
        }
        if (collect) batches.push_back(std::move(*requests));
        break;
      }
      case MessageType::kReportActual: {
        std::optional<FeedbackReport> report;
        {
          ScopedSpan span(t, kNetDecode);
          report = net::DecodeReportActualPayload(frame->payload, &err);
        }
        if (!report.has_value()) break;
        bool accepted = false;
        {
          ScopedSpan span(t, kRuntimeRecord);
          accepted = served.adaptation()->Record(*report);
        }
        {
          ScopedSpan span(t, kNetEncodeResponse);
          response = net::EncodeFrame(MessageType::kReportActualAck, id,
                                      net::EncodeReportActualAck(accepted));
        }
        if (collect) reports.push_back(std::move(*report));
        break;
      }
      default:
        break;
    }
    if (response.empty()) {
      result.FailCheck("replay: frame type " + std::to_string(frame->type) +
                  " was not served");
    }
    response_bytes += response.size();
  };

  // One warm pass fills the estimate caches as the live server's were.
  for (const auto& bytes : wire) replay_frame(idle, bytes, true);
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    for (const auto& bytes : wire) replay_frame(out.tracer, bytes, false);
  }

  // In-process throughput of the same service calls, one thread.
  {
    uint64_t items = 0;
    const int64_t t0 = NowNs();
    int64_t t1 = t0;
    while (t1 - t0 < 300'000'000 && (!singles.empty() || !batches.empty())) {
      for (const EstimateRequest& r : singles) {
        g_sink = g_sink + service.Estimate(r).estimate_seconds;
      }
      for (const auto& b : batches) {
        g_sink = g_sink + service.EstimateBatch(b).front().estimate_seconds;
      }
      items += singles.size();
      for (const auto& b : batches) items += b.size();
      t1 = NowNs();
    }
    if (t1 > t0) out.inproc_items_per_s = static_cast<double>(items) / Seconds(t0, t1);
  }

  // CompiledEquations::Evaluate on every sampled request.
  {
    struct Eval {
      const core::CompiledEquations* equations;
      const std::vector<double>* features;
      double probing_cost;
    };
    const runtime::SnapshotCatalog::Snapshot snapshot =
        service.CatalogSnapshot();
    std::vector<Eval> evals;
    auto add = [&](const EstimateRequest& r) {
      const core::CompiledEquations* eq =
          snapshot->FindCompiled(r.site, r.class_id);
      if (eq != nullptr) {
        evals.push_back(
            Eval{eq, &r.features, service.CurrentProbe(r.site).probing_cost});
      }
    };
    for (const EstimateRequest& r : singles) add(r);
    for (const auto& b : batches) {
      for (const EstimateRequest& r : b) add(r);
    }
    uint64_t n = 0;
    const int64_t t0 = NowNs();
    int64_t t1 = t0;
    double sum = 0.0;
    while (!evals.empty() && t1 - t0 < 100'000'000) {
      for (const Eval& e : evals) sum += e.equations->Evaluate(*e.features, e.probing_cost);
      n += evals.size();
      t1 = NowNs();
    }
    g_sink = g_sink + sum;
    if (n > 0) out.evaluate_ns = static_cast<double>(t1 - t0) / static_cast<double>(n);
  }

  // The feedback path, driven directly: Record and DrainOnce on a controller
  // the benchmark owns, and the RLS update the drain performs per report.
  if (!reports.empty()) {
    runtime::AdaptationController controller(&service, nullptr);
    int64_t record_ns = 0;
    int64_t drain_ns = 0;
    uint64_t recorded = 0;
    uint64_t drained = 0;
    constexpr size_t kChunk = 512;  // well under the ring capacity
    while (recorded < 8192) {
      for (size_t i = 0; i < reports.size(); i += kChunk) {
        const size_t end = std::min(reports.size(), i + kChunk);
        const int64_t t0 = NowNs();
        for (size_t j = i; j < end; ++j) controller.Record(reports[j]);
        const int64_t t1 = NowNs();
        drained += controller.DrainOnce();
        const int64_t t2 = NowNs();
        record_ns += t1 - t0;
        drain_ns += t2 - t1;
        recorded += end - i;
      }
    }
    out.record_ns = static_cast<double>(record_ns) / static_cast<double>(recorded);
    if (drained > 0) {
      out.drain_us_per_report =
          static_cast<double>(drain_ns) * 1e-3 / static_cast<double>(drained);
    }

    stats::RlsEstimator rls(4);
    std::vector<std::array<double, 4>> rows;
    for (const FeedbackReport& r : reports) {
      rows.push_back({1.0, r.features[0], r.features[1], r.features[2]});
    }
    uint64_t updates = 0;
    const int64_t t0 = NowNs();
    while (updates < 100000) {
      for (size_t i = 0; i < rows.size(); ++i) {
        rls.Update(rows[i].data(), reports[i].actual_cost);
      }
      updates += rows.size();
    }
    out.rls_update_ns =
        static_cast<double>(NowNs() - t0) / static_cast<double>(updates);
    g_sink = g_sink + rls.coefficients()[0];
  }
  g_sink = g_sink + static_cast<double>(response_bytes);
  served.Shutdown();
}

double PerCall(const Tracer::Totals& t, bool per_item = false) {
  const uint64_t n = per_item ? t.items : t.count;
  return n == 0 ? 0.0 : static_cast<double>(t.self_ns) / static_cast<double>(n);
}

}  // namespace

Result RunServing(const Options& options) {
  Result result;
  const Plan plan = MakePlan(options.workload, options.seed);

  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>(
        i, options.seed, ConnectionOffset(plan.working_set.size(), i)));
  }

  // Set up several times; the last server stays up for the timed run.
  ServedProcess server;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    std::string error;
    const double s = SetUp(plan, options, server, conns, &error);
    if (s < 0.0) {
      result.FailCheck("set-up: " + error);
      return result;
    }
    setups.push_back(s);
    if (i + 1 < kSetups && !server.Stop()) {
      result.FailCheck("mscm_served did not exit cleanly after set-up");
    }
  }

  std::string error;
  ServerStats before;
  if (!FetchStats(conns[0]->client, &before, &error)) {
    result.FailCheck(error);
    return result;
  }
  const int64_t run_start = NowNs();

  PhaseResult untraced;
  PhaseResult traced;
  if (!options.trace) {
    untraced = RunPhase(plan, conns, server, options.seconds, run_start);
  } else {
    untraced = RunPhase(plan, conns, server,
                        options.seconds * kTracePhaseShare, run_start);
    for (auto& c : conns) {
      c->tracer = Tracer(true, c->index, kKeptSpans);
      c->sampling = true;
    }
    traced = RunPhase(plan, conns, server,
                      options.seconds * kTracePhaseShare, run_start);
  }
  const double run_seconds = Seconds(run_start, NowNs());
  const double rss_mb = PeakRssMb(server.pid());

  const PhaseResult& main_phase = options.trace ? traced : untraced;
  ServerStats after;
  CheckServerInvariants(conns[0]->client, untraced.reports + traced.reports,
                        untraced.acks + traced.acks, &after, result);
  for (auto& c : conns) c->client.Close();
  if (!server.Stop()) result.FailCheck("mscm_served did not exit cleanly");

  const uint64_t failed_ops = untraced.failed + traced.failed;
  result.attempted += untraced.attempted + traced.attempted;
  result.failed += failed_ops;
  if (failed_ops > 0) {
    result.Fail(std::to_string(failed_ops) + " failed operations; first: " +
                (untraced.first_error.empty() ? traced.first_error
                                              : untraced.first_error));
  }
  const uint64_t answered = untraced.answered + traced.answered;
  const Histogram latency = main_phase.KeptLatency();
  uint64_t timed_frames = 0;
  for (const Histogram& w : main_phase.windows) timed_frames += w.count();
  result.notes.push_back(
      std::string(WorkloadName(options.workload)) + ": " +
      std::to_string(main_phase.answered) + " estimates in " +
      std::to_string(main_phase.seconds) + " s, latency samples " +
      std::to_string(latency.count()) + " of " +
      std::to_string(timed_frames) + " frames, set-ups " +
      std::to_string(setups.size()));

  if (!options.trace) {
    const PhaseResult& r = untraced;
    const double n = std::max<double>(1.0, static_cast<double>(r.answered));
    result.Add("setup_s", Median(setups), "s");
    result.Add("throughput_per_s", r.items_per_s(), "1/s");
    result.Add("latency_p50_us", latency.PercentileNs(0.50) * 1e-3, "us");
    result.Add("latency_p99_us", latency.PercentileNs(0.99) * 1e-3, "us");
    result.Add("very_good_frac", static_cast<double>(r.very_good) / n, "frac");
    result.Add("good_frac", static_cast<double>(r.good) / n, "frac");
    result.Add("peak_rss_mb", rss_mb, "MiB");
    result.Add("cpu_us_per_op", r.cpu_us_per_op(), "us");
    result.Add("ok_frac",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(std::max<uint64_t>(1, result.attempted)),
               "frac");
    return result;
  }

  // Traced mode: the server-side replay of the traced phase's frames.
  std::vector<SampledFrame> frames;
  for (auto& c : conns) {
    for (auto& f : c->samples) frames.push_back(std::move(f));
  }
  ReplayResult replay;
  Replay(plan, frames, replay, result);

  Tracer client(true, -1, 0);
  for (auto& c : conns) client.Merge(c->tracer);
  if (!options.trace_dir.empty()) {
    std::vector<const Tracer*> tracers;
    for (auto& c : conns) tracers.push_back(&c->tracer);
    tracers.push_back(&replay.tracer);
    const std::string path = options.trace_dir + "/" +
                             WorkloadName(options.workload) + "-seed" +
                             std::to_string(options.seed) + ".csv";
    if (WriteTraceFile(path, tracers)) result.notes.push_back("spans: " + path);
  }

  const Tracer::Totals& frame_totals = replay.tracer.totals(kServerFrame);
  const double server_frame_us =
      frame_totals.count == 0
          ? 0.0
          : static_cast<double>(frame_totals.total_ns) * 1e-3 /
                static_cast<double>(frame_totals.count);
  const double d_hits = static_cast<double>(after.runtime.estimate_cache_hits -
                                            before.runtime.estimate_cache_hits);
  const double d_misses =
      static_cast<double>(after.runtime.estimate_cache_misses -
                          before.runtime.estimate_cache_misses);
  const double kops = static_cast<double>(std::max<uint64_t>(1, answered)) / 1e3;
  const double reports = static_cast<double>(untraced.reports + traced.reports);

  result.Add("net.encode_ns", PerCall(client.totals(kNetEncode)), "ns");
  result.Add("net.decode_response_ns", PerCall(client.totals(kNetDecodeResponse)),
             "ns");
  result.Add("net.assemble_ns", PerCall(replay.tracer.totals(kNetAssemble)), "ns");
  result.Add("net.decode_ns", PerCall(replay.tracer.totals(kNetDecode)), "ns");
  result.Add("net.encode_response_ns",
             PerCall(replay.tracer.totals(kNetEncodeResponse)), "ns");
  result.Add("net.roundtrip_p50_us", traced.roundtrip.PercentileNs(0.50) * 1e-3,
             "us");
  result.Add("net.roundtrip_p99_us", traced.roundtrip.PercentileNs(0.99) * 1e-3,
             "us");
  result.Add("net.transport_us",
             traced.roundtrip.mean_ns() * 1e-3 - server_frame_us, "us");
  result.Add("net.bytes_per_op",
             static_cast<double>(untraced.bytes) /
                 std::max<double>(1.0, static_cast<double>(untraced.answered)),
             "B");
  result.Add("net.wire_efficiency_x",
             untraced.items_per_s() > 0.0
                 ? replay.inproc_items_per_s / untraced.items_per_s()
                 : 0.0,
             "x");
  result.Add("runtime.estimate_ns", PerCall(replay.tracer.totals(kRuntimeEstimate)),
             "ns");
  result.Add("runtime.cache_hit_frac",
             d_hits + d_misses > 0.0 ? d_hits / (d_hits + d_misses) : 0.0, "frac");
  result.Add("runtime.batch_ns_per_item",
             PerCall(replay.tracer.totals(kRuntimeBatch), true), "ns");
  result.Add("core.evaluate_ns", replay.evaluate_ns, "ns");
  result.Add("runtime.server_estimate_p50_us",
             after.runtime.estimate_latency.p50_seconds * 1e6, "us");
  result.Add("runtime.record_ns", replay.record_ns, "ns");
  result.Add("runtime.drain_us_per_report", replay.drain_us_per_report, "us");
  result.Add("stats.rls_update_ns", replay.rls_update_ns, "ns");
  result.Add("runtime.adaptations_per_s",
             static_cast<double>(after.runtime.adaptations_applied -
                                 before.runtime.adaptations_applied) /
                 run_seconds,
             "1/s");
  result.Add("runtime.publish_lag_ms",
             traced.publish_lag.PercentileNs(0.5) * 1e-6, "ms");
  result.Add("runtime.cache_invalidations_per_kop",
             static_cast<double>(after.runtime.estimate_cache_invalidations -
                                 before.runtime.estimate_cache_invalidations) /
                 kops,
             "1/kop");
  result.Add("runtime.feedback_accepted_frac",
             reports > 0.0
                 ? static_cast<double>(untraced.accepted + traced.accepted) / reports
                 : 0.0,
             "frac");
  result.Add("runtime.rederivations",
             static_cast<double>(after.runtime.catalog_swaps -
                                 before.runtime.catalog_swaps),
             "count");
  result.Add("trace.overhead_frac",
             untraced.items_per_s() > 0.0
                 ? 1.0 - traced.items_per_s() / untraced.items_per_s()
                 : 0.0,
             "frac");
  return result;
}

std::string DescribeServing(const Options& options) {
  const Plan plan = MakePlan(options.workload, options.seed);
  const size_t n = plan.working_set.size();
  const size_t frame_items =
      options.workload == Workload::kServeBatch ? kBatchSize : 1;
  const bool reports = options.workload == Workload::kServeFeedback;

  // FNV-1a over the first frames each connection sends, in order, and over
  // its feedback-noise stream.
  uint64_t digest = 1469598103934665603ull;
  auto hash = [&digest](const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      digest = (digest ^ p[i]) * 1099511628211ull;
    }
  };
  for (int c = 0; c < kConnections; ++c) {
    size_t cursor = ConnectionOffset(n, c);
    mscm::Rng noise(FeedbackNoiseSeed(options.seed, c));
    for (size_t frame = 0; frame < 8192; ++frame) {
      for (size_t i = 0; i < frame_items; ++i) {
        const EstimateRequest& r = plan.working_set[(cursor + i) % n];
        hash(r.site.data(), r.site.size());
        hash(&r.class_id, sizeof(r.class_id));
        hash(r.features.data(), r.features.size() * sizeof(double));
      }
      cursor += frame_items;
      if (reports) {
        const double z = noise.Gaussian(0.0, kFeedbackNoise);
        hash(&z, sizeof(z));
      }
    }
  }

  std::map<std::string, size_t> mix;
  for (const EstimateRequest& r : plan.working_set) {
    ++mix[r.site + "/" + mscm::core::Label(r.class_id)];
  }
  std::string mix_json;
  for (const auto& [key, count] : mix) {
    if (!mix_json.empty()) mix_json += ", ";
    mix_json += "\"" + key + "\": " + std::to_string(count);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string("{\"workload\": \"") + WorkloadName(options.workload) +
         "\", \"connections\": " + std::to_string(kConnections) +
         ", \"frame_items\": " + std::to_string(frame_items) +
         ", \"working_set\": " + std::to_string(n) +
         ", \"warm_frames\": " +
         std::to_string(frame_items == 1 ? kWarmEstimates : n / frame_items) +
         ", \"reports\": " + (reports ? "true" : "false") + ", \"mix\": {" +
         mix_json + "}, \"stream_digest\": \"" + hex + "\"}";
}

}  // namespace perfbench
