// Codec microbench for the serving boundary (src/net): nanoseconds and heap
// allocations per step of a frame's trip through mscm_served, and of the
// client's batch encode. Allocations are counted by a global operator new
// replacement, so they are exact and independent of the machine.
//
// Steps, each over warm storage on one thread, in the order a server runs
// them (a point frame carries one estimate request, a batch frame 64):
//   assemble point / batch  — FrameAssembler::Feed of one frame + NextView
//   assemble 4KB / 64KB read — one Feed of a read full of point frames and
//                             a NextView per frame, reported per frame (the
//                             server reads up to 64 KiB at a time)
//   decode point / batch    — Decode*Into the loop's reused request storage
//   encode point / batch    — AppendFrame of the response frame, header and
//                             payload, into a reused write buffer
//   serve point / batch     — one round trip through a real EstimateServer
//                             on loopback, pricing distinct requests
//                             through an EstimationService, as
//                             mscm_served does. The client sends
//                             prebuilt frames and reads each
//                             response into a fixed buffer with bare socket
//                             calls, so every allocation counted is the
//                             server's, from its read through assembly,
//                             decode, pricing and encode to the send. The
//                             ns include the loopback transport.
//   client encode batch     — EncodeEstimateBatchRequest, as a client calls
//                             it: a fresh payload vector per frame
//
// Writes BENCH_codec.json to the working directory. `--smoke` runs fewer
// iterations, writes no JSON, and exits 1 if a warm server-side point or
// batch frame makes any heap allocation in any step (serve included), or if
// the 64 KB read costs more than 1.5x the 4 KB read per frame, each row at
// its best of interleaved passes (the assembler must stay linear in the
// frames one read carries).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "common/text_table.h"
#include "core/cost_model.h"
#include "core/explanatory.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "runtime/estimation_service.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mscm;
using Clock = std::chrono::steady_clock;
using runtime::EstimateRequest;
using runtime::EstimateResponse;

constexpr size_t kBatchItems = 64;
// Distinct requests the serve steps cycle through.
constexpr size_t kDistinct = 65536;

volatile uint64_t g_sink = 0;

struct Step {
  std::string name;
  size_t frames = 0;  // per timed call
  double ns_per_frame = 0.0;
  double allocs_per_frame = 0.0;
  bool gated = false;  // a server-side step that must not allocate
};

// Runs `body` `iters` times after max(iters / 4, 16) warm-up calls; each
// call handles `frames` frames. Best time of `reps` passes; allocations from
// the last pass.
Step Measure(const std::string& name, size_t frames, size_t iters,
             size_t reps, bool gated, const std::function<void()>& body) {
  for (size_t i = 0; i < std::max<size_t>(iters / 4, 16); ++i) body();
  Step step{name, frames, 0.0, 0.0, gated};
  double best = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const auto started = Clock::now();
    for (size_t i = 0; i < iters; ++i) body();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - started)
            .count();
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (rep == 0 || ns < best) best = ns;
    step.allocs_per_frame = static_cast<double>(allocs) /
                            static_cast<double>(iters * frames);
  }
  step.ns_per_frame = best / static_cast<double>(iters * frames);
  return step;
}

// A 4-state model over 3 selected variables (as micro_runtime's).
core::CostModel MakeModel(core::QueryClassId cls, uint64_t seed) {
  const size_t n_features = core::VariableSet::ForClass(cls).size();
  core::ObservationSet obs;
  Rng rng(seed);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 50; ++i) {
      core::Observation o;
      o.probing_cost = s + 0.5;
      o.features.assign(n_features, 0.0);
      for (size_t j = 0; j < 3; ++j) o.features[j] = rng.Uniform(1.0, 10.0);
      o.cost = (s + 1.0) * (0.5 * o.features[0] + 0.2 * o.features[1] +
                            0.1 * o.features[2]);
      obs.push_back(std::move(o));
    }
  }
  return core::FitCostModel(
      cls, obs, {0, 1, 2},
      core::ContentionStates::FromBoundaries({1.0, 2.0, 3.0}),
      core::QualitativeForm::kGeneral);
}

// Requests over two sites and the unary and join classes (7 and 12
// features), distinct by their first features.
std::vector<EstimateRequest> MakeRequests(size_t n) {
  const std::string sites[] = {"site0", "site1"};
  const core::QueryClassId classes[] = {core::QueryClassId::kUnarySeqScan,
                                        core::QueryClassId::kJoinNoIndex};
  Rng rng(29);
  std::vector<EstimateRequest> requests(n);
  for (size_t i = 0; i < n; ++i) {
    EstimateRequest& r = requests[i];
    r.site = sites[i % 2];
    r.class_id = classes[(i / 2) % 2];
    r.features.assign(core::VariableSet::ForClass(r.class_id).size(), 0.0);
    for (size_t j = 0; j < 3; ++j) r.features[j] = rng.Uniform(1.0, 10.0);
  }
  return requests;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Sends `frame` whole, then reads exactly `response_size` bytes into `out`.
bool RoundTrip(int fd, const std::vector<uint8_t>& frame, uint8_t* out,
               size_t response_size) {
  for (size_t sent = 0; sent < frame.size();) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  for (size_t got = 0; got < response_size;) {
    const ssize_t n = ::recv(fd, out + got, response_size - got, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

std::vector<uint8_t> PointFrame(const EstimateRequest& request, uint32_t id) {
  net::WireWriter w;
  net::EncodeEstimateRequest(request, w);
  return net::EncodeFrame(net::MessageType::kEstimateRequest, id, w.Take());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const size_t iters = smoke ? 2000 : 50000;
  const size_t reps = smoke ? 3 : 5;

  // The service the serve steps price through.
  runtime::EstimationServiceConfig config;
  config.probe_ttl = std::chrono::hours(1);
  runtime::EstimationService service(config);
  for (const std::string site : {"site0", "site1"}) {
    service.RegisterModel(site,
                          MakeModel(core::QueryClassId::kUnarySeqScan, 1));
    service.RegisterModel(site,
                          MakeModel(core::QueryClassId::kJoinNoIndex, 2));
    service.RegisterSite(site, [] { return 1.5; });
    service.ProbeNow(site);
  }

  const std::vector<EstimateRequest> requests = MakeRequests(kDistinct);
  std::vector<std::vector<uint8_t>> point_frames;
  std::vector<std::vector<uint8_t>> batch_frames;
  std::vector<std::vector<uint8_t>> batch_payloads;
  for (size_t i = 0; i < kDistinct; ++i) {
    point_frames.push_back(PointFrame(requests[i], static_cast<uint32_t>(i)));
  }
  for (size_t i = 0; i < kDistinct; i += kBatchItems) {
    const std::vector<EstimateRequest> batch(
        requests.begin() + static_cast<long>(i),
        requests.begin() + static_cast<long>(i + kBatchItems));
    batch_payloads.push_back(net::EncodeEstimateBatchRequest(batch));
    batch_frames.push_back(net::EncodeFrame(
        net::MessageType::kEstimateBatchRequest, static_cast<uint32_t>(i),
        batch_payloads.back()));
  }

  // One read's worth of whole point frames.
  const auto read_of = [&](size_t bytes) {
    std::vector<uint8_t> read;
    for (size_t i = 0; read.size() + point_frames[i].size() <= bytes; ++i) {
      read.insert(read.end(), point_frames[i].begin(), point_frames[i].end());
    }
    return read;
  };
  const std::vector<uint8_t> read_4k = read_of(4096);
  const std::vector<uint8_t> read_64k = read_of(65536);
  const auto frames_in = [](const std::vector<uint8_t>& read) {
    net::FrameAssembler a;
    a.Feed(read.data(), read.size());
    return a.frames_ready();
  };

  // The loop's reused storage, as the server keeps it.
  net::FrameAssembler assembler;
  EstimateRequest request;
  std::vector<EstimateRequest> batch;
  size_t batch_size = 0;
  std::vector<EstimateResponse> responses(kBatchItems);
  std::vector<uint8_t> write_buf;
  size_t cursor = 0;

  const auto assemble = [&](const std::vector<uint8_t>& bytes) {
    assembler.Feed(bytes.data(), bytes.size());
    return *assembler.NextView();
  };
  const auto queue = [&](net::MessageType type, size_t payload_size,
                         const auto& encode) {
    write_buf.clear();
    net::AppendFrame(&write_buf, type, 1, payload_size, encode);
  };
  const EstimateResponse sample_response = service.Estimate(requests[0]);
  for (size_t i = 0; i < kBatchItems; ++i) {
    responses[i] = service.Estimate(requests[i]);
  }

  std::vector<Step> steps;
  steps.push_back(Measure("assemble point", 1, iters, reps, true, [&] {
    g_sink = g_sink + assemble(point_frames[cursor++ % kDistinct]).request_id;
  }));
  steps.push_back(Measure("assemble batch", 1, iters, reps, true, [&] {
    g_sink = g_sink +
             assemble(batch_frames[cursor++ % batch_frames.size()]).request_id;
  }));
  const size_t frames_4k = frames_in(read_4k);
  const size_t frames_64k = frames_in(read_64k);
  const auto assemble_read = [&](const std::vector<uint8_t>& read) {
    assembler.Feed(read.data(), read.size());
    while (const auto frame = assembler.NextView()) {
      g_sink = g_sink + frame->request_id;
    }
  };
  // The gate compares the two read rows, so they run as interleaved pairs
  // of passes over the same number of frames, and the gate reads each row's
  // best pass: load from the box's neighbours only slows a pass, so the
  // best of several is the row's own cost, where a ratio taken within one
  // pair moves with whatever ran beside that pair.
  const size_t read_frames = 16 * iters;
  const size_t read_pairs = 2 * reps + 1;
  Step best_4k;
  Step best_64k;
  for (size_t pair = 0; pair < read_pairs; ++pair) {
    const Step small =
        Measure("assemble 4KB read", frames_4k, read_frames / frames_4k, 1,
                true, [&] { assemble_read(read_4k); });
    const Step large =
        Measure("assemble 64KB read", frames_64k, read_frames / frames_64k,
                1, true, [&] { assemble_read(read_64k); });
    if (pair == 0 || small.ns_per_frame < best_4k.ns_per_frame) {
      best_4k = small;
    }
    if (pair == 0 || large.ns_per_frame < best_64k.ns_per_frame) {
      best_64k = large;
    }
  }
  steps.push_back(best_4k);
  steps.push_back(best_64k);
  const double read_ratio = best_64k.ns_per_frame / best_4k.ns_per_frame;

  // Payload views of every frame, decoded in the steps below.
  std::vector<std::span<const uint8_t>> point_payloads;
  for (const auto& f : point_frames) {
    point_payloads.push_back(
        std::span<const uint8_t>(f).subspan(net::kHeaderSize));
  }
  steps.push_back(Measure("decode point", 1, iters, reps, true, [&] {
    g_sink = g_sink + static_cast<uint64_t>(net::DecodeEstimateRequestInto(
                          point_payloads[cursor++ % kDistinct], &request));
  }));
  steps.push_back(Measure("decode batch", 1, iters, reps, true, [&] {
    g_sink = g_sink +
             static_cast<uint64_t>(net::DecodeEstimateBatchRequestInto(
                 batch_payloads[cursor++ % batch_payloads.size()], &batch,
                 &batch_size));
  }));
  steps.push_back(Measure("encode point", 1, iters, reps, true, [&] {
    queue(net::MessageType::kEstimateResponse,
          net::kEstimateResponsePayloadSize, [&](net::WireWriter& w) {
            net::EncodeEstimateResponsePayload(sample_response, w);
          });
  }));
  steps.push_back(Measure("encode batch", 1, iters, reps, true, [&] {
    queue(net::MessageType::kEstimateBatchResponse,
          net::EstimateBatchResponsePayloadSize(kBatchItems),
          [&](net::WireWriter& w) {
            net::EncodeEstimateBatchResponse(responses, w);
          });
  }));

  net::EstimateServer server(&service);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "micro_codec: server start failed: %s\n",
                 error.c_str());
    return 1;
  }
  const int fd = ConnectLoopback(server.port());
  if (fd < 0) {
    std::fprintf(stderr, "micro_codec: connect failed\n");
    return 1;
  }
  std::vector<uint8_t> response(
      net::kHeaderSize + net::EstimateBatchResponsePayloadSize(kBatchItems));
  const auto round_trip = [&](const std::vector<uint8_t>& frame,
                              net::MessageType want, size_t payload_size) {
    if (!RoundTrip(fd, frame, response.data(),
                   net::kHeaderSize + payload_size) ||
        response[3] != static_cast<uint8_t>(want)) {
      std::fprintf(stderr, "micro_codec: no %s from the server\n",
                   net::ToString(want));
      std::abort();
    }
  };
  steps.push_back(Measure("serve point", 1, iters / 4, reps, true, [&] {
    round_trip(point_frames[cursor++ % kDistinct],
               net::MessageType::kEstimateResponse,
               net::kEstimateResponsePayloadSize);
  }));
  steps.push_back(Measure("serve batch", 1, iters / 4, reps, true, [&] {
    round_trip(batch_frames[cursor++ % batch_frames.size()],
               net::MessageType::kEstimateBatchResponse,
               net::EstimateBatchResponsePayloadSize(kBatchItems));
  }));
  ::close(fd);
  server.Stop();

  std::vector<std::vector<EstimateRequest>> client_batches;
  for (size_t i = 0; i < 8; ++i) {
    client_batches.emplace_back(
        requests.begin() + static_cast<long>(i * kBatchItems),
        requests.begin() + static_cast<long>((i + 1) * kBatchItems));
  }
  steps.push_back(Measure("client encode batch", 1, iters / 4, reps, false,
                          [&] {
                            g_sink = g_sink +
                                     net::EncodeEstimateBatchRequest(
                                         client_batches[cursor++ % 8])
                                         .size();
                          }));

  TextTable table({"step", "frames/call", "ns/frame", "allocs/frame"});
  for (const Step& s : steps) {
    table.AddRow({s.name, Format("%zu", s.frames),
                  Format("%.1f", s.ns_per_frame),
                  Format("%.2f", s.allocs_per_frame)});
  }
  std::printf("micro_codec: %zu iterations, best of %zu passes%s\n\n%s\n",
              iters, reps, smoke ? " [smoke]" : "", table.Render().c_str());

  std::printf("assemble per frame, 64KB read / 4KB read: %.2fx (best of "
              "%zu interleaved passes each; %zu vs %zu frames per read)\n",
              read_ratio, read_pairs, frames_64k, frames_4k);

  if (smoke) {
    bool fail = false;
    for (const Step& s : steps) {
      if (s.gated && s.allocs_per_frame != 0.0) {
        std::printf("\nSMOKE FAIL: %s made %.2f heap allocations per warm "
                    "frame; the server path from assembly to a queued "
                    "response should make none\n",
                    s.name.c_str(), s.allocs_per_frame);
        fail = true;
      }
    }
    if (!(read_ratio <= 1.5)) {
      std::printf("\nSMOKE FAIL: a 64KB read costs %.2fx a 4KB read per "
                  "frame; frame assembly should be linear in the frames one "
                  "read carries\n",
                  read_ratio);
      fail = true;
    }
    if (fail) return 1;
    std::printf("\nsmoke ok: warm point and batch frames made zero heap "
                "allocations in every server-side step\n");
    return 0;  // no JSON in smoke mode
  }

  FILE* json = std::fopen("BENCH_codec.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"micro_codec\",\n");
    std::fprintf(json, "  \"iterations\": %zu,\n  \"batch_items\": %zu,\n",
                 iters, kBatchItems);
    std::fprintf(json, "  \"steps\": [\n");
    for (size_t i = 0; i < steps.size(); ++i) {
      const Step& s = steps[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"frames_per_call\": %zu, "
                   "\"ns_per_frame\": %.1f, \"allocs_per_frame\": %.3f, "
                   "\"server_side\": %s}%s\n",
                   s.name.c_str(), s.frames, s.ns_per_frame,
                   s.allocs_per_frame, s.gated ? "true" : "false",
                   i + 1 < steps.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"assemble_64k_over_4k_x\": %.3f\n}\n", read_ratio);
    std::fclose(json);
    std::printf("\nwrote BENCH_codec.json\n");
  }
  return 0;
}
