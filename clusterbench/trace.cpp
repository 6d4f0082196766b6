#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/coordinator.hpp"
#include "cluster/hrw.hpp"
#include "cpu/hybrid_engine.hpp"
#include "prim/thread_pool.hpp"
#include "service/catalog.hpp"
#include "service/scheduler.hpp"
#include "service/sharding.hpp"
#include "transport/wire.hpp"

namespace clusterbench {

namespace {

using namespace trico;
using Clock = std::chrono::steady_clock;

/// Layers whose self times partition a request's work; residual_ms is the
/// untraced p50 minus their sum.
constexpr const char* kTimeLayers[] = {
    "transport.encode",  "transport.checksum",      "transport.decode",
    "transport.frame_io", "cluster.route",          "cluster.gather_verify",
    "service.catalog_key", "service.catalog_acquire", "cpu.prepare",
    "cpu.count"};

constexpr const char* kPreparePhases[] = {"degrees", "orient", "relabel",
                                          "sort",    "csr",    "bitmap"};

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  /// Work inside this span that is timed separately and attributed to
  /// another layer (the checksum passes inside send_frame/recv_frame, the
  /// content hash and prepare inside GraphCatalog::acquire).
  double inner_ms = 0;
};

class Tracer {
 public:
  [[nodiscard]] double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  int open(const char* name, int parent) {
    spans_.push_back(Span{name, request_, parent, now_ms(), 0, 0});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Closes span `id`; returns its duration.
  double close(int id, double inner_ms = 0) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ms = now_ms();
    span.inner_ms = inner_ms;
    return span.end_ms - span.start_ms;
  }
  int add(const char* name, int parent, double start_ms, double end_ms) {
    spans_.push_back(Span{name, request_, parent, start_ms, end_ms, 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void set_request(std::uint64_t id) { request_ = id; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  void clear() { spans_.clear(); }

 private:
  Clock::time_point origin_ = Clock::now();
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
};

/// Runs `body` inside span `name`; returns the span's duration.
template <typename Body>
double timed(Tracer& tracer, const char* name, int parent, Body&& body) {
  const int id = tracer.open(name, parent);
  body();
  return tracer.close(id);
}

/// A connected loopback TCP pair with a receiver thread, so send_frame of
/// a payload larger than the socket buffers cannot block on itself.
class LoopbackLink {
 public:
  LoopbackLink() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    auto* sa = reinterpret_cast<sockaddr*>(&addr);
    if (::bind(listener, sa, sizeof(addr)) < 0 || ::listen(listener, 1) < 0 ||
        ::getsockname(listener, sa, &len) < 0) {
      ::close(listener);
      throw std::runtime_error("loopback listen failed");
    }
    tx_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tx_ >= 0 && ::connect(tx_, sa, sizeof(addr)) == 0) {
      rx_ = ::accept(listener, nullptr, nullptr);
    }
    ::close(listener);
    if (rx_ < 0) {
      if (tx_ >= 0) ::close(tx_);
      throw std::runtime_error("loopback connect failed");
    }
    const int one = 1;  // the Server and Client set TCP_NODELAY too
    ::setsockopt(tx_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(rx_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    receiver_ = std::thread([this] { receive_loop(); });
  }

  ~LoopbackLink() {
    ::shutdown(tx_, SHUT_WR);
    receiver_.join();
    ::close(tx_);
    ::close(rx_);
  }

  LoopbackLink(const LoopbackLink&) = delete;
  LoopbackLink& operator=(const LoopbackLink&) = delete;

  /// send_frame on one end, recv_frame on the other; returns the received
  /// payload.
  std::vector<std::uint8_t> transfer(transport::FrameType type,
                                     std::uint64_t request_id,
                                     std::span<const std::uint8_t> payload) {
    transport::send_frame(tx_, type, request_id, payload);
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !inbox_.empty() || closed_; });
    if (inbox_.empty()) {
      throw std::runtime_error("loopback receiver: " + error_);
    }
    transport::Frame frame = std::move(inbox_.front());
    inbox_.pop_front();
    return std::move(frame.payload);
  }

 private:
  void receive_loop() {
    std::string error = "closed";
    try {
      transport::Frame frame;
      while (transport::recv_frame(rx_, frame)) {
        {
          std::lock_guard lock(mutex_);
          inbox_.push_back(std::move(frame));
        }
        cv_.notify_one();
        frame = transport::Frame{};
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
      error_ = error;
    }
    cv_.notify_all();
  }

  int tx_ = -1;
  int rx_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<transport::Frame> inbox_;
  bool closed_ = false;
  std::string error_;
  std::thread receiver_;  // declared last: uses the members above
};

/// Per-request counts gathered alongside the spans.
struct RequestCounts {
  std::uint64_t bytes = 0;
  std::uint64_t oriented_edges = 0;
  std::uint64_t bitmap_edges = 0;
  std::uint64_t acquires = 0;
  std::uint64_t acquire_hits = 0;
  cpu::PreprocessTimings prepare{};
};

/// The in-process stand-in for the deployment: one catalog per worker with
/// the workers' budget, a pool the size of a worker's backend pool, and one
/// loopback link that every hop's frames cross.
class Replayer {
 public:
  // `serve` leaves its scheduler's backend_threads at the default.
  Replayer() : pool_(service::RequestScheduler::Options{}.backend_threads) {
    service::CatalogOptions options;
    options.byte_budget = kCatalogMb << 20;
    for (int w = 0; w < kWorkers; ++w) {
      catalogs_.push_back(std::make_unique<service::GraphCatalog>(options));
    }
  }

  [[nodiscard]] std::uint64_t resident_entries() const {
    std::uint64_t n = 0;
    for (const auto& catalog : catalogs_) {
      n += catalog->stats().resident_entries;
    }
    return n;
  }
  [[nodiscard]] double max_entry_mb() const { return max_entry_mb_; }

  /// One request through every hop. Returns the count the client decodes.
  TriangleCount request(Tracer& tracer, const GraphPtr& graph,
                        RequestCounts& counts) {
    service::Request request;
    request.graph = graph;
    request.op = service::Operation::kCount;
    request.backend = service::Backend::kCpuHybrid;

    const int root = tracer.open("request", -1);

    // Client -> coordinator.
    std::vector<std::uint8_t> payload;
    timed(tracer, "transport.encode", root,
          [&] { payload = transport::encode_request(request); });
    payload =
        hop(tracer, root, transport::FrameType::kRequest, payload, counts);
    service::Request at_coordinator;
    timed(tracer, "transport.decode", root,
          [&] { at_coordinator = transport::decode_request(payload); });

    // Coordinator: route by content key, then affinity or scatter.
    std::uint64_t key = 0;
    std::vector<std::size_t> ranking;
    timed(tracer, "cluster.route", root, [&] {
      key = service::GraphCatalog::content_hash(*at_coordinator.graph);
      ranking = cluster::hrw_rank_all(key, kWorkers);
    });
    // cb_host keeps the coordinator's default threshold.
    const bool scatter = at_coordinator.graph->edges().size() >=
                         cluster::CoordinatorOptions{}.scatter_edge_threshold;
    const std::uint32_t shards = scatter ? kWorkers : 1;

    std::vector<service::Response> partials;
    for (std::uint32_t i = 0; i < shards; ++i) {
      service::Request sub = at_coordinator;
      if (scatter) {
        sub.shard_index = i;
        sub.shard_count = shards;
      }
      partials.push_back(worker_hop(tracer, root, ranking[i], sub, counts));
    }

    service::Response response;
    if (scatter) {
      timed(tracer, "cluster.gather_verify", root, [&] {
        std::uint64_t expected_begin = 0;
        for (std::uint32_t i = 0; i < shards; ++i) {
          const service::Response& p = partials[i];
          if (p.shard_index != i ||
              p.graph_fingerprint != partials[0].graph_fingerprint ||
              p.shard_row_begin != expected_begin) {
            throw std::runtime_error("replay: gather integrity check failed");
          }
          expected_begin = p.shard_row_end;
          response.triangles += p.triangles;
        }
        response.status = service::Status::kOk;
      });
    } else {
      response = partials[0];
    }

    // Coordinator -> client.
    std::vector<std::uint8_t> out;
    timed(tracer, "transport.encode", root,
          [&] { out = transport::encode_response(response); });
    out = hop(tracer, root, transport::FrameType::kResponse, out, counts);
    service::Response at_client;
    timed(tracer, "transport.decode", root,
          [&] { at_client = transport::decode_response(out); });
    tracer.close(root);
    if (at_client.status != service::Status::kOk) {
      throw std::runtime_error("replay: request failed: " + at_client.reason);
    }
    return at_client.triangles;
  }

 private:
  /// One frame across a loopback hop. The two checksum passes send_frame
  /// and recv_frame make are timed explicitly and subtracted from the
  /// frame-io span, so checksum and socket costs land in separate layers.
  std::vector<std::uint8_t> hop(Tracer& tracer, int parent,
                                transport::FrameType type,
                                const std::vector<std::uint8_t>& payload,
                                RequestCounts& counts) {
    counts.bytes += payload.size();
    double checksum_ms = 0;
    for (int pass = 0; pass < 2; ++pass) {
      checksum_ms += timed(tracer, "transport.checksum", parent, [&] {
        checksum_sink_ ^= transport::frame_checksum(payload);
      });
    }
    const int io = tracer.open("transport.frame_io", parent);
    std::vector<std::uint8_t> received =
        link_.transfer(type, ++frame_id_, payload);
    tracer.close(io, checksum_ms);
    return received;
  }

  service::Response worker_hop(Tracer& tracer, int root, std::size_t worker,
                               const service::Request& sub,
                               RequestCounts& counts) {
    const int parent = tracer.open("worker", root);
    std::vector<std::uint8_t> payload;
    timed(tracer, "transport.encode", parent,
          [&] { payload = transport::encode_request(sub); });
    payload =
        hop(tracer, parent, transport::FrameType::kRequest, payload, counts);
    service::Request request;
    timed(tracer, "transport.decode", parent,
          [&] { request = transport::decode_request(payload); });

    service::GraphCatalog& catalog = *catalogs_[worker];
    // content_key hashes the freshly decoded graph once and memoizes the
    // key by graph identity, so the acquire below reuses it, as the
    // worker's one acquire call would.
    std::uint64_t key = 0;
    timed(tracer, "service.catalog_key", parent,
          [&] { key = catalog.content_key(request.graph); });
    const int acquire = tracer.open("service.catalog_acquire", parent);
    const double acquire_start = tracer.now_ms();
    const service::GraphCatalog::Acquired acquired =
        catalog.acquire(request.graph, pool_);
    ++counts.acquires;
    if (acquired.hit) {
      ++counts.acquire_hits;
    } else {
      // The build ran cpu::prepare; its PreprocessTimings become a child
      // span of the acquire.
      const cpu::PreprocessTimings& t = acquired.entry->prepared.timings;
      tracer.add("cpu.prepare", acquire, acquire_start,
                 acquire_start + t.total_ms());
      counts.prepare.degrees_ms += t.degrees_ms;
      counts.prepare.orient_ms += t.orient_ms;
      counts.prepare.relabel_ms += t.relabel_ms;
      counts.prepare.sort_ms += t.sort_ms;
      counts.prepare.csr_ms += t.csr_ms;
      counts.prepare.bitmap_ms += t.bitmap_ms;
    }
    tracer.close(acquire);
    const cpu::PreparedGraphView& view = acquired.entry->prepared_view;
    max_entry_mb_ = std::max(
        max_entry_mb_, static_cast<double>(acquired.entry->bytes) / (1 << 20));

    service::Response response;
    response.status = service::Status::kOk;
    response.catalog_hit = acquired.hit;
    cpu::CountingStats stats;
    if (request.sharded()) {
      cpu::ShardRange range;
      timed(tracer, "cluster.gather_verify", parent, [&] {
        range = cpu::shard_rows(view, request.shard_index, request.shard_count);
      });
      timed(tracer, "cpu.count", parent, [&] {
        response.triangles = cpu::count_prepared_range(
            view, pool_, range.row_begin, range.row_end, &stats);
      });
      timed(tracer, "cluster.gather_verify", parent, [&] {
        response.shard_checksum = service::shard_slice_checksum(view, range);
        response.graph_fingerprint =
            service::shard_graph_fingerprint(key, view);
      });
      response.shard_index = request.shard_index;
      response.shard_count = request.shard_count;
      response.shard_row_begin = range.row_begin;
      response.shard_row_end = range.row_end;
      response.shard_edges = range.num_edges();
    } else {
      timed(tracer, "cpu.count", parent, [&] {
        response.triangles = cpu::count_prepared(view, pool_, &stats);
      });
    }
    counts.oriented_edges += stats.total_edges();
    counts.bitmap_edges += stats.bitmap_edges;

    std::vector<std::uint8_t> out;
    timed(tracer, "transport.encode", parent,
          [&] { out = transport::encode_response(response); });
    out = hop(tracer, parent, transport::FrameType::kResponse, out, counts);
    service::Response at_coordinator;
    timed(tracer, "transport.decode", parent,
          [&] { at_coordinator = transport::decode_response(out); });
    tracer.close(parent);
    return at_coordinator;
  }

  prim::ThreadPool pool_;
  std::vector<std::unique_ptr<service::GraphCatalog>> catalogs_;
  LoopbackLink link_;
  std::uint64_t frame_id_ = 0;
  std::uint32_t checksum_sink_ = 0;
  double max_entry_mb_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Self time of every span: duration minus its children and inner work.
std::vector<double> self_times(const std::vector<Span>& spans,
                               std::size_t first) {
  std::vector<double> self(spans.size() - first);
  for (std::size_t i = first; i < spans.size(); ++i) {
    self[i - first] += spans[i].end_ms - spans[i].start_ms - spans[i].inner_ms;
    const int parent = spans[i].parent;
    if (parent >= static_cast<int>(first)) {
      self[static_cast<std::size_t>(parent) - first] -=
          spans[i].end_ms - spans[i].start_ms;
    }
  }
  return self;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"inner_ms\":" << s.inner_ms << "}\n";
  }
}

}  // namespace

ReplayResult replay(const Workload& workload, const std::string& spans_path) {
  Replayer replayer;
  Tracer tracer;
  ReplayResult result;

  // Warm-up pass, as in the deployment: every distinct graph once, in the
  // workload's base order.
  for (const std::size_t g : workload.order) {
    RequestCounts ignored;
    if (replayer.request(tracer, workload.graphs[g], ignored) !=
        workload.reference[g]) {
      ++result.wrong_counts;
    }
  }
  tracer.clear();

  // The measured stream: connections interleaved round-robin, each
  // following its own seeded order.
  std::vector<RequestStream> streams;
  for (int c = 0; c < workload.connections; ++c) {
    streams.emplace_back(workload, c);
  }
  std::map<std::string, std::vector<double>> per_request;
  std::vector<double> bytes, edges;
  std::uint64_t bitmap_edges = 0, total_edges = 0, acquires = 0, hits = 0;
  for (std::size_t r = 0; r < workload.trace_requests; ++r) {
    const std::size_t g = streams[r % streams.size()].next();
    tracer.set_request(r);
    const std::size_t first = tracer.size();
    RequestCounts counts;
    if (replayer.request(tracer, workload.graphs[g], counts) !=
        workload.reference[g]) {
      ++result.wrong_counts;
    }

    const std::vector<double> self = self_times(tracer.spans(), first);
    std::map<std::string, double> sums;
    for (const char* layer : kTimeLayers) sums[layer] = 0;
    for (std::size_t i = first; i < tracer.size(); ++i) {
      const std::string name = tracer.spans()[i].name;
      if (sums.count(name) != 0) {
        sums[name] += self[i - first];
        ++result.span_counts[name + "_ms"];
      }
    }
    for (const auto& [layer, ms] : sums) {
      per_request[layer + "_ms"].push_back(ms);
    }
    const cpu::PreprocessTimings& t = counts.prepare;
    const double phases[] = {t.degrees_ms, t.orient_ms, t.relabel_ms,
                             t.sort_ms,    t.csr_ms,    t.bitmap_ms};
    for (std::size_t p = 0; p < std::size(kPreparePhases); ++p) {
      per_request[std::string("cpu.prepare.") + kPreparePhases[p] + "_ms"]
          .push_back(phases[p]);
    }
    bytes.push_back(static_cast<double>(counts.bytes));
    edges.push_back(static_cast<double>(counts.oriented_edges));
    bitmap_edges += counts.bitmap_edges;
    total_edges += counts.oriented_edges;
    acquires += counts.acquires;
    hits += counts.acquire_hits;
  }
  result.requests = workload.trace_requests;

  for (const auto& [name, values] : per_request) {
    result.layers[name] = median(values);
  }
  for (const char* layer : kTimeLayers) {
    result.layer_sum_ms += result.layers[std::string(layer) + "_ms"];
  }
  result.layers["transport.bytes_per_req"] = median(bytes);
  result.layers["cpu.oriented_edges_per_req"] = median(edges);
  result.layers["cpu.bitmap_edge_share"] =
      total_edges == 0 ? 0.0
                       : static_cast<double>(bitmap_edges) /
                             static_cast<double>(total_edges);
  result.acquire_hit_share =
      acquires == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(acquires);
  result.max_entry_mb = replayer.max_entry_mb();
  result.resident_entries = replayer.resident_entries();
  write_spans(tracer.spans(), spans_path);
  return result;
}

}  // namespace clusterbench
