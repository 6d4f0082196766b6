// cb_loadgen — the benchmark's load generator and traced replay.
//
//   cb_loadgen --workload W --seed N --seconds S --trace 0|1
//              [--commit ID] [--out DIR] [--host PATH] [--cli PATH]
//
// --host and --cli default to the cb_host and trico_cli this build made.
//
// End-to-end mode (--trace 0): four times over, spawns the coordinator host
// (cb_host, which supervises kWorkers `trico_cli serve` workers), times
// spawn + warm-up pass, settles, and measures a quarter of S seconds with
// one closed-loop Client per connection. setup_s and peak_rss_mb are the
// lower medians of the four deployments; the latency and rate figures pool
// every measured request. Prints the run record, a metric table and, last,
// one JSON result line.
//
// Traced mode (--trace 1): replays the same seeded stream in-process with
// spans around every layer call (trace.cpp), then measures the deployments
// as above, untraced, for the residual and the coordinator's counters.
//
// Failed requests in any phase (warm-up, settle, measured) count against
// ok_share; they do not end the run.
//
// Exit status: 0 on a valid run; 1 when a count was wrong in any phase (the
// result line says correct=false); 3 when a workload self-check failed (the
// run is invalid, no result line); 2 on bad arguments; 4 on any other
// failure, including a deployment that completed no request.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/hybrid_engine.hpp"
#include "cpu/simd/cpu_features.hpp"
#include "deploy.hpp"
#include "gen/generators.hpp"
#include "trace.hpp"
#include "transport/client.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

using namespace trico;
using namespace clusterbench;

namespace {

/// Deployments per run; setup_s and peak_rss_mb are their lower medians, and
/// the measured time is split evenly between them.
constexpr int kDeployments = 4;
/// Closed-loop load before timing starts: the first seconds after the
/// warm-up pass run measurably off the steady rate.
constexpr double kSettleSeconds = 2.0;
/// p90 needs at least ten samples beyond it: a run completes at least this
/// many requests.
constexpr std::size_t kMinSamples = 100;
constexpr int kRequestTimeoutMs = 20'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string host = CB_HOST_PATH;
  std::string cli = CB_CLI_PATH;
  std::string commit = "unknown";
  std::string out = ".";
};

[[noreturn]] void usage() {
  std::cerr << "usage: cb_loadgen --workload W --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--out DIR] [--host PATH] "
               "[--cli PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = v == "1";
    else if (arg == "--host") a.host = v;
    else if (arg == "--cli") a.cli = v;
    else if (arg == "--commit") a.commit = v;
    else if (arg == "--out") a.out = v;
    else usage();
  }
  if (a.workload.empty() || a.host.empty() || a.cli.empty() || a.seconds <= 0) {
    usage();
  }
  return a;
}

/// Thrown when a run's own record shows it did not exercise what the
/// workload exists for.
struct InvalidRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Sample {
  double end_s = 0;  ///< completion, seconds into the phase
  double latency_ms = 0;
  bool ok = false;   ///< kOk with the reference count
  bool hit = false;  ///< Response::catalog_hit
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

struct Phase {
  std::vector<Sample> samples;
  std::uint64_t wrong = 0;  ///< kOk with a count other than the reference
  double elapsed_s = 0;

  [[nodiscard]] std::uint64_t ok() const {
    return static_cast<std::uint64_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
  }
  [[nodiscard]] double hit_share() const {
    std::uint64_t hits = 0;
    for (const Sample& s : samples) hits += s.ok && s.hit ? 1 : 0;
    const std::uint64_t n = ok();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// The end-to-end figures of a measured phase, pooled over all of its
/// requests.
struct Figures {
  double req_per_s = 0;
  double p50_ms = 0;
  double p90_ms = 0;
};

Figures figures(const Phase& phase) {
  // A failed request counts as taking the whole request timeout.
  std::vector<double> latencies;
  for (const Sample& s : phase.samples) {
    latencies.push_back(s.ok ? s.latency_ms : kRequestTimeoutMs);
  }
  Figures f;
  f.req_per_s = static_cast<double>(phase.ok()) / phase.elapsed_s;
  f.p50_ms = percentile(latencies, 0.50);
  f.p90_ms = percentile(latencies, 0.90);
  return f;
}

transport::ClientOptions client_options(std::uint16_t port) {
  transport::ClientOptions o;
  o.port = port;
  o.request_timeout_ms = kRequestTimeoutMs;
  return o;
}

/// The closed-loop clients of one deployment: one Client and one seeded
/// request stream per connection.
class LoadGenerator {
 public:
  LoadGenerator(const Workload& workload, std::uint16_t port)
      : workload_(workload), control_(client_options(port)) {
    for (int c = 0; c < workload.connections; ++c) {
      clients_.push_back(
          std::make_unique<transport::Client>(client_options(port)));
      streams_.emplace_back(workload, c);
    }
  }

  /// Sends every distinct graph once on the first connection, in the
  /// workload's base order.
  Phase warm_up() {
    Phase phase;
    util::Timer timer;
    for (const std::size_t g : workload_.order) {
      phase.samples.push_back(send(0, g, timer, phase.wrong));
    }
    phase.elapsed_s = timer.elapsed_seconds();
    return phase;
  }

  /// Closed loop on every connection for `seconds` (longer, up to three
  /// times as long, until `min_samples` requests completed).
  Phase run(double seconds, std::size_t min_samples) {
    Phase phase;
    std::mutex mutex;
    std::atomic<std::size_t> completed{0};
    util::Timer timer;
    std::vector<std::thread> threads;
    for (int c = 0; c < workload_.connections; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Sample> mine;
        std::uint64_t wrong = 0;
        for (;;) {
          const double t = timer.elapsed_seconds();
          if (t >= 3 * seconds) break;
          if (t >= seconds && completed.load() >= min_samples) break;
          mine.push_back(send(c, streams_[c].next(), timer, wrong));
          completed.fetch_add(1);
        }
        std::lock_guard lock(mutex);
        phase.samples.insert(phase.samples.end(), mine.begin(), mine.end());
        phase.wrong += wrong;
      });
    }
    for (std::thread& t : threads) t.join();
    phase.elapsed_s = timer.elapsed_seconds();
    return phase;
  }

  ClusterCounters counters() {
    return parse_cluster_metrics(control_.fetch_metrics());
  }

 private:
  /// One request for graph `g` on connection `c`; `wrong` counts kOk
  /// responses with another count than the reference.
  Sample send(int c, std::size_t g, const util::Timer& phase,
              std::uint64_t& wrong) {
    Sample s;
    util::Timer rtt;
    try {
      const service::Response r = clients_[c]->execute(request(g));
      s.latency_ms = rtt.elapsed_ms();
      const bool ok = r.status == service::Status::kOk;
      s.ok = ok && r.triangles == workload_.reference[g];
      s.hit = r.catalog_hit;
      if (ok && !s.ok) ++wrong;
      if (!ok) {
        std::cerr << "request failed: " << service::to_string(r.status) << " "
                  << r.reason << "\n";
      }
    } catch (const std::exception& e) {
      s.latency_ms = rtt.elapsed_ms();
      std::cerr << "request failed: " << e.what() << "\n";
    }
    s.end_s = phase.elapsed_seconds();
    return s;
  }

  [[nodiscard]] service::Request request(std::size_t g) const {
    service::Request r;
    r.graph = workload_.graphs[g];
    r.op = service::Operation::kCount;
    r.backend = service::Backend::kCpuHybrid;  // skips result memoization
    return r;
  }

  const Workload& workload_;
  transport::Client control_;
  std::vector<std::unique_ptr<transport::Client>> clients_;
  std::vector<RequestStream> streams_;
};

/// The ISA the counting engine dispatches to on this host.
std::string probe_isa() {
  prim::ThreadPool pool(1);
  const EdgeList probe = gen::erdos_renyi(256, 2048, 1);
  return cpu::simd::to_string(cpu::count_engine(probe, pool).counting.isa);
}

/// What one run measured, over all of its deployments.
struct Measured {
  Phase phase;  ///< the measured phases back to back
  /// Warm-up and settle requests: not timed, but their failures and wrong
  /// counts count.
  std::uint64_t unmeasured = 0, unmeasured_ok = 0, unmeasured_wrong = 0;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  CpuTimes cpu{};  ///< jiffies summed over the measured phases
  // Coordinator counters: deltas over the measured phases, and (for the
  // validity checks) totals over each deployment's life.
  std::uint64_t scatter = 0, shards = 0, batched = 0, dispatches = 0;
  std::uint64_t scatter_total = 0, rescatters = 0, restarts = 0;

  void add_unmeasured(const Phase& p) {
    unmeasured += p.samples.size();
    unmeasured_ok += p.ok();
    unmeasured_wrong += p.wrong;
  }
  void add(Phase p) {
    for (Sample& s : p.samples) {
      s.end_s += phase.elapsed_s;
      phase.samples.push_back(s);
    }
    phase.elapsed_s += p.elapsed_s;
    phase.wrong += p.wrong;
  }
  [[nodiscard]] double steal() const { return steal_share({}, cpu); }
  [[nodiscard]] std::uint64_t attempted() const {
    return phase.samples.size() + unmeasured;
  }
  [[nodiscard]] std::uint64_t ok() const { return phase.ok() + unmeasured_ok; }
  [[nodiscard]] std::uint64_t wrong() const {
    return phase.wrong + unmeasured_wrong;
  }
};

/// Sets up kDeployments deployments one after another. Each is timed from
/// spawn to the end of its warm-up pass, settled, measured for its share of
/// `seconds`, read (counters, peak RSS) and stopped. Spreading the measured
/// time over several deployments averages out what differs between one
/// deployment and the next (scatter-large's rate differed by ~10% between
/// deployments and by ~2% within one).
Measured measure(const Args& args, const Workload& w) {
  Measured m;
  for (int k = 0; k < kDeployments; ++k) {
    util::Timer setup;
    Deployment deployment(args.host, args.cli);
    LoadGenerator gen(w, deployment.port());
    m.add_unmeasured(gen.warm_up());
    m.setup_s.push_back(setup.elapsed_seconds());

    m.add_unmeasured(gen.run(kSettleSeconds, 0));
    const ClusterCounters before = gen.counters();
    const CpuTimes cpu0 = read_cpu_times();
    Phase measured = gen.run(args.seconds / kDeployments,
                             (kMinSamples + kDeployments - 1) / kDeployments);
    const CpuTimes cpu1 = read_cpu_times();
    if (measured.ok() == 0) {
      throw std::runtime_error("a deployment completed no request");
    }
    m.add(std::move(measured));
    const ClusterCounters after = gen.counters();
    double rss = vm_hwm_mb(deployment.pid());
    for (const pid_t pid : after.worker_pids) rss += vm_hwm_mb(pid);
    deployment.stop();

    m.peak_rss_mb.push_back(rss);
    m.cpu.total += cpu1.total - cpu0.total;
    m.cpu.steal += cpu1.steal - cpu0.steal;
    m.scatter += after.scatter - before.scatter;
    m.shards += after.shards - before.shards;
    m.batched += after.batched - before.batched;
    m.dispatches += after.dispatches() - before.dispatches();
    m.scatter_total += after.scatter;
    m.rescatters += after.rescatters;
    m.restarts += after.restarts;
  }
  return m;
}

double expected_hit_share(const std::string& workload) {
  return workload == "cold-distinct" ? 0.0 : 1.0;
}

/// Shards per scattered request in the measured phases; 0 when none
/// scattered.
double shards_per_req(const Measured& m) {
  return m.scatter == 0 ? 0.0
                        : static_cast<double>(m.shards) /
                              static_cast<double>(m.scatter);
}

/// The workload self-checks: the mechanism each workload exists for fired.
void self_check(const Workload& w, const Measured& m) {
  std::ostringstream bad;
  const double hit = m.phase.hit_share();
  if (hit != expected_hit_share(w.name)) {
    bad << "catalog hit share " << hit << " (expected "
        << expected_hit_share(w.name) << "); ";
  }
  const bool scatters = w.name == "scatter-large";
  if (scatters && (m.scatter != m.phase.samples.size() ||
                   shards_per_req(m) != kWorkers)) {
    bad << m.scatter << " scatter plans for " << m.phase.samples.size()
        << " requests at " << shards_per_req(m) << " shards each (expected "
        << kWorkers << "); ";
  }
  if (!scatters && m.scatter_total != 0) {
    bad << m.scatter_total << " scatter plans (expected none); ";
  }
  if (m.rescatters != 0) bad << "rescatters=" << m.rescatters << "; ";
  if (m.restarts != 0) bad << "worker restarts=" << m.restarts << "; ";
  if (m.phase.samples.size() < kMinSamples) {
    bad << "only " << m.phase.samples.size() << " requests (p90 needs "
        << kMinSamples << "); ";
  }
  if (!bad.str().empty()) throw InvalidRun(bad.str());
}


struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void print_list(std::ostream& out, const char* name,
                const std::vector<double>& values) {
  out << ", \"" << name << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? ", " : "") << values[i];
  }
  out << "]";
}

void print_record(const Args& args, const std::string& isa,
                  const Measured& m) {
  std::ostringstream out;
  out.precision(6);
  out << "record {\"workload\": \"" << args.workload << "\", \"seed\": "
      << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": \"" << isa << "\", \"commit\": \"" << args.commit
      << "\", \"steal_share\": " << m.steal() << ", \"measured_s\": "
      << m.phase.elapsed_s << ", \"requests\": " << m.phase.samples.size()
      << ", \"unmeasured_requests\": " << m.unmeasured
      << ", \"failed\": " << m.attempted() - m.ok()
      << ", \"wrong_counts\": " << m.wrong()
      << ", \"catalog_hit_share\": " << m.phase.hit_share()
      << ", \"shards_per_req\": " << shards_per_req(m)
      << ", \"rescatters\": " << m.rescatters
      << ", \"restarts\": " << m.restarts
      << ", \"catalog_mb\": " << kCatalogMb;
  print_list(out, "setup_s", m.setup_s);
  print_list(out, "peak_rss_mb", m.peak_rss_mb);
  out << "}";
  std::printf("%s\n", out.str().c_str());
}

int run_end_to_end(const Args& args, const Workload& w,
                   const std::string& isa) {
  Measured m = measure(args, w);
  print_record(args, isa, m);
  const bool correct = m.wrong() == 0;
  if (correct) self_check(w, m);  // a wrong count outranks an invalid run
  const Figures f = figures(m.phase);
  print_result(correct, m.attempted(), m.attempted() - m.ok(),
               {{"req_per_s", f.req_per_s, "req/s"},
                {"latency_p50_ms", f.p50_ms, "ms"},
                {"latency_p90_ms", f.p90_ms, "ms"},
                {"ok_share",
                 static_cast<double>(m.ok()) /
                     static_cast<double>(m.attempted()),
                 "fraction"},
                {"setup_s", percentile(m.setup_s, 0.5), "s"},
                {"peak_rss_mb", percentile(m.peak_rss_mb, 0.5), "MB"}});
  return correct ? 0 : 1;
}

int run_traced(const Args& args, const Workload& w, const std::string& isa) {
  const std::string spans = args.out + "/" + w.name + "-seed" +
                            std::to_string(args.seed) + ".spans.jsonl";
  const ReplayResult replayed = replay(w, spans);

  // The untraced deployments, for the residual and the coordinator counters.
  const Measured m = measure(args, w);
  print_record(args, isa, m);
  const bool correct = replayed.wrong_counts == 0 && m.wrong() == 0;
  if (correct) {
    if (replayed.acquire_hit_share != expected_hit_share(w.name)) {
      std::ostringstream what;
      what << "replay catalog hit share " << replayed.acquire_hit_share;
      throw InvalidRun(what.str());
    }
    self_check(w, m);
  }
  const double p50 = figures(m.phase).p50_ms;
  std::vector<Metric> metrics;
  for (const auto& [name, value] : replayed.layers) {
    std::string unit = "ms";
    if (name == "transport.bytes_per_req") unit = "bytes";
    if (name == "cpu.oriented_edges_per_req") unit = "count";
    if (name == "cpu.bitmap_edge_share") unit = "fraction";
    metrics.push_back({name, value, unit});
  }
  metrics.push_back({"cluster.shards_per_req", shards_per_req(m), "count"});
  metrics.push_back(
      {"cluster.batched_share",
       m.dispatches == 0 ? 0.0
                         : static_cast<double>(m.batched) /
                               static_cast<double>(m.dispatches),
       "fraction"});
  metrics.push_back(
      {"service.catalog_hit_share", m.phase.hit_share(), "fraction"});
  metrics.push_back({"residual_ms", p50 - replayed.layer_sum_ms, "ms"});

  std::printf("traced %zu requests; spans per layer:", replayed.requests);
  for (const auto& [name, count] : replayed.span_counts) {
    std::printf(" %s=%zu", name.c_str(), count);
  }
  std::printf("\ncatalog entries up to %.2f MB; %llu resident across %d "
              "workers at the end of the replay (budget %llu MB each)",
              replayed.max_entry_mb,
              static_cast<unsigned long long>(replayed.resident_entries),
              kWorkers, static_cast<unsigned long long>(kCatalogMb));
  std::printf("\nuntraced latency_p50_ms %.6f over %zu requests; spans in %s\n",
              p50, m.phase.samples.size(), spans.c_str());
  const std::uint64_t attempted = replayed.requests + m.attempted();
  const std::uint64_t failed =
      replayed.wrong_counts + (m.attempted() - m.ok());
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = make_workload(args.workload, args.seed);
    const std::string isa = probe_isa();
    const IdleSpinners spinners;
    return args.trace ? run_traced(args, workload, isa)
                      : run_end_to_end(args, workload, isa);
  } catch (const InvalidRun& e) {
    std::cerr << "invalid run: " << e.what() << "\n";
    return 3;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 4;
  }
}
