// The three benchmark workloads: their graphs, reference counts and seeded
// request order. Everything here is a pure function of (workload, seed), so
// the end-to-end run and the traced replay see the same request stream.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "graph/edge_list.hpp"

namespace clusterbench {

using GraphPtr = std::shared_ptr<const trico::EdgeList>;

/// Deployment settings shared by every workload (README "Deployment").
inline constexpr int kWorkers = 2;
/// One worker catalog budget for all three workloads: affinity-small's 64
/// entries and scatter-large's one entry stay resident, cold-distinct's pool
/// is more than twice what fits across both workers.
inline constexpr std::uint64_t kCatalogMb = 64;

struct Workload {
  std::string name;
  std::vector<GraphPtr> graphs;
  /// cpu::count_forward of every graph — a different code path from the
  /// served hybrid engine.
  std::vector<trico::TriangleCount> reference;
  /// Closed-loop client connections (one thread and one Client each).
  int connections = 1;
  /// Base order of the graphs: the warm-up pass sends them in this order.
  std::vector<std::size_t> order;
  /// Reshuffle each connection's order every cycle (affinity-small); off =
  /// every connection cycles `order` (cold-distinct must revisit graphs in
  /// warm-up order so each request meets the least recently used entry).
  bool reshuffle = false;
  /// Requests the traced replay walks (a fixed count, so the count metrics
  /// repeat exactly between traced runs).
  std::size_t trace_requests = 0;
  std::uint64_t seed = 0;
};

/// Builds a workload by name ("affinity-small", "scatter-large",
/// "cold-distinct"). Throws std::invalid_argument for other names.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// One connection's seeded request order: indices into Workload::graphs.
class RequestStream {
 public:
  RequestStream(const Workload& workload, int connection);
  [[nodiscard]] std::size_t next();

 private:
  const Workload* workload_;
  trico::gen::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

}  // namespace clusterbench
