// The traced replay: one thread walks a workload's request stream through
// the public functions every hop calls (client -> coordinator -> each
// shard's worker -> gather), with spans recorded around each call.

#pragma once

#include <map>
#include <string>

#include "workload.hpp"

namespace clusterbench {

struct ReplayResult {
  /// Per-layer values keyed by metric name: each layer's median self time
  /// per request (ms) plus the per-request counts.
  std::map<std::string, double> layers;
  /// Spans recorded per layer over the traced requests.
  std::map<std::string, std::size_t> span_counts;
  std::size_t requests = 0;
  std::size_t wrong_counts = 0;
  /// Share of worker-side catalog acquires that hit.
  double acquire_hit_share = 0;
  /// Largest catalog entry a replayed request built (MB), and the entries
  /// both workers' catalogs hold at the end: how much of the workload fits.
  double max_entry_mb = 0;
  std::uint64_t resident_entries = 0;
  /// Sum of the self-time layers that partition a request's work (the
  /// prepare sub-phases are a breakdown of cpu.prepare_ms, not added).
  double layer_sum_ms = 0;
};

/// Runs the warm-up pass untraced, then replays workload.trace_requests
/// requests with spans; writes every span as JSON lines to `spans_path`.
[[nodiscard]] ReplayResult replay(const Workload& workload,
                                  const std::string& spans_path);

}  // namespace clusterbench
