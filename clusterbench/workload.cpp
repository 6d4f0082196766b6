#include "workload.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cpu/counting.hpp"
#include "gen/generators.hpp"

namespace clusterbench {

namespace {

using trico::gen::splitmix64;

void shuffle(std::vector<std::size_t>& v, trico::gen::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
}

/// Runs make(i) for i in [0, count) on up to four threads. Generation and
/// reference counting happen before any timing.
template <typename Fn>
void parallel_indices(std::size_t count, Fn make) {
  const std::size_t threads =
      std::min<std::size_t>(4, std::max<std::size_t>(1, count));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < count; i += threads) make(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  std::size_t count = 0;
  std::function<trico::EdgeList(std::uint64_t)> generate;
  if (name == "affinity-small") {
    // Many small frames, all catalog hits on their HRW home worker.
    count = 64;
    w.connections = 4;
    w.reshuffle = true;
    w.trace_requests = 128;
    generate = [](std::uint64_t s) {
      return trico::gen::erdos_renyi(1500, 12'000, s);
    };
  } else if (name == "scatter-large") {
    // One graph above the scatter threshold: every request fans out to
    // both workers and crosses the wire as three full copies.
    count = 1;
    w.connections = 2;
    w.trace_requests = 12;
    generate = [](std::uint64_t s) {
      trico::gen::RmatParams params;
      params.scale = 17;
      params.edge_factor = 8;
      return trico::gen::rmat(params, s);
    };
  } else if (name == "cold-distinct") {
    // A pool larger than twice the catalog space of both workers, cycled
    // in a fixed order: every request misses and pays a full prepare.
    count = 48;
    w.connections = 1;
    w.trace_requests = 48;
    generate = [](std::uint64_t s) {
      trico::gen::SocialParams params;
      params.n = 12'000;
      params.attach = 4;
      return trico::gen::social(params, s);
    };
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }

  w.graphs.resize(count);
  w.reference.resize(count);
  parallel_indices(count, [&](std::size_t i) {
    auto graph = std::make_shared<const trico::EdgeList>(
        generate(splitmix64(seed * 1000003 + i)));
    w.reference[i] = trico::cpu::count_forward(*graph);
    w.graphs[i] = std::move(graph);
  });

  w.order.resize(count);
  std::iota(w.order.begin(), w.order.end(), std::size_t{0});
  trico::gen::Rng rng(splitmix64(seed ^ 0x6f72646572ull));
  shuffle(w.order, rng);
  return w;
}

RequestStream::RequestStream(const Workload& workload, int connection)
    : workload_(&workload),
      rng_(splitmix64(workload.seed ^ (0x636f6e6eull + connection))),
      order_(workload.order) {
  if (workload.reshuffle) shuffle(order_, rng_);
}

std::size_t RequestStream::next() {
  if (pos_ == order_.size()) {
    pos_ = 0;
    if (workload_->reshuffle) shuffle(order_, rng_);
  }
  return order_[pos_++];
}

}  // namespace clusterbench
