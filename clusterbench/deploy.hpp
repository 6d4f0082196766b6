// The deployment under test (one cb_host coordinator process with its
// supervised `trico_cli serve` workers), the /proc readings taken of it, and
// the idle spinners that keep the host's vCPUs awake while it runs.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace clusterbench {

/// A running cb_host process. The constructor spawns it and waits for its
/// LISTENING line; stop() (and the destructor) drains it with SIGTERM and
/// reaps it, escalating to SIGKILL after a grace period.
class Deployment {
 public:
  Deployment(const std::string& host_path, const std::string& cli_path);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  void stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One busy-waiting SCHED_IDLE thread pinned to each CPU, for the object's
/// lifetime. On a virtual machine a halted vCPU must be scheduled again by
/// the host before a thread woken on it runs; on a busy host that wait
/// (reported as steal) swamped the figures of small requests, which cross
/// three processes in a chain of wake-ups. A spinning vCPU never halts, and
/// SCHED_IDLE lets the kernel preempt the spinner the moment any other
/// thread becomes runnable on its CPU. So the figures leave out the
/// halted-vCPU part of each wake-up, and keep the rest (README.md).
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The coordinator's own counters, parsed from Client::fetch_metrics text.
struct ClusterCounters {
  std::uint64_t affinity = 0;
  std::uint64_t scatter = 0;
  std::uint64_t shards = 0;
  std::uint64_t rescatters = 0;
  std::uint64_t batched = 0;
  std::uint64_t restarts = 0;
  std::vector<pid_t> worker_pids;

  /// Lane dispatches (every affinity plan and every shard is one pick).
  [[nodiscard]] std::uint64_t dispatches() const { return affinity + shards; }
};

/// Throws std::runtime_error when the text lacks the cluster/pool lines.
[[nodiscard]] ClusterCounters parse_cluster_metrics(const std::string& text);

/// VmHWM (peak resident set) of `pid` in MB; throws when unreadable.
[[nodiscard]] double vm_hwm_mb(pid_t pid);

/// Aggregate CPU jiffies from /proc/stat, for the host steal share.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();
[[nodiscard]] double steal_share(const CpuTimes& begin, const CpuTimes& end);

}  // namespace clusterbench
