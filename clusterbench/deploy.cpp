#include "deploy.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <poll.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

namespace clusterbench {

namespace {

constexpr int kListenTimeoutMs = 60'000;
constexpr int kStopGraceMs = 30'000;

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

/// Reads the child's stdout until the "LISTENING <port>" line.
std::uint16_t await_listening(int fd) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kListenTimeoutMs);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      throw std::runtime_error("cb_host: no LISTENING line");
    }
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left.count()));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) throw sys_error("poll");
    if (r == 0) continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("cb_host exited before listening");
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    if (line.rfind("LISTENING ", 0) == 0) {
      return static_cast<std::uint16_t>(std::stoul(line.substr(10)));
    }
    line.clear();
  }
}

/// The line of `text` that starts with `prefix`.
std::string line_of(const std::string& text, const std::string& prefix) {
  std::size_t at = 0;
  while (at < text.size() && text.compare(at, prefix.size(), prefix) != 0) {
    at = text.find('\n', at);
    if (at == std::string::npos) break;
    ++at;
  }
  if (at == std::string::npos || at >= text.size()) {
    throw std::runtime_error("metrics text lacks a '" + prefix + "' line");
  }
  return text.substr(at, text.find('\n', at) - at);
}

std::uint64_t field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("metrics text lacks '" + key + "'");
  }
  return std::stoull(text.substr(at + key.size()));
}

}  // namespace

Deployment::Deployment(const std::string& host_path,
                       const std::string& cli_path) {
  int out[2];
  if (::pipe(out) < 0) throw sys_error("pipe");
  std::vector<const char*> argv = {host_path.c_str(), "--cli",
                                   cli_path.c_str(), nullptr};
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw sys_error("fork");
  }
  if (pid_ == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(argv[0], const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];
  try {
    port_ = await_listening(stdout_fd_);
  } catch (...) {
    stop();
    throw;
  }
}

Deployment::~Deployment() { stop(); }

void Deployment::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kStopGraceMs);
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

IdleSpinners::IdleSpinners() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      const sched_param idle{};
      // Never spin at normal priority: that would take CPU from the
      // deployment instead of only keeping the vCPU awake.
      if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle) != 0 ||
          ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

ClusterCounters parse_cluster_metrics(const std::string& text) {
  const std::string cluster = line_of(text, "cluster: ");
  ClusterCounters c;
  c.affinity = field(cluster, " affinity=");
  c.scatter = field(cluster, " scatter=");
  c.shards = field(cluster, " shards=");
  c.rescatters = field(cluster, " rescatters=");
  c.batched = field(cluster, " batched=");
  c.restarts = field(line_of(text, "pool: "), " restarts=");
  const std::string workers = line_of(text, "workers: ");
  for (std::size_t at = workers.find("pid:"); at != std::string::npos;
       at = workers.find("pid:", at + 4)) {
    c.worker_pids.push_back(
        static_cast<pid_t>(std::stol(workers.substr(at + 4))));
  }
  return c;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  CpuTimes t;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> value; ++i) {
    t.total += value;
    if (i == 7) t.steal = value;
  }
  return t;
}

double steal_share(const CpuTimes& begin, const CpuTimes& end) {
  const std::uint64_t total = end.total - begin.total;
  return total == 0 ? 0.0
                    : static_cast<double>(end.steal - begin.steal) /
                          static_cast<double>(total);
}

}  // namespace clusterbench
