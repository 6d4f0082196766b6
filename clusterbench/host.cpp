// cb_host — the benchmark's coordinator process.
//
// A thin host over the public cluster API: one cluster::Coordinator (which
// supervises kWorkers `trico_cli serve` worker processes) behind one
// transport::Server. It exists because `trico_cli coordinator` forwards only
// --store/--device/--chaos-* to its workers, and the benchmark needs every
// worker to run with the catalog budget kCatalogMb (workload.hpp).
//
//   cb_host --cli PATH
//
// Prints "LISTENING <port>" on stdout once serving, then serves until
// SIGTERM/SIGINT (or until its parent dies), drains, and stops the pool.

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include <sys/prctl.h>
#include <unistd.h>

#include "cluster/coordinator.hpp"
#include "transport/server.hpp"
#include "workload.hpp"

using namespace trico;

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

[[noreturn]] void usage() {
  std::cerr << "usage: cb_host --cli PATH\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // The load generator owns this process: if it dies, drain and exit so no
  // worker outlives the benchmark.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);

  if (argc != 3 || std::string(argv[1]) != "--cli") usage();
  const std::string cli = argv[2];

  if (::pipe(g_signal_pipe) < 0) return 1;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  if (::getppid() == 1) return 1;  // parent already gone before prctl

  cluster::CoordinatorOptions options;
  options.supervisor.cli_path = cli;
  options.supervisor.num_workers = clusterbench::kWorkers;
  options.supervisor.worker_args = {"--catalog-mb",
                                    std::to_string(clusterbench::kCatalogMb)};
  cluster::Coordinator coordinator(options);
  coordinator.start();
  transport::Server server(coordinator);
  server.start();
  std::cout << "LISTENING " << server.port() << "\n" << std::flush;

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.drain();
  server.stop();
  coordinator.stop();
  return 0;
}
