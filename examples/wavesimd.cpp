// wavesimd -- job-queue daemon for long simulation campaigns.
//
//   $ ./wavesimd --socket /tmp/wavesim.sock --state-dir /tmp/wavesim-state
//   $ tools/wavesimd_client.py --socket /tmp/wavesim.sock submit
//         --kind run --spec '{"topo":"8x8","load":0.12}'
//
// Speaks wavesim.job.v1 (docs/SERVICE.md). Jobs survive kill -9: run
// state is checkpointed (wavesim.snap.v1) every --slice-cycles and the
// state directory is recovered on the next start.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_number.hpp"
#include "service/daemon.hpp"

namespace {

using namespace wavesim;

void usage() {
  std::printf(
      "wavesimd -- wave-switching simulation service\n\n"
      "  --socket PATH       AF_UNIX socket to serve (required)\n"
      "  --state-dir PATH    job/checkpoint/result directory (required;\n"
      "                      created if missing, recovered if not empty)\n"
      "  --workers N         worker threads (default 2)\n"
      "  --queue-cap N       queued-job admission bound (default 64;\n"
      "                      submits past it get retry_after_ms)\n"
      "  --slice-cycles N    run-job preemption quantum (default 25000)\n");
}

}  // namespace

int main(int argc, char** argv) {
  service::DaemonOptions opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--socket") {
      opt.socket_path = need(i);
    } else if (arg == "--state-dir") {
      opt.state_dir = need(i);
    } else if (arg == "--workers") {
      opt.workers = cli::number<int>(arg, need(i));
    } else if (arg == "--queue-cap") {
      opt.queue_cap = cli::number<std::size_t>(arg, need(i));
    } else if (arg == "--slice-cycles") {
      opt.slice_cycles = cli::number<Cycle>(arg, need(i));
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (opt.socket_path.empty() || opt.state_dir.empty()) {
    std::fprintf(stderr, "error: --socket and --state-dir are required\n");
    return 2;
  }
  if (opt.workers < 1) {
    std::fprintf(stderr, "error: --workers must be >= 1\n");
    return 2;
  }
  if (opt.queue_cap < 1) {
    std::fprintf(stderr, "error: --queue-cap must be >= 1\n");
    return 2;
  }
  if (opt.slice_cycles < 1) {
    std::fprintf(stderr, "error: --slice-cycles must be >= 1\n");
    return 2;
  }
  if (::mkdir(opt.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create state dir %s: %s\n",
                 opt.state_dir.c_str(), std::strerror(errno));
    return 2;
  }
  service::Daemon daemon(opt);
  return daemon.run();
}
