// wavesimd -- the long-running simulation service.
//
// One daemon owns a local AF_UNIX socket (wavesim.job.v1, one request
// per connection), a persistent state directory, a weighted-fair job
// queue and a pool of worker threads. Run jobs execute in bounded
// checkpoint slices (service/jobs.hpp), so a long job never monopolizes
// a worker: after each slice it re-enters the queue and WFQ picks the
// most underserved tenant. Because every slice boundary is a durable
// wavesim.snap.v1 checkpoint, `kill -9` of the daemon loses at most one
// slice of work: on restart the state directory is scanned, unfinished
// jobs re-enter the queue, and their eventual result files are
// byte-identical to an uninterrupted run
// (Service.KillNineMidJobResumesToAByteIdenticalResult proves it).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/jobs.hpp"
#include "service/queue.hpp"
#include "sim/json.hpp"

namespace wavesim::service {

struct DaemonOptions {
  std::string socket_path;
  std::string state_dir;
  int workers = 2;
  std::size_t queue_cap = 64;       ///< admission bound (backpressure past it)
  Cycle slice_cycles = 25'000;      ///< run-job preemption quantum
  int request_timeout_ms = 5'000;   ///< per-connection read deadline
};

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& opt);

  /// Recover persisted jobs, bind the socket and serve until a shutdown
  /// request. Returns 0 on clean shutdown, 2 on a startup failure
  /// (unusable socket path or state directory).
  int run();

 private:
  sim::JsonValue handle(const sim::JsonValue& request);
  sim::JsonValue handle_submit(const sim::JsonValue& request);
  sim::JsonValue handle_status(const sim::JsonValue& request);
  sim::JsonValue handle_result(const sim::JsonValue& request);
  sim::JsonValue handle_cancel(const sim::JsonValue& request);
  sim::JsonValue handle_stats();

  void worker_loop();
  void recover();
  void persist(const Job& job);  // callers hold mu_

  DaemonOptions opt_;
  FairQueue queue_;
  JobRunner runner_;
  mutable std::mutex mu_;
  std::map<std::string, Job> jobs_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_completion_ = 1;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  int listen_fd_ = -1;
};

}  // namespace wavesim::service
