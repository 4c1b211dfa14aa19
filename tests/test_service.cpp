// wavesimd end to end (docs/SERVICE.md): the two front ends agree, WFQ
// serves the heavier tenant first, mixed job kinds share one daemon, a
// full queue bounces submits with retry_after_ms, and kill -9 resumes to
// a byte-identical result. Each test serves its own daemon -- on a
// thread, or in a forked child for kill -9 -- from its own socket and
// state dir, so `ctest -j` runs never share either.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <thread>

#include "harness/sweep.hpp"
#include "service/daemon.hpp"
#include "service/proto.hpp"
#include "snap/runstate.hpp"

namespace wavesim {
namespace {

namespace fs = std::filesystem;
using sim::JsonValue;

/// One wavesim.job.v1 request on a fresh connection; null when nothing
/// answers.
JsonValue request(const std::string& socket_path, const JsonValue& req) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  std::string line;
  const bool answered =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      service::write_line(fd, req.dump()) &&
      service::read_line(fd, line, 30'000);
  ::close(fd);
  return answered ? JsonValue::parse(line) : JsonValue();
}

JsonValue op(const char* name) { return JsonValue::object().set("op", name); }

bool ok(const JsonValue& response) {
  return response.is_object() && response.at("ok").as_bool();
}

/// Poll `done` every 10 ms until it holds or `seconds` pass.
bool poll_until(const std::function<bool()>& done, int seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

bool answers(const std::string& socket_path) {
  return poll_until([&] { return ok(request(socket_path, op("stats"))); }, 30);
}

/// Options for a daemon on `name`.sock with state dir `name`-state; with
/// `fresh`, leftovers of an earlier run are cleared first.
service::DaemonOptions options(const std::string& name, int workers,
                               Cycle slice_cycles, bool fresh = true) {
  service::DaemonOptions opt;
  opt.socket_path = name + ".sock";
  opt.state_dir = name + "-state";
  opt.workers = workers;
  opt.slice_cycles = slice_cycles;
  if (fresh) {
    fs::remove(opt.socket_path);
    fs::remove_all(opt.state_dir);
    fs::create_directory(opt.state_dir);
  }
  return opt;
}

JsonValue submit(const std::string& socket_path, const char* kind,
                 const char* spec, const char* tenant = "default",
                 double weight = 1.0) {
  return request(socket_path, op("submit")
                                  .set("kind", kind)
                                  .set("spec", JsonValue::parse(spec))
                                  .set("tenant", tenant)
                                  .set("weight", weight));
}

/// Poll job `id` until it leaves queued/running; its last state.
std::string wait_for(const std::string& socket_path, const std::string& id) {
  std::string state;
  poll_until(
      [&] {
        const JsonValue status =
            request(socket_path, op("status").set("id", id));
        state = ok(status) ? status.at("state").as_string() : status.dump();
        return state != "queued" && state != "running";
      },
      240);
  return state;
}

JsonValue result(const std::string& socket_path, const std::string& id) {
  const JsonValue response = request(socket_path, op("result").set("id", id));
  return ok(response) ? response.at("result") : response;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// A daemon serving on a thread: constructed once its socket answers
/// `stats`, shut down on destruction.
class LiveDaemon {
 public:
  explicit LiveDaemon(const service::DaemonOptions& opt)
      : socket_path(opt.socket_path), daemon_(opt),
        thread_([this] { daemon_.run(); }) {
    EXPECT_TRUE(answers(socket_path)) << socket_path << " never answered";
  }
  ~LiveDaemon() {
    request(socket_path, op("shutdown"));
    thread_.join();
  }

  const std::string socket_path;

 private:
  service::Daemon daemon_;
  std::thread thread_;
};

// Both front ends read the one RunSpec field table, so a non-default
// spec given as wavesim_cli flags and as a job.v1 run yields equal stats.
// CLRP sets up circuits on demand, so m, k, cache and replacement all
// shape the stats compared.
TEST(Service, CliFlagsAndJobSpecGiveEqualStats) {
  const char* argv[] = {
      "wavesim_cli", "--topo", "6x6", "--mesh", "--protocol", "clrp",
      "--routing", "duato", "--vcs", "3", "--pattern", "working-set",
      "--load", "0.15", "--length", "32", "--warmup", "300", "--cycles",
      "2000", "--seed", "11", "--cache", "4", "--replacement", "lfu",
      "--m", "1", "--k", "3"};
  snap::CheckpointableRun cli(snap::runspec_from_args(
      static_cast<int>(std::size(argv)), argv,
      [](const std::string&, const std::function<const char*()>&,
         snap::RunSpec&) { return false; }));
  while (!cli.done()) cli.advance(std::numeric_limits<Cycle>::max());
  ASSERT_GT(cli.result().stats.circuit_setup_count, 0u);

  LiveDaemon daemon(options("svc-frontends", 1, 25'000));
  ASSERT_TRUE(ok(submit(daemon.socket_path, "run", R"({
      "topo": "6x6", "mesh": true, "protocol": "clrp", "routing": "duato",
      "vcs": 3, "pattern": "working-set", "load": 0.15, "length": 32,
      "warmup": 300, "measure": 2000, "seed": 11, "cache": 4,
      "replacement": "lfu", "m": 1, "k": 3})")));
  ASSERT_EQ(wait_for(daemon.socket_path, "job-1"), "done");
  EXPECT_EQ(result(daemon.socket_path, "job-1").at("stats").dump(),
            harness::stats_to_json(cli.result().stats).dump());
}

// One worker, so completion order is the schedule; three identical
// multi-slice jobs per tenant are all queued before the first finishes.
// The weight-3 tenant's mean completion_seq must beat the weight-1
// tenant's (docs/SERVICE.md "Scheduling").
TEST(Service, WeightThreeTenantFinishesAheadOfWeightOne) {
  const char* spec = R"({"mesh": false, "pattern": "uniform", "load": 0.1,
      "warmup": 1000, "measure": 50000, "seed": 7, "topo": "16x16"})";
  LiveDaemon daemon(options("svc-wfq", 1, 10'000));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ok(submit(daemon.socket_path, "run", spec, "alpha", 1.0)));
    ASSERT_TRUE(ok(submit(daemon.socket_path, "run", spec, "beta", 3.0)));
  }
  for (int i = 1; i <= 6; ++i) {
    ASSERT_EQ(wait_for(daemon.socket_path, "job-" + std::to_string(i)),
              "done");
  }
  const JsonValue stats = request(daemon.socket_path, op("stats"));
  ASSERT_TRUE(ok(stats));
  double seq_sum[2] = {0.0, 0.0};
  int done = 0;
  for (const JsonValue& c : stats.at("completions").elements()) {
    if (c.at("state").as_string() != "done") continue;
    ++done;
    seq_sum[c.at("tenant").as_string() == "beta"] +=
        c.at("completion_seq").as_number();
  }
  ASSERT_EQ(done, 6) << stats.dump();
  EXPECT_LT(seq_sum[1] / 3, seq_sum[0] / 3) << stats.dump();
}

// A warm-started sweep (one warmup, three measure windows) and a simcheck
// batch from two tenants share one daemon; both return well-formed
// wavesim.result.v1 payloads.
TEST(Service, SweepAndSimcheckJobsFromTwoTenantsBothFinish) {
  LiveDaemon daemon(options("svc-mixed", 2, 25'000));
  ASSERT_TRUE(ok(submit(daemon.socket_path, "sweep", R"({
      "base": {"mesh": false, "pattern": "uniform", "load": 0.1,
               "warmup": 2000, "seed": 5},
      "measures": [2000, 6000, 12000]})", "alpha")));
  ASSERT_TRUE(ok(submit(daemon.socket_path, "simcheck",
                        R"({"count": 6, "faulty": true})", "beta")));
  ASSERT_EQ(wait_for(daemon.socket_path, "job-1"), "done");
  ASSERT_EQ(wait_for(daemon.socket_path, "job-2"), "done");

  const JsonValue sweep = result(daemon.socket_path, "job-1");
  EXPECT_EQ(sweep.at("kind").as_string(), "sweep");
  ASSERT_EQ(sweep.at("points").size(), 3u) << sweep.dump();
  for (const JsonValue& point : sweep.at("points").elements()) {
    EXPECT_TRUE(point.at("drained").as_bool()) << point.dump();
  }
  const JsonValue check = result(daemon.socket_path, "job-2");
  EXPECT_EQ(check.at("kind").as_string(), "simcheck");
  EXPECT_TRUE(check.at("ok").as_bool()) << check.dump();
  EXPECT_EQ(check.at("scenarios_run").as_int(), 6);
}

// Jobs heavy enough to outrun the single worker; cap 2 counts unfinished
// jobs, so at least three of five submits bounce with retry_after_ms.
TEST(Service, FullQueueBouncesSubmitsWithRetryAfter) {
  service::DaemonOptions opt = options("svc-backpressure", 1, 25'000);
  opt.queue_cap = 2;
  LiveDaemon daemon(opt);
  const char* spec = R"({"mesh": false, "pattern": "uniform", "load": 0.1,
      "warmup": 1000, "measure": 200000, "seed": 3, "topo": "16x16"})";
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    const JsonValue response = submit(daemon.socket_path, "run", spec);
    ASSERT_TRUE(response.is_object());
    if (ok(response)) continue;
    ++rejected;
    EXPECT_NE(response.find("retry_after_ms"), nullptr) << response.dump();
  }
  EXPECT_GE(rejected, 3);
}

// The job checkpoints at every slice boundary; killing the daemon with
// SIGKILL and restarting it on the same state dir finishes the job with a
// result file byte-identical to an uninterrupted daemon's
// (docs/SERVICE.md "Crash recovery").
TEST(Service, KillNineMidJobResumesToAByteIdenticalResult) {
  const char* spec = R"({"mesh": false, "pattern": "uniform", "load": 0.1,
      "warmup": 1000, "measure": 120000, "seed": 11, "topo": "16x16"})";
  const service::DaemonOptions victim = options("svc-kill9", 1, 25'000);
  // The victim serves from a child process, forked before this process
  // starts any thread, so SIGKILL takes the whole daemon down mid-slice.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(service::Daemon(victim).run());
  const std::string ckpt = victim.state_dir + "/job-1.ckpt";
  const bool submitted = answers(victim.socket_path) &&
                         ok(submit(victim.socket_path, "run", spec));
  const bool checkpointed =
      submitted && poll_until([&] { return fs::exists(ckpt); }, 60);
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  ASSERT_TRUE(submitted);
  ASSERT_TRUE(checkpointed) << "no checkpoint appeared before the kill";
  const std::string victim_result = victim.state_dir + "/result-job-1.json";
  ASSERT_FALSE(fs::exists(victim_result)) << "the kill landed after the job";

  const service::DaemonOptions reference =
      options("svc-kill9-ref", 1, 25'000);
  {
    LiveDaemon daemon(reference);
    ASSERT_TRUE(ok(submit(daemon.socket_path, "run", spec)));
    ASSERT_EQ(wait_for(daemon.socket_path, "job-1"), "done");
  }
  {
    LiveDaemon restarted(options("svc-kill9", 1, 25'000, /*fresh=*/false));
    ASSERT_EQ(wait_for(restarted.socket_path, "job-1"), "done");
  }
  const std::string expected =
      file_bytes(reference.state_dir + "/result-job-1.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(file_bytes(victim_result), expected);
}

}  // namespace
}  // namespace wavesim
