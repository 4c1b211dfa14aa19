#include "service/daemon.hpp"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "service/proto.hpp"

namespace wavesim::service {

namespace {

/// Numeric suffix of "job-N" ids (0 when malformed).
std::uint64_t job_number(const std::string& id) {
  if (id.rfind("job-", 0) != 0) return 0;
  return std::strtoull(id.c_str() + 4, nullptr, 10);
}

}  // namespace

Daemon::Daemon(const DaemonOptions& opt)
    : opt_(opt), queue_(opt.queue_cap),
      runner_(opt.state_dir, opt.slice_cycles) {}

void Daemon::persist(const Job& job) {
  if (!sim::write_json_file(job_to_json(job),
                            opt_.state_dir + "/" + job.id + ".json")) {
    std::fprintf(stderr, "wavesimd: cannot persist %s\n", job.id.c_str());
  }
}

void Daemon::recover() {
  DIR* dir = ::opendir(opt_.state_dir.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> pending;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    // Job records are job-N.json; results are result-job-N.json and
    // checkpoints job-N.ckpt, neither of which parses as a job file.
    if (name.rfind("job-", 0) != 0) continue;
    if (name.size() < 5 || name.substr(name.size() - 5) != ".json") continue;
    try {
      Job job = job_from_json(
          sim::read_json_file(opt_.state_dir + "/" + name));
      next_id_ = std::max(next_id_, job_number(job.id) + 1);
      next_completion_ = std::max(next_completion_, job.completion_seq + 1);
      if (job.state == JobState::kRunning) {
        // The previous daemon died mid-slice; the checkpoint from the
        // last completed slice (or a fresh start) reproduces the run.
        job.state = JobState::kQueued;
      }
      if (job.state == JobState::kQueued && job.cancel_requested) {
        job.state = JobState::kCancelled;
        job.completion_seq = next_completion_++;
      }
      if (job.state == JobState::kQueued) pending.push_back(job.id);
      persist(job);
      jobs_[job.id] = std::move(job);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wavesimd: skipping %s: %s\n", name.c_str(),
                   e.what());
    }
  }
  ::closedir(dir);
  // Submission order: recovered jobs re-enter the queue oldest first,
  // via requeue() -- they were admitted once, the cap does not re-apply.
  std::sort(pending.begin(), pending.end(),
            [](const std::string& a, const std::string& b) {
              return job_number(a) < job_number(b);
            });
  for (const std::string& id : pending) {
    const Job& job = jobs_[id];
    queue_.requeue(id, job.tenant, job.weight);
  }
  if (!pending.empty()) {
    std::fprintf(stderr, "wavesimd: recovered %zu unfinished job(s)\n",
                 pending.size());
  }
}

sim::JsonValue Daemon::handle_submit(const sim::JsonValue& request) {
  const sim::JsonValue* kind_field = request.find("kind");
  const sim::JsonValue* spec = request.find("spec");
  if (kind_field == nullptr || spec == nullptr) {
    return error_response("submit needs 'kind' and 'spec'");
  }
  const std::string kind = kind_field->as_string();
  std::string tenant = "default";
  double weight = 1.0;
  if (const sim::JsonValue* t = request.find("tenant")) {
    tenant = t->as_string();
  }
  if (const sim::JsonValue* w = request.find("weight")) {
    weight = w->as_number();
  }
  if (!(weight > 0.0)) return error_response("weight must be > 0");

  // Validate up front so a bad spec is refused at submit, not queued to
  // fail later. These are the parsers the worker runs; they throw with
  // the offending field named.
  if (kind == "run") {
    runspec_from_json(*spec);
  } else if (kind == "sweep") {
    sweep_spec_from_json(*spec);
  } else if (kind == "simcheck") {
    simcheck_spec_from_json(*spec);
  } else {
    return error_response("kind must be run | sweep | simcheck");
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Admission control counts every unfinished job -- queued AND mid-run.
  // A job in a slice is not "space in the queue": it comes straight
  // back, so admitting past the cap would grow the backlog unboundedly.
  std::size_t unfinished = 0;
  for (const auto& [jid, job] : jobs_) {
    (void)jid;
    if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
      ++unfinished;
    }
  }
  if (unfinished >= opt_.queue_cap) {
    return busy_response(
        "queue full",
        std::max<std::int64_t>(100,
                               static_cast<std::int64_t>(unfinished) * 100));
  }
  const std::string id = "job-" + std::to_string(next_id_);
  std::int64_t retry_after_ms = 0;
  if (!queue_.push(id, tenant, weight, retry_after_ms)) {
    return busy_response("queue full", retry_after_ms);
  }
  ++next_id_;
  Job job;
  job.id = id;
  job.tenant = tenant;
  job.weight = weight;
  job.kind = kind;
  job.spec = *spec;
  jobs_[id] = job;
  persist(job);
  return ok_response().set("id", id).set("state", to_string(job.state));
}

sim::JsonValue Daemon::handle_status(const sim::JsonValue& request) {
  const std::string id = request.at("id").as_string();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_response("no such job " + id);
  const Job& job = it->second;
  sim::JsonValue out = ok_response()
                           .set("id", job.id)
                           .set("kind", job.kind)
                           .set("state", to_string(job.state))
                           .set("cycle", job.cycle)
                           .set("slices", job.slices)
                           .set("completion_seq", job.completion_seq);
  if (!job.error.empty()) out.set("error_detail", job.error);
  return out;
}

sim::JsonValue Daemon::handle_result(const sim::JsonValue& request) {
  const std::string id = request.at("id").as_string();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return error_response("no such job " + id);
    const Job& job = it->second;
    if (job.state == JobState::kFailed) {
      return error_response("job failed: " + job.error);
    }
    if (job.state == JobState::kCancelled) {
      return error_response("job cancelled");
    }
    if (job.state != JobState::kDone) {
      return error_response("job not finished")
          .set("state", to_string(job.state));
    }
    path = runner_.result_path(id);
  }
  try {
    return ok_response().set("id", id).set("result",
                                           sim::read_json_file(path));
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

sim::JsonValue Daemon::handle_cancel(const sim::JsonValue& request) {
  const std::string id = request.at("id").as_string();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return error_response("no such job " + id);
  Job& job = it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    job.cancel_requested = true;
    if (job.state == JobState::kQueued && queue_.remove(id)) {
      job.state = JobState::kCancelled;
      job.completion_seq = next_completion_++;
      std::remove(runner_.checkpoint_path(id).c_str());
    }
    // A running job cancels cooperatively at its next slice boundary.
    persist(job);
  }
  return ok_response().set("id", id).set("state", to_string(job.state));
}

sim::JsonValue Daemon::handle_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t queued = 0, running = 0, done = 0, failed = 0, cancelled = 0;
  std::vector<const Job*> finished;
  for (const auto& [id, job] : jobs_) {
    (void)id;
    switch (job.state) {
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; break;
      case JobState::kDone: ++done; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
    }
    if (job.completion_seq > 0) finished.push_back(&job);
  }
  std::sort(finished.begin(), finished.end(),
            [](const Job* a, const Job* b) {
              return a->completion_seq < b->completion_seq;
            });
  sim::JsonValue completions = sim::JsonValue::array();
  for (const Job* job : finished) {
    completions.push_back(sim::JsonValue::object()
                              .set("id", job->id)
                              .set("tenant", job->tenant)
                              .set("state", to_string(job->state))
                              .set("completion_seq", job->completion_seq));
  }
  return ok_response()
      .set("jobs", sim::JsonValue::object()
                       .set("queued", queued)
                       .set("running", running)
                       .set("done", done)
                       .set("failed", failed)
                       .set("cancelled", cancelled))
      .set("queue", queue_.stats_json())
      .set("completions", std::move(completions));
}

sim::JsonValue Daemon::handle(const sim::JsonValue& request) {
  try {
    const std::string op = request.at("op").as_string();
    if (op == "submit") return handle_submit(request);
    if (op == "status") return handle_status(request);
    if (op == "result") return handle_result(request);
    if (op == "cancel") return handle_cancel(request);
    if (op == "stats") return handle_stats();
    if (op == "shutdown") {
      stopping_.store(true);
      queue_.stop();
      return ok_response().set("stopping", true);
    }
    return error_response("unknown op '" + op + "'");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

void Daemon::worker_loop() {
  std::string id, tenant;
  while (queue_.pop(id, tenant)) {
    Job working;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      Job& job = it->second;
      if (job.cancel_requested) {
        job.state = JobState::kCancelled;
        job.completion_seq = next_completion_++;
        std::remove(runner_.checkpoint_path(id).c_str());
        persist(job);
        continue;
      }
      job.state = JobState::kRunning;
      persist(job);
      working = job;
    }
    const auto cancelled = [this, &id] {
      if (stopping_.load()) return true;
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      return it == jobs_.end() || it->second.cancel_requested;
    };
    const SliceOutcome outcome = runner_.step(working, cancelled);
    queue_.charge(tenant, outcome.cost);
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      Job& job = it->second;
      job.cycle = working.cycle;
      job.slices = working.slices;
      if (outcome.failed) {
        job.state = JobState::kFailed;
        job.error = outcome.error;
        job.completion_seq = next_completion_++;
      } else if (outcome.done) {
        job.state = JobState::kDone;
        job.completion_seq = next_completion_++;
      } else if (job.cancel_requested) {
        job.state = JobState::kCancelled;
        job.completion_seq = next_completion_++;
        std::remove(runner_.checkpoint_path(id).c_str());
      } else {
        // Preempted at the slice boundary: back of the tenant's line.
        // (After a shutdown request nobody pops it again; the persisted
        // queued state is what the next daemon recovers.)
        job.state = JobState::kQueued;
        queue_.requeue(id, tenant, job.weight);
      }
      persist(job);
    }
  }
}

int Daemon::run() {
  struct stat st;
  if (::stat(opt_.state_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "wavesimd: state dir %s is not a directory\n",
                 opt_.state_dir.c_str());
    return 2;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "wavesimd: socket path too long: %s\n",
                 opt_.socket_path.c_str());
    return 2;
  }
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size() + 1);

  recover();

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("wavesimd: socket");
    return 2;
  }
  ::unlink(opt_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    std::perror("wavesimd: bind/listen");
    ::close(listen_fd_);
    return 2;
  }

  for (int i = 0; i < std::max(1, opt_.workers); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  std::fprintf(stderr, "wavesimd: serving on %s (%d worker(s))\n",
               opt_.socket_path.c_str(), std::max(1, opt_.workers));

  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::string line;
    if (read_line(fd, line, opt_.request_timeout_ms)) {
      sim::JsonValue response;
      try {
        response = handle(sim::JsonValue::parse(line));
      } catch (const std::exception& e) {
        response = error_response(e.what());
      }
      write_line(fd, response.dump());
    }
    ::close(fd);
  }

  ::close(listen_fd_);
  ::unlink(opt_.socket_path.c_str());
  queue_.stop();
  for (std::thread& worker : workers_) worker.join();
  std::fprintf(stderr, "wavesimd: clean shutdown\n");
  return 0;
}

}  // namespace wavesim::service
