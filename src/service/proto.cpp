#include "service/proto.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace wavesim::service {

SweepSpec sweep_spec_from_json(const sim::JsonValue& value) {
  sim::check_known_keys(value, {"base", "measures"}, "sweep spec");
  const sim::JsonValue* base = value.find("base");
  const sim::JsonValue* measures = value.find("measures");
  if (base == nullptr || measures == nullptr || !measures->is_array() ||
      measures->size() == 0) {
    throw std::runtime_error(
        "sweep spec needs 'base' (run spec) and 'measures' (array)");
  }
  SweepSpec sweep;
  sweep.base = runspec_from_json(*base);
  for (std::size_t i = 0; i < measures->size(); ++i) {
    sweep.measures.push_back(
        static_cast<Cycle>(sim::whole_or_throw(measures->at(i),
                                               "spec field 'measures'", 1)));
  }
  return sweep;
}

check::SimcheckOptions simcheck_spec_from_json(const sim::JsonValue& value) {
  sim::check_known_keys(
      value, {"count", "base_seed", "faulty", "max_failures"}, "simcheck spec");
  check::SimcheckOptions options;
  options.count = 20;
  if (const sim::JsonValue* v = value.find("count")) {
    options.count = static_cast<std::size_t>(
        sim::whole_or_throw(*v, "spec field 'count'", 1));
  }
  if (const sim::JsonValue* v = value.find("base_seed")) {
    options.base_seed = static_cast<std::uint64_t>(
        sim::whole_or_throw(*v, "spec field 'base_seed'", 0));
  }
  if (const sim::JsonValue* v = value.find("faulty")) {
    if (!v->is_bool()) {
      throw std::runtime_error("spec field 'faulty': expected a bool");
    }
    options.faulty = v->as_bool();
  }
  if (const sim::JsonValue* v = value.find("max_failures")) {
    // 0 would stop before recording any failure: a failing batch would
    // then report ok.
    options.max_failures = static_cast<std::size_t>(
        sim::whole_or_throw(*v, "spec field 'max_failures'", 1));
  }
  return options;
}

sim::JsonValue ok_response() {
  return sim::JsonValue::object().set("ok", true);
}

sim::JsonValue error_response(const std::string& message) {
  return sim::JsonValue::object().set("ok", false).set("error", message);
}

sim::JsonValue busy_response(const std::string& message,
                             std::int64_t retry_after_ms) {
  return error_response(message).set("retry_after_ms", retry_after_ms);
}

bool read_line(int fd, std::string& line, int timeout_ms) {
  // Requests are one line; 1 MiB bounds a hostile or broken client.
  constexpr std::size_t kMaxLine = 1u << 20;
  line.clear();
  char ch = 0;
  while (true) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) return false;  // timeout or poll error
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF mid-line or hard error
    }
    if (ch == '\n') return true;
    if (line.size() >= kMaxLine) return false;
    line.push_back(ch);
  }
}

bool write_line(int fd, const std::string& line) {
  std::string buffer = line;
  buffer.push_back('\n');
  std::size_t sent = 0;
  while (sent < buffer.size()) {
    // MSG_NOSIGNAL: a client that hung up yields an error return, not
    // SIGPIPE taking the daemon down.
    const ssize_t n = ::send(fd, buffer.data() + sent, buffer.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace wavesim::service
