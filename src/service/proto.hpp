// wavesim.job.v1 -- the wire protocol wavesimd speaks.
//
// Transport: line-delimited JSON over a local AF_UNIX stream socket,
// one request and one response per connection. Every response carries
// "ok"; failures add "error" (and "retry_after_ms" when the request
// should be retried later, e.g. queue-full backpressure).
//
// Requests:
//   {"op":"submit","kind":"run","spec":{...},"tenant":"a","weight":2}
//   {"op":"status","id":"job-1"}     {"op":"result","id":"job-1"}
//   {"op":"cancel","id":"job-1"}     {"op":"stats"}   {"op":"shutdown"}
//
// Run specs and wavesim_cli's run flags are one vocabulary: both are
// read through snap::run_fields, so a job is a CLI invocation by
// construction and the service and the CLI produce the same run for the
// same spec (docs/SERVICE.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/simcheck.hpp"
#include "sim/json.hpp"
#include "snap/runspec_codec.hpp"

namespace wavesim::service {

/// The job.v1 run-spec codec lives with RunSpec (snap/runspec_codec.hpp);
/// the daemon and its clients name it from here.
using snap::runspec_from_json;
using snap::runspec_to_json;

/// A sweep job spec: {"base": <run spec>, "measures": [M1, M2, ...]}.
struct SweepSpec {
  snap::RunSpec base;
  std::vector<Cycle> measures;  ///< one sweep point each, all >= 1
};

/// Parse a sweep spec. Strict like runspec_from_json: an unknown key, a
/// missing or empty "measures", or a measure that is not an integer
/// >= 1 throws std::runtime_error naming the field. The daemon runs this
/// at submit and again in the worker, so both see the same checks.
SweepSpec sweep_spec_from_json(const sim::JsonValue& value);

/// Parse a simcheck spec ({"count", "base_seed", "faulty",
/// "max_failures"}, all optional; count defaults to 20). Strict, same
/// error contract as sweep_spec_from_json.
check::SimcheckOptions simcheck_spec_from_json(const sim::JsonValue& value);

sim::JsonValue ok_response();
sim::JsonValue error_response(const std::string& message);
/// Backpressure: the request was well-formed but the daemon is full.
sim::JsonValue busy_response(const std::string& message,
                             std::int64_t retry_after_ms);

/// Read one '\n'-terminated line from `fd` (the newline is stripped).
/// False on EOF before any byte, timeout, or an over-long line.
bool read_line(int fd, std::string& line, int timeout_ms);

/// Write `line` plus a trailing newline; false on any short write.
bool write_line(int fd, const std::string& line);

}  // namespace wavesim::service
