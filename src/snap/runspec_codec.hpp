// The run vocabulary: one table of RunSpec fields, read and written by
// the wavesim.job.v1 run-spec codec, by wavesim_cli's run flags and by
// the run spec a wavesim.repro.v3 scenario carries. Every front end that
// names a run field goes through run_fields, so a job is a CLI
// invocation by construction and a repro scenario is a job spec
// (docs/SERVICE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "sim/json.hpp"
#include "snap/runstate.hpp"

namespace wavesim::snap {

/// One RunSpec field under its job.v1 key and its wavesim_cli flag.
/// run_fields() is the run vocabulary's single source: the job.v1 codec,
/// runspec_from_args and run_flags_help walk it, and the defaults are the
/// RunSpec / SimConfig member initializers.
struct RunField {
  /// topology.torus, seen inverted as "mesh" / --mesh.
  struct Mesh {
    bool* torus;
  };
  using Ref = std::variant<std::vector<std::int32_t>*, Mesh,
                           sim::ProtocolKind*, sim::ClrpVariant*,
                           sim::RoutingKind*, sim::ReplacementPolicy*,
                           std::string*, std::int32_t*, std::uint64_t*,
                           double*, bool*>;

  const char* key;   ///< job.v1 key; the table is in canonical key order
  const char* flag;  ///< wavesim_cli flag; nullptr for job.v1-only fields
  const char* arg;   ///< the flag's value in --help; nullptr for a switch
  const char* help;
  Ref at;  ///< the field in the spec given to run_fields
};

/// The field table, pointing into `spec`.
std::vector<RunField> run_fields(RunSpec& spec);

/// The --help lines of the run flags, each with its default.
std::string run_flags_help();

/// wavesim_cli's handler for an argument that is not a run flag: one of
/// its own flags, or --faults with a value that is not a number (a
/// schedule file). `value()` consumes the argument's value and throws if
/// there is none. Returns false for an unknown flag.
using DriverFlag =
    std::function<bool(const std::string& arg,
                       const std::function<const char*()>& value,
                       RunSpec& spec)>;

/// Build a RunSpec from wavesim_cli's argv[1..argc). Run flags set their
/// field (--cycles is "measure"; --faults takes a number whose whole text
/// parses as the fault rate); every other argument goes to `driver`. The
/// result gets the same finishing rules and snap::validate as
/// runspec_from_json. Throws std::invalid_argument on a usage error or an
/// invalid spec.
RunSpec runspec_from_args(int argc, const char* const* argv,
                          const DriverFlag& driver);

/// Canonical JSON form of a run spec: fixed field order, every field
/// present except the storm block when no storm is scheduled and ws_size,
/// ws_locality, ws_skew, variant, carp, sizes, max_flits and split at
/// their defaults.
/// runspec_from_json(runspec_to_json(s)) reproduces s for all fields the
/// schema covers; result files echo this canonical form so resumed jobs
/// emit byte-identical results.
sim::JsonValue runspec_to_json(const RunSpec& spec);

/// Parse a wavesim.job.v1 run spec. Strict: an unknown key, a bad enum
/// value or a spec snap::validate refuses throws std::runtime_error
/// naming the offending field (the daemon maps that to an error
/// response), so a spec the worker could not build fails at submit.
RunSpec runspec_from_json(const sim::JsonValue& value);

/// "RxC[xD..]" topology radices ("8x8", "4x4x4"). Each radix must be a
/// whole decimal integer: an empty or junk token ("8x", "8x4z") throws
/// std::invalid_argument naming it. Range checks are left to
/// SimConfig::validate().
std::vector<std::int32_t> parse_radices(const std::string& text);
std::string format_radices(const std::vector<std::int32_t>& radix);

}  // namespace wavesim::snap
