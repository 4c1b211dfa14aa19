#include "snap/runspec_codec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "sim/number.hpp"

namespace wavesim::snap {

namespace {

[[noreturn]] void bad_field(const std::string& key, const std::string& what) {
  throw std::runtime_error("spec field '" + key + "': " + what);
}

using Ref = RunField::Ref;

/// Set a field whose value is text (topology, enum name or pattern);
/// throws std::invalid_argument on a bad value of the field `name`.
void set_text(Ref ref, const std::string& name, const std::string& text) {
  std::visit(
      [&](auto r) {
        using T = std::remove_pointer_t<decltype(r)>;
        if constexpr (std::is_same_v<T, std::string>) {
          *r = text;
        } else if constexpr (std::is_same_v<T, std::vector<std::int32_t>>) {
          *r = parse_radices(text);
        } else if constexpr (std::is_enum_v<T>) {
          if (!sim::from_string(text, *r)) {
            throw std::invalid_argument("unknown " + name + " '" + text + "'");
          }
        }
      },
      ref);
}

/// Read a job.v1 value into its field; a wrong type or range throws
/// bad_field. Integers must be whole and within their type (capped at
/// +-2^53), never truncated or wrapped.
void read_json(const RunField& f, const sim::JsonValue& v) {
  const std::string key = f.key;
  std::visit(
      [&](auto r) {
        using T = std::remove_pointer_t<decltype(r)>;
        if constexpr (std::is_same_v<T, RunField::Mesh> ||
                      std::is_same_v<T, bool>) {
          if (!v.is_bool()) bad_field(key, "expected a bool");
          if constexpr (std::is_same_v<T, bool>) *r = v.as_bool();
          else *r.torus = !v.as_bool();
        } else if constexpr (std::is_floating_point_v<T>) {
          if (!v.is_number()) bad_field(key, "expected a number");
          *r = v.as_number();
        } else if constexpr (std::is_integral_v<T>) {
          *r = sim::whole_as<T>(v, "spec field '" + key + "'");
        } else {
          if (!v.is_string()) bad_field(key, "expected a string");
          try {
            set_text(r, key, v.as_string());
          } catch (const std::invalid_argument& e) {
            bad_field(key, e.what());
          }
        }
      },
      f.at);
}

/// Set a field from its wavesim_cli flag; `value()` consumes the flag's
/// value (a switch takes none). Integers obey read_json's bound, so every
/// value a flag accepts survives the run.v1 echo exactly.
void read_flag(const RunField& f, const std::function<const char*()>& value) {
  std::visit(
      [&](auto r) {
        using T = std::remove_pointer_t<decltype(r)>;
        if constexpr (std::is_same_v<T, RunField::Mesh>) {
          *r.torus = false;
        } else if constexpr (std::is_same_v<T, bool>) {
          *r = true;
        } else if constexpr (std::is_integral_v<T>) {
          const char* text = value();
          const T parsed = sim::parse_number<T>(f.flag, text);
          const auto [min, max] = sim::whole_range<T>();
          if (std::cmp_less(parsed, min) || std::cmp_greater(parsed, max)) {
            throw std::invalid_argument(
                std::string(f.flag) + " must be a whole number in [" +
                std::to_string(min) + ", " + std::to_string(max) +
                "] (got '" + text + "')");
          }
          *r = parsed;
        } else if constexpr (std::is_floating_point_v<T>) {
          *r = sim::parse_number<T>(f.flag, value());
        } else {
          set_text(r, f.flag, value());
        }
      },
      f.at);
}

sim::JsonValue json_of(Ref ref) {
  return std::visit(
      [](auto r) -> sim::JsonValue {
        using T = std::remove_pointer_t<decltype(r)>;
        if constexpr (std::is_same_v<T, RunField::Mesh>) {
          return !*r.torus;
        } else if constexpr (std::is_same_v<T, std::vector<std::int32_t>>) {
          return format_radices(*r);
        } else if constexpr (std::is_enum_v<T>) {
          return sim::to_string(*r);
        } else {
          return *r;
        }
      },
      ref);
}

/// The rules both front ends apply once every field is read.
void finish(RunSpec& spec, bool drain_cap_given) {
  if (spec.config.protocol.protocol == sim::ProtocolKind::kWormholeOnly) {
    spec.config.router.wave_switches = 0;
  }
  if (!drain_cap_given) {
    spec.drain_cap = default_drain_cap(spec.warmup, spec.measure);
  }
  // The run seed also seeds the network (random replacement, fault draws).
  spec.config.seed = spec.seed;
  validate(spec);
}

}  // namespace

std::vector<RunField> run_fields(RunSpec& s) {
  sim::SimConfig& c = s.config;
  sim::FaultStorm& storm = c.faults.storm;
  // clang-format off
  return {
      {"topo", "--topo", "RxC[xD..]", "topology radices", &c.topology.radix},
      {"mesh", "--mesh", nullptr, "mesh instead of torus",
       RunField::Mesh{&c.topology.torus}},
      {"protocol", "--protocol", "P", "wormhole | clrp | carp",
       &c.protocol.protocol},
      // The CLRP variant (paper section 3.1) is job.v1-only, and
      // runspec_to_json leaves it out at "full".
      {"variant", nullptr, nullptr, "full | force-first | single-switch",
       &c.protocol.clrp_variant},
      // The CARP calls, message-size distribution and longest message are
      // job.v1-only, and runspec_to_json leaves them out at their defaults.
      {"carp", nullptr, nullptr, "none | random (protocol carp only)",
       &s.carp},
      {"routing", "--routing", "R", "dor | duato | west-first | negative-first",
       &c.router.routing},
      {"pattern", "--pattern", "P",
       "uniform | hotspot | transpose | bit-reversal |\n"
       "bit-complement | tornado | neighbor | working-set", &s.pattern},
      // The working-set shape and channel splitting are job.v1-only, and
      // runspec_to_json leaves them out at their defaults.
      {"ws_size", nullptr, nullptr, "working-set size", &s.working_set.size},
      {"ws_locality", nullptr, nullptr, "reuse rate", &s.working_set.locality},
      {"ws_skew", nullptr, nullptr, "reuse skew", &s.working_set.skew},
      {"vcs", "--vcs", "N", "wormhole VCs", &c.router.wormhole_vcs},
      {"k", "--k", "N", "wave switches (0 under --protocol wormhole)",
       &c.router.wave_switches},
      {"split", nullptr, nullptr, "split the wave bandwidth over k switches",
       &c.router.split_channels},
      {"m", "--m", "N", "MB-m misroute budget", &c.protocol.max_misroutes},
      {"cache", "--cache", "N", "circuit-cache entries per node",
       &c.protocol.circuit_cache_entries},
      {"replacement", "--replacement", "R", "lru | lfu | fifo | random",
       &c.protocol.replacement},
      {"pcs_only", "--pcs-only", nullptr,
       "no wormhole fallback (paper's k=1/w=0 router)", &c.protocol.pcs_only},
      {"virtual", "--virtual", nullptr,
       "virtual circuits (base clock; ablation)", &c.router.virtual_circuits},
      {"max_packet", "--max-packet", "N",
       "wormhole segmentation limit (0 = off)", &c.protocol.max_packet_flits},
      {"fault_rate", "--faults", "F|PATH",
       "static circuit-channel fault rate (number), or\n"
       "a wavesim.faults.v1 dynamic fault schedule file\n"
       "(mid-run link failures/recoveries; docs/FAULTS.md)",
       &c.faults.link_fault_rate},
      {"load", "--load", "F", "offered flits/node/cycle", &s.offered_load},
      {"length", "--length", "N", "message length in flits", &s.message_flits},
      {"sizes", nullptr, nullptr, "fixed | uniform | bimodal", &s.sizes},
      {"max_flits", nullptr, nullptr, "longest message (0 = length)",
       &s.max_flits},
      {"warmup", "--warmup", "N", "warmup cycles", &s.warmup},
      {"measure", "--cycles", "N", "measured cycles", &s.measure},
      {"drain_cap", nullptr, nullptr, "drain cycles before a run counts as "
       "saturated", &s.drain_cap},
      {"seed", "--seed", "N", "RNG seed", &s.seed},
      // The storm block is the dynamic-fault subset jobs can request; full
      // wavesim.faults.v1 schedules stay a CLI feature (--faults PATH).
      {"storm_at", nullptr, nullptr, "cycle a link storm starts", &storm.at},
      {"storm_fraction", nullptr, nullptr, "fraction of links it fails",
       &storm.fraction},
      {"storm_repair_after", nullptr, nullptr, "cycles to repair (0 = never)",
       &storm.repair_after},
  };
  // clang-format on
}

std::vector<std::int32_t> parse_radices(const std::string& text) {
  std::vector<std::int32_t> radix;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = std::min(text.find('x', pos), text.size());
    const char* first = text.data() + pos;
    const char* last = text.data() + next;
    std::int32_t value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (first == last || ec != std::errc() || ptr != last) {
      throw std::invalid_argument("bad radix '" + std::string(first, last) +
                                  "' in topology '" + text + "'");
    }
    radix.push_back(value);
    if (next == text.size()) return radix;
    pos = next + 1;
  }
}

std::string format_radices(const std::vector<std::int32_t>& radix) {
  std::string out;
  for (std::size_t i = 0; i < radix.size(); ++i) {
    if (i > 0) out += 'x';
    out += std::to_string(radix[i]);
  }
  return out;
}

sim::JsonValue runspec_to_json(const RunSpec& spec) {
  RunSpec copy = spec;  // run_fields hands out mutable pointers
  RunSpec defaults;
  const std::vector<RunField> fields = run_fields(copy);
  const std::vector<RunField> base = run_fields(defaults);
  sim::JsonValue doc = sim::JsonValue::object();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    // The storm block appears only with a storm, the keys added after it
    // only away from their defaults: older specs keep their bytes.
    const std::string_view key = fields[i].key;
    sim::JsonValue value = json_of(fields[i].at);
    bool emit = true;
    if (key.starts_with("storm_")) {
      emit = spec.config.faults.storm.at > 0;
    } else if (key.starts_with("ws_") || key == "split" ||
               key == "variant" || key == "carp" || key == "sizes" ||
               key == "max_flits") {
      emit = value.dump() != json_of(base[i].at).dump();
    }
    if (emit) doc.set(fields[i].key, std::move(value));
  }
  return doc;
}

RunSpec runspec_from_json(const sim::JsonValue& value) {
  if (!value.is_object()) throw std::runtime_error("spec must be an object");
  RunSpec spec;
  const std::vector<RunField> fields = run_fields(spec);
  for (const auto& [key, member] : value.members()) {
    const auto f =
        std::find_if(fields.begin(), fields.end(),
                     [&](const RunField& g) { return key == g.key; });
    if (f == fields.end()) {
      throw std::runtime_error("unknown spec field '" + key + "'");
    }
    read_json(*f, member);
  }
  sim::FaultStorm& storm = spec.config.faults.storm;
  if (storm.at == 0 && (value.find("storm_fraction") != nullptr ||
                        value.find("storm_repair_after") != nullptr)) {
    bad_field("storm_fraction", "requires storm_at > 0");
  }
  if (storm.at > 0 && value.find("storm_fraction") == nullptr) {
    storm.fraction = 0.10;
  }
  if (spec.pattern != "working-set") {
    for (const char* key : {"ws_size", "ws_locality", "ws_skew"}) {
      if (value.find(key) != nullptr) {
        bad_field(key, "requires pattern 'working-set'");
      }
    }
  }
  try {
    finish(spec, value.find("drain_cap") != nullptr);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  return spec;
}

RunSpec runspec_from_args(int argc, const char* const* argv,
                                const DriverFlag& driver) {
  RunSpec spec;
  const std::vector<RunField> fields = run_fields(spec);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::function<const char*()> value = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    const auto field = std::find_if(fields.begin(), fields.end(),
                                    [&](const RunField& f) {
                                      return f.flag != nullptr && arg == f.flag;
                                    });
    bool known = true;
    if (arg == "--faults") {
      // A value whose whole text is a number is the rate (validate refuses
      // NaN and out-of-range rates); anything else names a schedule file.
      const char* text = value();
      const char* end = text + std::strlen(text);
      double rate = 0.0;
      const auto [ptr, ec] = std::from_chars(text, end, rate);
      if (ec == std::errc{} && ptr == end && ptr != text) {
        spec.config.faults.link_fault_rate = rate;
      } else {
        known = driver(arg, [text] { return text; }, spec);
      }
    } else if (field != fields.end()) {
      read_flag(*field, value);
    } else {
      known = driver(arg, value, spec);
    }
    if (!known) {
      throw std::invalid_argument("unknown flag: " + arg + " (try --help)");
    }
  }
  finish(spec, false);
  return spec;
}

std::string run_flags_help() {
  RunSpec defaults;
  const std::string indent = "\n" + std::string(22, ' ');
  std::string out;
  for (const RunField& f : run_fields(defaults)) {
    if (f.flag == nullptr) continue;
    std::string line = std::string("  ") + f.flag + " " + (f.arg ? f.arg : "");
    line.resize(std::max<std::size_t>(line.size(), 22), ' ');
    for (const char* c = f.help; *c != '\0'; ++c) {
      line += *c == '\n' ? indent : std::string(1, *c);
    }
    if (f.arg != nullptr) {
      // Numbers print as %g; a multi-line help gets its own default line.
      const sim::JsonValue d = json_of(f.at);
      char text[32];
      std::snprintf(text, sizeof text, "%g", d.is_number() ? d.as_number() : 0);
      line += (std::strchr(f.help, '\n') ? indent : " ") + "(default " +
              (d.is_string() ? d.as_string() : text) + ")";
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace wavesim::snap
