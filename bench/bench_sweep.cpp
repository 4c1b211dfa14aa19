// bench_sweep -- run an experiment spec file through the parallel sweep
// harness and print its tables.
//
//   ./bench_sweep bench/specs/e1_latency_load.json --json e1.json
//   ./bench_sweep bench/specs/sweep.json --quick --threads 1
//
// A spec file (docs/SWEEPS.md, "Experiment spec files") names the
// experiment and holds one or more tables. A table's points are the
// cartesian product of its axes; each point is a job.v1 run spec built
// from `base`, then the `quick` overrides under --quick, then one value
// per axis, and decoded by snap::runspec_from_json. An axis whose
// values are objects is a bundle: each object's members go into the spec
// together, for paired settings such as (k, split). Every point runs
// `replicas` times with seeds derived from --base-seed. The merged
// statistics are bit-identical for any --threads; the printed points
// digest makes that easy to check.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench_util.hpp"
#include "harness/sweep.hpp"
#include "sim/number.hpp"
#include "snap/runspec_codec.hpp"

namespace {

using namespace wavesim;

/// A table column: a point-summary key, or the ratio `num/den` of two.
struct Column {
  std::string text;
  std::string num;
  std::string den;  ///< empty for a plain key
};

/// An axis as bundles: each value an object of job.v1 members (a scalar
/// axis `k` has the one-member objects {"k": value}).
struct Axis {
  std::vector<sim::JsonValue> values;
  std::vector<std::string> keys;  ///< the table columns it fills
};

struct TableSpec {
  std::string name;
  std::string title;
  std::vector<std::string> axis_keys;  ///< every axis's keys, in order
  std::vector<Column> columns;
  std::vector<std::vector<std::string>> cells;  ///< axis values per point
};

struct Experiment {
  std::string id, title, setup, note;
  std::int32_t replicas = 1;
  std::vector<TableSpec> tables;
  std::vector<harness::SweepPoint> points;  ///< every table's, in order
};

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error(what);
}

/// The elements of `v`, which must be a non-empty array.
const std::vector<sim::JsonValue>& items(const sim::JsonValue* v,
                                         const std::string& what) {
  if (v == nullptr || !v->is_array() || v->size() == 0) {
    bad(what + " must be a non-empty array");
  }
  return v->elements();
}

std::string text_of(const sim::JsonValue* v, const std::string& key) {
  if (v == nullptr) return "";
  if (!v->is_string()) bad("'" + key + "' must be a string");
  return v->as_string();
}

/// A value as a table cell: strings bare, numbers in their shortest
/// round-trip form, everything else as JSON.
std::string cell(const sim::JsonValue& v) {
  if (v.is_string()) return v.as_string();
  if (!v.is_number()) return v.dump();
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v.as_number()).ptr;
  return std::string(buf, end);
}

/// Whether an axis's values are objects (a bundle); refuses a mix.
bool is_bundle(const std::vector<sim::JsonValue>& values,
               const std::string& name) {
  const auto objects =
      std::count_if(values.begin(), values.end(),
                    [](const sim::JsonValue& v) { return v.is_object(); });
  if (objects != 0 && static_cast<std::size_t>(objects) != values.size()) {
    bad(name + " mixes objects and scalars");
  }
  return objects != 0;
}

Column column(const sim::JsonValue& v) {
  if (!v.is_string()) bad("a column must be a string");
  const std::string& text = v.as_string();
  const std::size_t slash = text.find('/');
  Column c{text, text.substr(0, slash),
           slash == std::string::npos ? "" : text.substr(slash + 1)};
  const bool ratio = slash != std::string::npos;
  if (!harness::is_point_key(c.num) ||
      (ratio && !harness::is_point_key(c.den))) {
    bad("unknown column '" + text + "'");
  }
  return c;
}

void add_table(Experiment& exp, const sim::JsonValue& t, bool quick) {
  sim::check_known_keys(
      t, {"name", "title", "base", "quick", "axes", "columns"}, "table");
  TableSpec table;
  table.name = text_of(t.find("name"), "name");
  if (table.name.empty()) bad("every table needs a 'name'");
  table.title = text_of(t.find("title"), "title");
  const std::string where = "table '" + table.name + "': ";

  sim::JsonValue base = sim::JsonValue::object();
  if (const sim::JsonValue* b = t.find("base")) base = *b;
  if (!base.is_object()) bad(where + "'base' must be an object");
  if (const sim::JsonValue* q = t.find("quick"); q != nullptr && quick) {
    if (!q->is_object()) bad(where + "'quick' must be an object");
    for (const auto& [key, value] : q->members()) base.set(key, value);
  }

  std::vector<Axis> axes;
  if (const sim::JsonValue* all_axes = t.find("axes")) {
    if (!all_axes->is_object()) bad(where + "'axes' must be an object");
    for (const auto& [key, axis] : all_axes->members()) {
      const std::string name = where + "axis '" + key + "'";
      sim::check_known_keys(axis, {"values", "quick"}, name.c_str());
      const auto& all = items(axis.find("values"), name + " 'values'");
      const bool subset = quick && axis.find("quick") != nullptr;
      const auto& used =
          subset ? items(axis.find("quick"), name + " 'quick'") : all;
      const bool bundle = is_bundle(all, name);
      if (is_bundle(used, name) != bundle) {
        bad(name + " mixes objects and scalars");
      }
      // One column per member key, in first-seen order.
      Axis a;
      for (const sim::JsonValue& v : used) {
        a.values.push_back(bundle ? v : sim::JsonValue::object().set(key, v));
        for (const auto& [member, value] : a.values.back().members()) {
          if (std::find(a.keys.begin(), a.keys.end(), member) ==
              a.keys.end()) {
            a.keys.push_back(member);
          }
        }
      }
      table.axis_keys.insert(table.axis_keys.end(), a.keys.begin(),
                             a.keys.end());
      axes.push_back(std::move(a));
    }
  }
  for (const auto& c : items(t.find("columns"), where + "'columns'")) {
    table.columns.push_back(column(c));
  }

  // The cartesian product, first axis outermost.
  std::vector<std::size_t> at(axes.size(), 0);
  while (true) {
    sim::JsonValue spec = base;
    std::vector<std::string> cells;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const sim::JsonValue& v = axes[a].values[at[a]];
      for (const auto& [key, member] : v.members()) {
        spec.set(key, member);
        label += (label.empty() ? "" : ",") + key + "=" + cell(member);
      }
      for (const std::string& key : axes[a].keys) {
        const sim::JsonValue* member = v.find(key);
        cells.push_back(member != nullptr ? cell(*member) : "-");
      }
    }
    try {
      exp.points.push_back(
          {table.name + "/" + label, snap::runspec_from_json(spec)});
    } catch (const std::runtime_error& e) {
      bad(where + e.what());
    }
    table.cells.push_back(std::move(cells));
    std::size_t a = axes.size();
    while (a > 0 && ++at[a - 1] == axes[a - 1].values.size()) at[--a] = 0;
    if (a == 0) break;
  }
  exp.tables.push_back(std::move(table));
}

Experiment load_spec(const char* path, bool quick) {
  const sim::JsonValue doc = sim::read_json_file(path);
  sim::check_known_keys(doc, {"experiment", "title", "setup", "note",
                              "replicas", "tables"}, "spec");
  Experiment exp;
  exp.id = text_of(doc.find("experiment"), "experiment");
  exp.title = text_of(doc.find("title"), "title");
  exp.setup = text_of(doc.find("setup"), "setup");
  exp.note = text_of(doc.find("note"), "note");
  if (const sim::JsonValue* r = doc.find("replicas")) {
    exp.replicas = static_cast<std::int32_t>(
        sim::whole_or_throw(*r, "'replicas'", 1, 1'000'000));
  }
  for (const sim::JsonValue& t : items(doc.find("tables"), "'tables'")) {
    add_table(exp, t, quick);
  }
  return exp;
}

std::string format(double x) {
  const double mag = std::fabs(x);
  const int precision = x == std::trunc(x) ? 0 : mag >= 100 ? 1
                                             : mag >= 1   ? 2
                                                          : 3;
  return bench::fmt(x, precision);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr const char* kFlagsHelp =
    "  --replicas N      replicas per point (default: the spec's, else 1)\n"
    "  --base-seed N     base RNG seed in [0, 2^53] (default 1)\n"
    "  --engine seq|par  step engine per simulation (default seq;\n"
    "                    par never changes results, only wall time)\n"
    "  --shards N        shard count for --engine par (default auto)\n";

}  // namespace

int main(int argc, char** argv) {
  // The spec file comes first; the flags follow it.
  const bool has_spec = argc > 1 && argv[1][0] != '-';
  bench::Cli cli("SWEEP", "usage: bench_sweep SPEC.json [flags]");
  std::int64_t replicas = 0;
  std::int64_t base_seed = 1;
  std::string engine = "seq";
  std::optional<std::int32_t> shards;
  const auto flag = [&](const std::string& arg,
                        const std::function<const char*()>& value) {
    if (arg == "--replicas") {
      replicas = sim::parse_number<std::int64_t>(arg, value());
    } else if (arg == "--base-seed") {
      base_seed = sim::parse_number<std::int64_t>(arg, value());
    } else if (arg == "--engine") {
      engine = value();
    } else if (arg.starts_with("--engine=")) {
      engine = arg.substr(std::string_view("--engine=").size());
    } else if (arg == "--shards") {
      shards = sim::parse_number<std::int32_t>(arg, value());
    } else {
      return false;
    }
    return true;
  };
  if (!cli.parse(argc - has_spec, argv + has_spec, flag, kFlagsHelp)) {
    return cli.exit_code();
  }
  Experiment exp;
  harness::SweepOptions options;
  try {
    if (!has_spec) {
      bad("missing spec file (usage: bench_sweep SPEC.json [flags])");
    }
    if (replicas < 0 || replicas > 1'000'000) {
      bad("--replicas must be in [1, 1000000]");
    }
    // sweep.v1 records the base seed as a JSON number, exact up to 2^53.
    if (base_seed < 0 || base_seed > sim::kMaxExactInt) {
      bad("--base-seed must be a whole number in [0, " +
          std::to_string(sim::kMaxExactInt) + "]");
    }
    options.engine = engine::engine_config(engine, shards);
    exp = load_spec(argv[1], cli.quick());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sweep: %s%s\n",
                 has_spec ? (std::string(argv[1]) + ": ").c_str() : "",
                 e.what());
    return 2;
  }
  cli.rename(exp.id, exp.title);
  cli.set_engine(options.engine);

  return cli.run([&] {
    bench::banner(exp.id, exp.title, exp.setup);
    options.base_seed = static_cast<std::uint64_t>(base_seed);
    options.replicas =
        replicas > 0 ? static_cast<std::int32_t>(replicas) : exp.replicas;
    options.threads = cli.threads();
    const harness::SweepResult result = harness::run_sweep(exp.points, options);

    auto point = result.points.begin();
    for (const TableSpec& t : exp.tables) {
      if (!t.title.empty()) std::printf("\n%s\n", t.title.c_str());
      std::vector<std::string> header = t.axis_keys;
      for (const Column& c : t.columns) header.push_back(c.text);
      bench::Table table(header);
      for (const auto& cells : t.cells) {
        std::vector<std::string> row = cells;
        for (const Column& c : t.columns) {
          const double num = point->value(c.num);
          const double den = c.den.empty() ? 1.0 : point->value(c.den);
          row.push_back(format(den != 0.0 ? num / den : 0.0));
        }
        table.add_row(std::move(row));
        ++point;
      }
      cli.report(table, t.name);
    }
    if (!exp.note.empty()) std::printf("\n%s\n", exp.note.c_str());

    const std::string points_dump = harness::points_to_json(result).dump();
    std::printf("\n%zu runs (%zu points x %d replicas) on %u thread(s) in "
                "%.2fs\npoints digest: %016llx\n",
                result.runs, result.points.size(), result.replicas,
                result.threads_used, result.wall_seconds,
                static_cast<unsigned long long>(fnv1a(points_dump)));
    cli.note("sweep", harness::to_json(result));
    cli.note("points_digest", bench::fmt_int(fnv1a(points_dump)));

    for (const harness::PointSummary& p : result.points) {
      bench::require(p.counters.messages_delivered > 0,
                     p.label + ": delivered no messages");
    }
    return true;
  });
}
