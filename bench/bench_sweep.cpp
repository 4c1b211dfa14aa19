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
// per axis, and decoded by service::runspec_from_json. Every point runs
// `replicas` times with seeds derived from --base-seed. The merged
// statistics are bit-identical for any --threads; the printed points
// digest makes that easy to check.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench_util.hpp"
#include "harness/sweep.hpp"
#include "service/proto.hpp"

namespace {

using namespace wavesim;

/// A table column: a point-summary key, or the ratio `num/den` of two.
struct Column {
  std::string text;
  std::string num;
  std::string den;  ///< empty for a plain key
};

struct TableSpec {
  std::string name;
  std::string title;
  std::vector<std::string> axes;
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

  std::vector<std::vector<sim::JsonValue>> values;
  if (const sim::JsonValue* axes = t.find("axes")) {
    if (!axes->is_object()) bad(where + "'axes' must be an object");
    for (const auto& [key, axis] : axes->members()) {
      const std::string name = where + "axis '" + key + "'";
      sim::check_known_keys(axis, {"values", "quick"}, name.c_str());
      const auto& all = items(axis.find("values"), name + " 'values'");
      const bool subset = quick && axis.find("quick") != nullptr;
      table.axes.push_back(key);
      values.push_back(subset ? items(axis.find("quick"), name + " 'quick'")
                              : all);
    }
  }
  for (const auto& c : items(t.find("columns"), where + "'columns'")) {
    table.columns.push_back(column(c));
  }

  // The cartesian product, first axis outermost.
  std::vector<std::size_t> at(values.size(), 0);
  while (true) {
    sim::JsonValue spec = base;
    std::vector<std::string> cells;
    std::string label = table.name + "/";
    for (std::size_t a = 0; a < values.size(); ++a) {
      const sim::JsonValue& v = values[a][at[a]];
      spec.set(table.axes[a], v);
      cells.push_back(cell(v));
      label += (a > 0 ? "," : "") + table.axes[a] + "=" + cell(v);
    }
    try {
      exp.points.push_back({label, service::runspec_from_json(spec)});
    } catch (const std::runtime_error& e) {
      bad(where + e.what());
    }
    table.cells.push_back(std::move(cells));
    std::size_t a = values.size();
    while (a > 0 && ++at[a - 1] == values[a - 1].size()) at[--a] = 0;
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
    const auto n = sim::whole_in(*r, 1, 1'000'000);
    if (!n) bad("'replicas' must be a whole number in [1, 1000000]");
    exp.replicas = static_cast<std::int32_t>(*n);
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

}  // namespace

int main(int argc, char** argv) {
  // The spec file comes first; the flags follow it.
  const bool has_spec = argc > 1 && argv[1][0] != '-';
  bench::Cli cli("SWEEP", "usage: bench_sweep SPEC.json [flags]");
  std::int64_t replicas = 0;
  std::int64_t base_seed = 1;
  cli.add_int_flag("--replicas", &replicas,
                   "replicas per point (default: the spec's, else 1)");
  cli.add_int_flag("--base-seed", &base_seed, "base RNG seed (default 1)");
  if (!cli.parse(argc - has_spec, argv + has_spec)) return cli.exit_code();
  Experiment exp;
  try {
    if (!has_spec) {
      bad("missing spec file (usage: bench_sweep SPEC.json [flags])");
    }
    if (replicas < 0 || replicas > 1'000'000) {
      bad("--replicas must be in [1, 1000000]");
    }
    if (base_seed < 0) bad("--base-seed must be >= 0");
    exp = load_spec(argv[1], cli.quick());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sweep: %s%s\n",
                 has_spec ? (std::string(argv[1]) + ": ").c_str() : "",
                 e.what());
    return 2;
  }
  cli.rename(exp.id, exp.title);

  return cli.run([&] {
    bench::banner(exp.id, exp.title, exp.setup);
    harness::SweepOptions options;
    options.base_seed = static_cast<std::uint64_t>(base_seed);
    options.replicas =
        replicas > 0 ? static_cast<std::int32_t>(replicas) : exp.replicas;
    options.threads = cli.threads();
    options.engine = cli.engine_config();
    const harness::SweepResult result = harness::run_sweep(exp.points, options);

    auto point = result.points.begin();
    for (const TableSpec& t : exp.tables) {
      if (!t.title.empty()) std::printf("\n%s\n", t.title.c_str());
      std::vector<std::string> header = t.axes;
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
