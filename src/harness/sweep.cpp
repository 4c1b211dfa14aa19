#include "harness/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "engine/pool.hpp"
#include "harness/runner.hpp"
#include "sim/build_info.hpp"
#include "sim/number.hpp"
#include "sim/rng.hpp"
#include "snap/runspec_codec.hpp"

namespace wavesim::harness {

namespace {

using Stats = core::SimulationStats;
using Count = std::uint64_t Stats::*;
using Real = double Stats::*;

}  // namespace

const std::vector<StatsField>& stats_fields() {
  // Every key is its member's name; the fault counters nest in "faults".
#define STAT(name) StatsField{#name, "", &Stats::name}
#define FAULT(name) StatsField{#name, "faults", &Stats::name}
  static const std::vector<StatsField> fields = {
      STAT(messages_offered), STAT(messages_delivered), STAT(flits_delivered),
      STAT(latency_mean), STAT(latency_p50), STAT(latency_p95),
      STAT(latency_p99), STAT(latency_max),
      STAT(throughput_flits_per_node_cycle),
      STAT(circuit_hit_count), STAT(circuit_setup_count),
      STAT(fallback_count), STAT(wormhole_count),
      STAT(circuit_hit_latency), STAT(circuit_setup_latency),
      STAT(fallback_latency), STAT(wormhole_latency),
      STAT(cache_hits), STAT(cache_misses), STAT(cache_evictions),
      STAT(probes_launched), STAT(probes_succeeded), STAT(probes_failed),
      STAT(probe_advances), STAT(probe_backtracks), STAT(probe_misroutes),
      STAT(release_requests), STAT(teardowns), STAT(buffer_reallocs),
      FAULT(links_failed), FAULT(links_restored), FAULT(circuits_killed),
      FAULT(circuits_invalidated), FAULT(probes_killed),
      FAULT(transfers_aborted), FAULT(unreachable_fallbacks),
      FAULT(routes_withdrawn), FAULT(route_timeouts), FAULT(dv_updates_sent),
      FAULT(dv_triggered_updates), FAULT(dv_adverts_dropped),
  };
#undef STAT
#undef FAULT
  return fields;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::size_t point_index,
                          std::int32_t replica) noexcept {
  // Three chained SplitMix64 rounds, folding one input per round. The
  // mixing constants are SplitMix64's own; any fixed odd constants work.
  std::uint64_t state = base_seed ^ 0x6a09e667f3bcc909ULL;
  std::uint64_t h = sim::splitmix64(state);
  state = h ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(point_index) + 1));
  h = sim::splitmix64(state);
  state = h ^ (0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(replica) + 1));
  return sim::splitmix64(state);
}

const sim::OnlineStats& PointSummary::metric(std::string_view key) const {
  const auto it = metrics.find(key);
  if (it == metrics.end()) {
    throw std::invalid_argument("no double stats field '" + std::string(key) +
                                "'");
  }
  return it->second;
}

double PointSummary::value(std::string_view key) const {
  if (key == "replicas") return replicas;
  if (key == "saturated_replicas") return saturated_replicas;
  if (key == "stuck_replicas") return stuck_replicas;
  if (const auto it = metrics.find(key); it != metrics.end()) {
    return it->second.mean();
  }
  for (const StatsField& f : stats_fields()) {
    const Count* m = std::get_if<Count>(&f.member);
    if (m != nullptr && key == f.key) {
      return static_cast<double>(counters.*(*m));
    }
  }
  throw std::invalid_argument("unknown point-summary key '" +
                              std::string(key) + "'");
}

bool is_point_key(std::string_view key) {
  return key == "replicas" || key == "saturated_replicas" ||
         key == "stuck_replicas" ||
         std::any_of(stats_fields().begin(), stats_fields().end(),
                     [&](const StatsField& f) { return key == f.key; });
}

SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const SweepOptions& options) {
  for (const auto& point : points) snap::validate(point.spec);
  const std::int32_t replicas = options.replicas > 0 ? options.replicas : 1;
  const std::size_t n = points.size() * static_cast<std::size_t>(replicas);

  // [det: local] wall-time measurement only; wall_seconds is reported
  // but excluded from the determinism contract and all digests.
  const auto start = std::chrono::steady_clock::now();
  std::vector<load::ExperimentResult> outcomes(n);
  const unsigned threads =
      n > 0 ? std::min<unsigned>(
                  engine::resolve_engine_threads(options.threads),
                  static_cast<unsigned>(n))
            : 1;
  run_indexed(
      n,
      [&](std::size_t i) {
        const std::size_t pi = i / static_cast<std::size_t>(replicas);
        snap::RunSpec spec = points[pi].spec;
        // The run seed also seeds the network, as on every front end.
        spec.seed = derive_seed(
            options.base_seed, pi,
            static_cast<std::int32_t>(i % static_cast<std::size_t>(replicas)));
        spec.config.seed = spec.seed;
        snap::CheckpointableRun run(spec);
        if (options.engine.parallel()) {
          run.set_engine(engine::make_engine(
              options.engine, run.sim().topology().num_nodes()));
        }
        while (!run.done()) run.advance(std::numeric_limits<Cycle>::max());
        outcomes[i] = run.result();
      },
      threads);

  // Merge serially in index order: the result is a pure function of the
  // outcome slots, so it does not depend on worker scheduling.
  SweepResult result;
  result.base_seed = options.base_seed;
  result.replicas = replicas;
  result.engine = options.engine;
  result.threads_used = threads;
  result.runs = n;
  result.points.reserve(points.size());
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    PointSummary summary;
    summary.label = points[pi].label;
    summary.replicas = replicas;
    for (std::int32_t ri = 0; ri < replicas; ++ri) {
      const load::ExperimentResult& o =
          outcomes[pi * static_cast<std::size_t>(replicas) +
                   static_cast<std::size_t>(ri)];
      if (!o.drained) ++summary.saturated_replicas;
      if (o.watchdog_verdict == verify::Verdict::kStuck) {
        ++summary.stuck_replicas;
      }
      for (const StatsField& f : stats_fields()) {
        if (const Count* m = std::get_if<Count>(&f.member)) {
          summary.counters.*(*m) += o.stats.*(*m);
        } else {
          summary.metrics[f.key].add(o.stats.*std::get<Real>(f.member));
        }
      }
    }
    result.points.push_back(std::move(summary));
  }
  result.wall_seconds =
      // [det: local] reported measurement, excluded from all digests.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

sim::JsonValue points_to_json(const SweepResult& result) {
  sim::JsonValue points = sim::JsonValue::array();
  for (const PointSummary& p : result.points) {
    sim::JsonValue counters = sim::JsonValue::object();
    sim::JsonValue metrics = sim::JsonValue::object();
    for (const StatsField& f : stats_fields()) {
      if (const Count* m = std::get_if<Count>(&f.member)) {
        counters.set(f.key, p.counters.*(*m));
        continue;
      }
      const sim::OnlineStats& s = p.metric(f.key);
      metrics.set(f.key, sim::JsonValue::object()
                             .set("count", s.count())
                             .set("mean", s.mean())
                             .set("stddev", s.stddev())
                             .set("min", s.min())
                             .set("max", s.max()));
    }
    points.push_back(sim::JsonValue::object()
                         .set("label", p.label)
                         .set("replicas", p.replicas)
                         .set("saturated_replicas", p.saturated_replicas)
                         .set("stuck_replicas", p.stuck_replicas)
                         .set("counters", std::move(counters))
                         .set("metrics", std::move(metrics)));
  }
  return points;
}

sim::JsonValue to_json(const SweepResult& result) {
  return sim::JsonValue::object()
      .set("schema", "wavesim.sweep.v1")
      .set("generated_by", sim::git_describe())
      .set("base_seed", result.base_seed)
      .set("replicas", result.replicas)
      .set("engine", result.engine.to_json())
      .set("threads", result.threads_used)
      .set("host_threads", std::thread::hardware_concurrency())
      .set("runs", result.runs)
      .set("wall_seconds", result.wall_seconds)
      .set("points", points_to_json(result));
}

sim::JsonValue stats_to_json(const core::SimulationStats& stats) {
  sim::JsonValue doc = sim::JsonValue::object();
  sim::JsonValue faults = sim::JsonValue::object();
  for (const StatsField& f : stats_fields()) {
    sim::JsonValue& into = *f.group == '\0' ? doc : faults;
    std::visit([&](auto m) { into.set(f.key, stats.*m); }, f.member);
  }
  return doc.set("faults", std::move(faults));
}

namespace {


/// An axis as bundles: each value an object of job.v1 members (a scalar
/// axis `k` has the one-member objects {"k": value}).
struct Axis {
  std::vector<sim::JsonValue> values;
  std::vector<std::string> keys;  ///< the table columns it fills
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

}  // namespace

Experiment load_spec(const sim::JsonValue& doc, bool quick) {
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


}  // namespace wavesim::harness
