// bench_sweep -- run an experiment spec file through the parallel sweep
// harness and print its tables.
//
//   ./bench_sweep bench/specs/e1_latency_load.json --json e1.json
//   ./bench_sweep bench/specs/sweep.json --quick --threads 1
//
// harness::load_spec decodes the spec file. Every point runs `replicas`
// times with seeds derived from --base-seed. The merged statistics are
// bit-identical for any --threads; the printed points digest shows it.
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench_util.hpp"
#include "harness/sweep.hpp"
#include "sim/number.hpp"

namespace {

using namespace wavesim;

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
  harness::Experiment exp;
  harness::SweepOptions options;
  try {
    if (!has_spec) {
      throw std::runtime_error(
          "missing spec file (usage: bench_sweep SPEC.json [flags])");
    }
    if (replicas < 0 || replicas > 1'000'000) {
      throw std::runtime_error("--replicas must be in [1, 1000000]");
    }
    // sweep.v1 records the base seed as a JSON number, exact up to 2^53.
    if (base_seed < 0 || base_seed > sim::kMaxExactInt) {
      throw std::runtime_error("--base-seed must be a whole number in [0, " +
                               std::to_string(sim::kMaxExactInt) + "]");
    }
    options.engine = engine::engine_config(engine, shards);
    exp = harness::load_spec(sim::read_json_file(argv[1]), cli.quick());
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
    for (const harness::TableSpec& t : exp.tables) {
      if (!t.title.empty()) std::printf("\n%s\n", t.title.c_str());
      std::vector<std::string> header = t.axis_keys;
      for (const harness::Column& c : t.columns) header.push_back(c.text);
      bench::Table table(header);
      for (const auto& cells : t.cells) {
        std::vector<std::string> row = cells;
        for (const harness::Column& c : t.columns) {
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
