// wavecheck -- static protocol verifier for the wave-switching simulator.
//
// Checks the statically decidable premises of the paper's Theorems 1-4
// (deadlock and livelock freedom of CLRP/CARP over wormhole + PCS) against
// one configuration or the whole supported design space, without running a
// single simulation cycle. Violations come with ordered cycle witnesses.
//
// --bmc adds the bounded model checker (src/model): the premises the
// static pass must skip (Force waits only on acked circuits, no wait
// cycle at runtime, teardowns drain, absence of deadlock) are checked
// exhaustively over every schedule of a small job set on 2-4 node
// topologies, and each BMC verdict is cross-validated against the
// concrete simulator (a counterexample must reproduce under the runtime
// oracle stack; a clean proof must replay clean) — disagreement fails the
// run.
//
//   wavecheck --all-configs [--json report.json]
//   wavecheck [--radix 8x8] [--mesh|--torus] [--routing dor]
//             [--protocol clrp] [--variant full] [--switches 2] [--vcs 2]
//             [--misroutes 2] [--cache 8] [--json report.json] [-v]
//   wavecheck --bmc [--all-configs] [--bmc-states N] [--bmc-depth D] ...
//
// Exit code: 0 all checks passed, 1 at least one violation, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "check/bmc_replay.hpp"
#include "cli_number.hpp"
#include "model/bmc.hpp"
#include "snap/runspec_codec.hpp"

namespace {

using wavesim::analysis::CheckStatus;
using wavesim::analysis::ConfigReport;
using wavesim::cli::number;

void usage(std::FILE* out) {
  std::fputs(
      "usage: wavecheck [options]\n"
      "\n"
      "Static verifier for Theorems 1-4: checks escape-CDG acyclicity, the\n"
      "extended wait-for graph (control + circuit + wormhole resources) and\n"
      "the static livelock bounds of the configured protocol. With --bmc,\n"
      "also model-checks the runtime-skipped premises exhaustively on small\n"
      "topologies and cross-validates every verdict against the simulator.\n"
      "\n"
      "  --all-configs        check the whole supported design space\n"
      "                       (with --bmc: the whole BMC slice)\n"
      "  --radix RxR[xR...]   topology radix per dimension (default 8x8)\n"
      "  --torus | --mesh     wraparound links or not (default torus)\n"
      "  --routing NAME       dor | duato | west-first | negative-first\n"
      "  --protocol NAME      wormhole | clrp | carp (default clrp)\n"
      "  --variant NAME       full | force-first | single-switch\n"
      "  --switches K         wave switches per router (default 2)\n"
      "  --vcs W              wormhole VCs per channel (default 2)\n"
      "  --misroutes M        MB-m misroute budget (default 2)\n"
      "  --cache N            circuit-cache entries per node (default 8)\n"
      "  --json PATH          write a wavesim.analysis.v1 report\n"
      "  --bmc                bounded model checking of the skipped rows\n"
      "                       (2-4 nodes, k <= 2, cache <= 2; the default\n"
      "                       8x8 config is outside the envelope)\n"
      "  --bmc-states N       visited-state budget (default 200000)\n"
      "  --bmc-depth D        schedule-depth budget (default 4096)\n"
      "  --bmc-mutate-force-unacked\n"
      "                       flip the seeded force-waits-on-unacked bug on\n"
      "                       (mutation smoke: BMC must find it)\n"
      "  -v, --verbose        print every check row, not just violations\n"
      "  -h, --help           this text\n",
      out);
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "wavecheck: %s\n", why.c_str());
  std::exit(2);
}

void print_rows(const std::vector<wavesim::analysis::CheckRow>& rows,
                bool verbose) {
  for (const auto& row : rows) {
    if (!verbose && row.status != CheckStatus::kViolation) continue;
    std::printf("  [%-11s] %-29s %s\n", to_string(row.status), row.id.c_str(),
                row.detail.c_str());
  }
}

void print_report(const ConfigReport& report, bool verbose) {
  const bool ok = report.ok();
  if (ok && !verbose) return;
  std::printf("%s: %s\n", report.id.c_str(), ok ? "ok" : "VIOLATION");
  print_rows(report.rows, verbose);
}

/// The replay-agreement contract as a row, so disagreement both prints and
/// counts like any other violation.
wavesim::analysis::CheckRow replay_row(
    const wavesim::check::BmcReplayResult& replay) {
  wavesim::analysis::CheckRow row;
  row.id = "bmc-replay-agreement";
  row.status = replay.agreed ? CheckStatus::kOk : CheckStatus::kViolation;
  row.detail = replay.detail;
  return row;
}

void print_bmc(const wavesim::model::BmcReport& report,
               const wavesim::analysis::CheckRow& agreement, bool verbose) {
  const bool ok = report.ok() && agreement.status != CheckStatus::kViolation;
  if (ok && !verbose) return;
  std::printf("%s [bmc]: %s (%lld states, %lld transitions, depth %d, "
              "symmetry %d)\n",
              report.id.c_str(), ok ? "ok" : "VIOLATION",
              static_cast<long long>(report.states),
              static_cast<long long>(report.transitions), report.depth,
              report.symmetry_group);
  print_rows(report.rows, verbose);
  print_rows({agreement}, verbose);
  if (!report.counterexample.empty() && (verbose || !ok)) {
    std::printf("  counterexample schedule (%zu steps):\n",
                report.counterexample.size());
    for (const auto& step : report.counterexample) {
      std::printf("    %s\n", step.text.c_str());
    }
  }
}

wavesim::sim::JsonValue witness_to_json(
    const wavesim::verify::CycleWitness& witness) {
  auto doc = wavesim::sim::JsonValue::object();
  doc.set("graph", witness.graph);
  auto hops = wavesim::sim::JsonValue::array();
  for (const auto& hop : witness.hops) {
    auto h = wavesim::sim::JsonValue::object();
    h.set("vertex", static_cast<std::int64_t>(hop.vertex));
    h.set("name", hop.name);
    h.set("node", static_cast<std::int64_t>(hop.node));
    h.set("port", static_cast<std::int64_t>(hop.port));
    h.set("index", static_cast<std::int64_t>(hop.index));
    hops.push_back(std::move(h));
  }
  doc.set("hops", std::move(hops));
  return doc;
}

wavesim::sim::JsonValue rows_to_json(
    const std::vector<wavesim::analysis::CheckRow>& rows) {
  auto arr = wavesim::sim::JsonValue::array();
  for (const auto& row : rows) {
    auto r = wavesim::sim::JsonValue::object();
    r.set("id", row.id);
    r.set("status", to_string(row.status));
    r.set("detail", row.detail);
    if (!row.witness.hops.empty()) {
      r.set("witness", witness_to_json(row.witness));
    }
    arr.push_back(std::move(r));
  }
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  bool all_configs = false;
  bool verbose = false;
  bool bmc = false;
  bool bmc_budget_set = false;
  bool bmc_mutate = false;
  std::string json_path;
  wavesim::sim::SimConfig config;
  wavesim::model::BmcOptions bmc_options;

  auto value_of = [&](int& i) -> std::string {
    if (i + 1 >= argc) die(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--all-configs") {
      all_configs = true;
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (arg == "--json") {
      json_path = value_of(i);
    } else if (arg == "--radix") {
      try {
        config.topology.radix = wavesim::snap::parse_radices(value_of(i));
      } catch (const std::invalid_argument& e) {
        die(std::string("bad --radix: ") + e.what());
      }
    } else if (arg == "--torus") {
      config.topology.torus = true;
    } else if (arg == "--mesh") {
      config.topology.torus = false;
    } else if (arg == "--routing") {
      if (!from_string(value_of(i), config.router.routing)) {
        die("unknown --routing");
      }
    } else if (arg == "--protocol") {
      if (!from_string(value_of(i), config.protocol.protocol)) {
        die("unknown --protocol");
      }
      if (config.protocol.protocol ==
          wavesim::sim::ProtocolKind::kWormholeOnly) {
        config.router.wave_switches = 0;
      }
    } else if (arg == "--variant") {
      if (!from_string(value_of(i), config.protocol.clrp_variant)) {
        die("unknown --variant");
      }
    } else if (arg == "--switches") {
      config.router.wave_switches =
          number<std::int32_t>(arg, value_of(i).c_str());
    } else if (arg == "--vcs") {
      config.router.wormhole_vcs =
          number<std::int32_t>(arg, value_of(i).c_str());
    } else if (arg == "--misroutes") {
      config.protocol.max_misroutes =
          number<std::int32_t>(arg, value_of(i).c_str());
    } else if (arg == "--cache") {
      config.protocol.circuit_cache_entries =
          number<std::int32_t>(arg, value_of(i).c_str());
    } else if (arg == "--bmc") {
      bmc = true;
    } else if (arg == "--bmc-states") {
      bmc_options.max_states = number<std::int64_t>(arg, value_of(i).c_str());
      bmc_budget_set = true;
    } else if (arg == "--bmc-depth") {
      bmc_options.max_depth = number<std::int32_t>(arg, value_of(i).c_str());
      bmc_budget_set = true;
    } else if (arg == "--bmc-mutate-force-unacked") {
      bmc_mutate = true;
    } else {
      usage(stderr);
      die("unknown option " + arg);
    }
  }

  if ((bmc_budget_set || bmc_mutate) && !bmc) {
    die("--bmc-states/--bmc-depth/--bmc-mutate-force-unacked need --bmc");
  }
  if (bmc && (bmc_options.max_states < 1 || bmc_options.max_depth < 1)) {
    die("--bmc-states and --bmc-depth must be >= 1");
  }
  config.protocol.mutate_force_unacked =
      config.protocol.mutate_force_unacked || bmc_mutate;

  std::vector<wavesim::sim::SimConfig> targets;
  try {
    if (all_configs) {
      targets = bmc ? wavesim::model::enumerate_bmc_configs()
                    : wavesim::analysis::enumerate_configs();
      if (bmc_mutate) {
        for (auto& c : targets) c.protocol.mutate_force_unacked = true;
      }
    } else {
      if (bmc) {
        std::string why;
        if (!wavesim::model::bmc_supported(config, &why)) {
          die("--bmc rejects this configuration: " + why);
        }
      }
      targets.push_back(config);
    }
  } catch (const std::exception& e) {
    die(e.what());
  }

  std::vector<ConfigReport> reports;
  std::vector<wavesim::model::BmcReport> bmc_reports;
  std::vector<wavesim::check::BmcReplayResult> replays;
  try {
    for (const auto& c : targets) {
      reports.push_back(wavesim::analysis::analyze_config(c));
      if (bmc) {
        bmc_reports.push_back(wavesim::model::run_bmc(c, bmc_options));
        replays.push_back(wavesim::check::replay_bmc(bmc_reports.back()));
      }
    }
  } catch (const std::exception& e) {
    die(e.what());
  }

  std::size_t ok_count = 0;
  std::size_t violations = 0;
  for (const auto& report : reports) {
    print_report(report, verbose);
    if (report.ok()) ++ok_count;
    violations += report.count(CheckStatus::kViolation);
  }
  std::printf("wavecheck: %zu/%zu config(s) ok, %zu violation(s)\n", ok_count,
              reports.size(), violations);

  if (bmc) {
    std::int64_t states = 0;
    std::size_t rows_ok = 0;
    std::size_t bounded_out = 0;
    for (std::size_t i = 0; i < bmc_reports.size(); ++i) {
      const auto& report = bmc_reports[i];
      const auto agreement = replay_row(replays[i]);
      print_bmc(report, agreement, verbose);
      states += report.states;
      rows_ok += report.count(CheckStatus::kOk);
      if (agreement.status == CheckStatus::kOk) ++rows_ok;
      bounded_out += report.count(CheckStatus::kBoundedOut);
      violations += report.count(CheckStatus::kViolation);
      if (agreement.status == CheckStatus::kViolation) ++violations;
    }
    std::printf("wavecheck --bmc: %zu config(s), %lld state(s) explored, "
                "%zu row(s) closed, %zu bounded-out, %zu violation(s)\n",
                bmc_reports.size(), static_cast<long long>(states), rows_ok,
                bounded_out, violations);
  }

  if (!json_path.empty()) {
    auto doc = wavesim::analysis::report_to_json(reports);
    if (bmc) {
      auto section = wavesim::sim::JsonValue::object();
      section.set("schema", "wavesim.bmc.v1");
      auto budgets = wavesim::sim::JsonValue::object();
      budgets.set("max_states",
                  static_cast<std::int64_t>(bmc_options.max_states));
      budgets.set("max_depth",
                  static_cast<std::int64_t>(bmc_options.max_depth));
      section.set("budgets", std::move(budgets));
      std::int64_t states = 0;
      std::int64_t transitions = 0;
      std::size_t rows_violation = 0;
      std::size_t bounded_out = 0;
      bool replays_agreed = true;
      auto configs = wavesim::sim::JsonValue::array();
      for (std::size_t i = 0; i < bmc_reports.size(); ++i) {
        const auto& report = bmc_reports[i];
        auto entry = wavesim::sim::JsonValue::object();
        entry.set("id", report.id);
        auto jobs = wavesim::sim::JsonValue::array();
        for (const auto& job : report.jobs) {
          auto j = wavesim::sim::JsonValue::object();
          j.set("src", static_cast<std::int64_t>(job.src));
          j.set("dest", static_cast<std::int64_t>(job.dest));
          jobs.push_back(std::move(j));
        }
        entry.set("jobs", std::move(jobs));
        entry.set("mutated", report.config.protocol.mutate_force_unacked);
        entry.set("states", static_cast<std::int64_t>(report.states));
        entry.set("transitions",
                  static_cast<std::int64_t>(report.transitions));
        entry.set("depth", static_cast<std::int64_t>(report.depth));
        entry.set("complete", report.complete);
        entry.set("symmetry_group",
                  static_cast<std::int64_t>(report.symmetry_group));
        auto rows = rows_to_json(report.rows);
        rows.push_back(rows_to_json({replay_row(replays[i])}).at(0));
        entry.set("rows", std::move(rows));
        auto replay = wavesim::sim::JsonValue::object();
        replay.set("mode", replays[i].mode);
        replay.set("agreed", replays[i].agreed);
        replay.set("detail", replays[i].detail);
        entry.set("replay", std::move(replay));
        configs.push_back(std::move(entry));
        states += report.states;
        transitions += report.transitions;
        rows_violation += report.count(CheckStatus::kViolation);
        bounded_out += report.count(CheckStatus::kBoundedOut);
        replays_agreed = replays_agreed && replays[i].agreed;
      }
      section.set("configs", std::move(configs));
      auto totals = wavesim::sim::JsonValue::object();
      totals.set("configs",
                 static_cast<std::int64_t>(bmc_reports.size()));
      totals.set("states", states);
      totals.set("transitions", transitions);
      totals.set("rows_violation",
                 static_cast<std::int64_t>(rows_violation));
      totals.set("rows_bounded_out",
                 static_cast<std::int64_t>(bounded_out));
      totals.set("replays_agreed", replays_agreed);
      section.set("totals", std::move(totals));
      doc.set("bmc", std::move(section));
    }
    if (!wavesim::sim::write_json_file(doc, json_path)) return 2;
    std::printf("wavecheck: wrote %s\n", json_path.c_str());
  }
  return violations == 0 ? 0 : 1;
}
