#include "check/oracle.hpp"

#include <exception>
#include <memory>
#include <sstream>
#include <unordered_map>

#include <algorithm>

#include "analysis/analyze.hpp"
#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "fault/plane.hpp"
#include "sim/rng.hpp"
#include "verify/delivery.hpp"
#include "verify/fsck.hpp"
#include "verify/watchdog.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic.hpp"

namespace wavesim::check {

namespace {

/// Event-stream livelock oracle (Theorem 3's observable shadow). MB-m
/// restores the misroute budget when it backtracks over a misrouted hop,
/// so the sound per-attempt invariants are:
///   misroutes  <= m + backtracks   (each backtrack refunds at most one)
///   backtracks <= directed channels (history forbids re-reserving a
///                                    channel within an attempt)
struct AttemptBudget {
  std::uint64_t misroutes = 0;
  std::uint64_t backtracks = 0;
};

/// Hop distances from `src` over the currently-alive links, by BFS. The
/// ground truth the distance-vector tables must agree with once settled.
std::vector<std::int32_t> bfs_over_alive(const topo::KAryNCube& topo,
                                         const fault::FaultPlane& fp,
                                         NodeId src) {
  std::vector<std::int32_t> dist(
      static_cast<std::size_t>(topo.num_nodes()), -1);
  std::vector<NodeId> frontier{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (const NodeId node : frontier) {
      for (PortId port = 0; port < topo.num_ports(); ++port) {
        if (!topo.has_neighbor(node, port)) continue;
        if (!fp.link_alive(node, port)) continue;
        const NodeId n = topo.neighbor(node, port);
        if (dist[static_cast<std::size_t>(n)] >= 0) continue;
        dist[static_cast<std::size_t>(n)] =
            dist[static_cast<std::size_t>(node)] + 1;
        next.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

std::unique_ptr<load::SizeDist> make_size_dist(const Scenario& s) {
  const std::int32_t min_flits = s.spec.message_flits;
  if (s.size_dist == "uniform" && s.max_flits > min_flits) {
    return std::make_unique<load::UniformSize>(min_flits, s.max_flits);
  }
  if (s.size_dist == "bimodal" && s.max_flits > min_flits) {
    return std::make_unique<load::BimodalSize>(min_flits, s.max_flits, 0.3);
  }
  return std::make_unique<load::FixedSize>(min_flits);
}

}  // namespace

std::string RunOutcome::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << (saturated ? "saturated" : "ok") << " (" << delivered << "/"
       << offered << " delivered, cycle " << final_cycle << ", fp "
       << to_hex_u64(fingerprint) << ")";
    return os.str();
  }
  os << violations.size() << " violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

RunOutcome run_scenario(const Scenario& scenario,
                        const OracleOptions& options) {
  RunOutcome out;
  const snap::RunSpec& spec = scenario.spec;
  const sim::SimConfig& config = spec.config;
  try {
    config.validate();
  } catch (const std::exception& e) {
    out.violations.push_back(std::string("config invalid: ") + e.what());
    return out;
  }

  // Static analysis first: a violated premise of Theorems 1-4 (cyclic
  // escape CDG, cyclic extended wait-for graph, broken blocking rule)
  // means the deadlock-freedom precondition is gone, so simulating would
  // only tell us *whether* this run happens to trigger it. Fail fast and
  // deterministically with the analyzer's witness-bearing detail.
  const analysis::ConfigReport analysis_report =
      analysis::analyze_config(config);
  for (const auto& row : analysis_report.rows) {
    if (row.status != analysis::CheckStatus::kViolation) continue;
    out.violations.push_back("structural: " + row.id + ": " + row.detail);
  }
  if (!out.violations.empty()) return out;

  core::Simulation sim(config);
  if (scenario.engine_shards >= 1) {
    engine::EngineConfig engine_config;
    engine_config.kind = engine::EngineKind::kPar;
    engine_config.shards = scenario.engine_shards;
    sim.set_engine(
        engine::make_engine(engine_config, sim.topology().num_nodes()));
  }

  // Event sink: order-sensitive fingerprint + per-attempt misroute budgets.
  // The caps come from the same static bounds wavecheck reports (Theorems
  // 3/4), so the runtime oracle and the analyzer cannot drift apart.
  const std::uint64_t backtrack_cap =
      static_cast<std::uint64_t>(analysis_report.bounds.backtrack_cap);
  const std::uint64_t misroute_cap =
      static_cast<std::uint64_t>(analysis_report.bounds.misroute_budget);
  std::uint64_t fingerprint = 0x77617665u;  // "wave"
  std::unordered_map<CircuitId, AttemptBudget> budgets;
  sim.set_event_sink([&](const core::Event& ev) {
    fingerprint = sim::hash_mix(fingerprint ^ ev.at);
    fingerprint =
        sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.kind));
    fingerprint =
        sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.node));
    fingerprint =
        sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.msg));
    fingerprint =
        sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.circuit));
    fingerprint =
        sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.port));
    if (ev.circuit == kInvalidCircuit) return;
    switch (ev.kind) {
      case core::EventKind::kProbeLaunched:
        budgets[ev.circuit] = AttemptBudget{};  // new attempt, fresh budget
        break;
      case core::EventKind::kMisrouted: {
        AttemptBudget& b = budgets[ev.circuit];
        ++b.misroutes;
        if (b.misroutes > misroute_cap + b.backtracks &&
            out.violations.size() < options.max_violations) {
          std::ostringstream os;
          os << "livelock: circuit " << ev.circuit << " took " << b.misroutes
             << " misroutes with " << b.backtracks
             << " backtracks in one attempt (budget m=" << misroute_cap
             << ") at cycle " << ev.at;
          out.violations.push_back(os.str());
        }
        break;
      }
      case core::EventKind::kBacktracked: {
        AttemptBudget& b = budgets[ev.circuit];
        ++b.backtracks;
        if (b.backtracks > backtrack_cap &&
            out.violations.size() < options.max_violations) {
          std::ostringstream os;
          os << "livelock: circuit " << ev.circuit << " backtracked "
             << b.backtracks << " times in one attempt (channel count "
             << backtrack_cap << ") at cycle " << ev.at;
          out.violations.push_back(os.str());
        }
        break;
      }
      default:
        break;
    }
  });

  // Workload streams fork deterministically from the scenario seed.
  sim::Rng root(spec.seed);
  sim::Rng inject_rng = root.fork();
  sim::Rng pattern_rng = root.fork();
  sim::Rng carp_rng = root.fork();
  std::unique_ptr<load::TrafficPattern> pattern;
  try {
    pattern = load::make_traffic(spec.pattern, sim.topology(), pattern_rng,
                                 spec.working_set);
  } catch (const std::exception& e) {
    out.violations.push_back(std::string("workload invalid: ") + e.what());
    return out;
  }
  const std::unique_ptr<load::SizeDist> sizes = make_size_dist(scenario);
  const double p_message = spec.offered_load / sizes->mean();

  verify::ProgressWatchdog watchdog(sim.network(), options.watchdog_patience);
  const Cycle check_every =
      options.check_every > 0 ? options.check_every : 1024;
  bool stuck = false;
  auto periodic_checks = [&]() {
    if (watchdog.poll() == verify::Verdict::kStuck &&
        out.violations.size() < options.max_violations) {
      std::ostringstream os;
      os << "deadlock: no progress for " << watchdog.stalled_for()
         << " cycles with work pending at cycle " << sim.now();
      out.violations.push_back(os.str());
      stuck = true;
    }
    const verify::CheckResult fsck =
        verify::check_control_state(sim.network());
    for (const auto& v : fsck.violations) {
      if (out.violations.size() >= options.max_violations) break;
      std::ostringstream os;
      os << "fsck at cycle " << sim.now() << ": " << v;
      out.violations.push_back(os.str());
    }
  };
  auto abort_run = [&]() {
    return stuck || out.violations.size() >= options.max_violations;
  };

  const std::int32_t n = sim.topology().num_nodes();
  // The oracle injects itself rather than through load::OpenLoopDriver:
  // under CARP it also establishes and releases circuits at random.
  const bool carp = config.protocol.protocol == sim::ProtocolKind::kCarp;
  for (Cycle c = 0; c < spec.measure && !abort_run(); ++c) {
    for (NodeId src = 0; src < n; ++src) {
      if (!inject_rng.chance(p_message)) continue;
      const NodeId dest = pattern->pick(src, inject_rng);
      const std::int32_t length = sizes->sample(inject_rng);
      if (carp && carp_rng.chance(0.3)) {
        sim.establish_circuit(src, dest, scenario.max_flits);
      }
      sim.send(src, dest, length);
      ++out.offered;
      if (carp && carp_rng.chance(0.1)) sim.release_circuit(src, dest);
    }
    sim.step();
    if (sim.now() % check_every == 0) periodic_checks();
  }

  // Drain. Hitting the cap while the watchdog still sees movement is
  // saturation (offered > capacity), not a protocol violation.
  const Cycle drain_deadline = sim.now() + spec.drain_cap;
  while (!abort_run() && !sim.network().quiescent()) {
    if (sim.now() >= drain_deadline) {
      out.saturated = true;
      break;
    }
    sim.step();
    if (sim.now() % check_every == 0) periodic_checks();
  }

  out.final_cycle = sim.now();
  out.delivered = sim.network().messages_delivered();
  out.fingerprint = fingerprint;

  if (!abort_run() && !out.saturated) {
    const auto append = [&](const verify::CheckResult& result) {
      for (const auto& v : result.violations) {
        if (out.violations.size() >= options.max_violations) break;
        out.violations.push_back("post-run: " + v);
      }
    };
    append(verify::check_delivery(sim.network()));
    append(verify::check_drained(sim.network()));
    append(verify::check_control_state(sim.network()));

    // Reachability oracle: after a clean drain the fault plane is dormant
    // (quiescent() requires it), so every node's distance-vector table must
    // have converged to the BFS hop distances over the links that are
    // actually alive, capped at the RIP infinity. A stale route that
    // survived a link failure (or a withdrawal that never un-poisoned
    // after repair) shows up here as an exact metric mismatch.
    if (const fault::FaultPlane* fp = sim.network().fault_plane();
        fp != nullptr) {
      const auto& topo = sim.topology();
      const std::int32_t inf = fp->infinity();
      for (NodeId src = 0;
           src < n && out.violations.size() < options.max_violations; ++src) {
        const std::vector<std::int32_t> dist = bfs_over_alive(topo, *fp, src);
        for (NodeId dest = 0; dest < n; ++dest) {
          if (dest == src) continue;
          const std::int32_t d = dist[static_cast<std::size_t>(dest)];
          const std::int32_t expected = d < 0 ? inf : std::min(d, inf);
          const std::int32_t actual = fp->metric(src, dest);
          if (actual == expected) continue;
          if (out.violations.size() >= options.max_violations) break;
          std::ostringstream os;
          os << "reachability: node " << src << " route to " << dest
             << " has metric " << actual << " but BFS over alive links says "
             << (d < 0 ? "unreachable" : std::to_string(expected))
             << " (infinity " << inf << ") at cycle " << sim.now();
          out.violations.push_back(os.str());
        }
      }
    }
  }

  // Equivalence oracle: the parallel engine promises bit-identical results,
  // so a sequential re-run of the same scenario must match every observable
  // — including the order-sensitive event fingerprint. The twin has
  // engine_shards = 0, so the recursion terminates after one level.
  if (scenario.engine_shards >= 1 && options.check_engine_equivalence) {
    Scenario twin = scenario;
    twin.engine_shards = 0;
    const RunOutcome seq = run_scenario(twin, options);
    if (seq.fingerprint != out.fingerprint || seq.offered != out.offered ||
        seq.delivered != out.delivered ||
        seq.final_cycle != out.final_cycle ||
        seq.saturated != out.saturated ||
        seq.violations != out.violations) {
      std::ostringstream os;
      os << "engine equivalence: parallel run (shards="
         << scenario.engine_shards
         << ") diverged from the sequential stepper: par {fp "
         << to_hex_u64(out.fingerprint) << ", " << out.delivered << "/"
         << out.offered << " delivered, cycle " << out.final_cycle << ", "
         << out.violations.size() << " violation(s)} vs seq {fp "
         << to_hex_u64(seq.fingerprint) << ", " << seq.delivered << "/"
         << seq.offered << " delivered, cycle " << seq.final_cycle << ", "
         << seq.violations.size() << " violation(s)}";
      out.violations.push_back(os.str());
    }
  }
  return out;
}

}  // namespace wavesim::check
