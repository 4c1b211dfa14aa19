#include "check/oracle.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "analysis/analyze.hpp"
#include "engine/engine.hpp"
#include "fault/plane.hpp"
#include "sim/rng.hpp"
#include "snap/runstate.hpp"
#include "verify/delivery.hpp"
#include "verify/fsck.hpp"

namespace wavesim::check {

namespace {

/// Event-stream livelock oracle (Theorem 3's observable shadow). MB-m
/// restores the misroute budget when it backtracks over a misrouted hop,
/// so the sound per-attempt invariants are:
///   misroutes  <= m + backtracks   (each backtrack refunds at most one)
///   backtracks <= directed channels (history forbids re-reserving a
///                                    channel within an attempt)
struct AttemptBudget {
  std::int64_t misroutes = 0;
  std::int64_t backtracks = 0;
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

/// Interval (cycles) between fscks and reads of the run's watchdog.
constexpr Cycle kCheckEvery = 1024;
/// Stop collecting after this many violations (the run aborts early).
constexpr std::size_t kMaxViolations = 8;

/// Run `spec` to completion under the dynamic and post-run oracles,
/// with `shards` >= 1 selecting the parallel engine. At cycle `cut` (0 =
/// never) the run is checkpointed, encoded, decoded and resumed from the
/// decoded snapshot; the fingerprint, the attempt budgets and (inside
/// the snapshot) the driver's watchdog carry across.
RunOutcome execute(const snap::RunSpec& spec, std::int32_t shards, Cycle cut,
                   const analysis::LivelockBounds& caps) {
  RunOutcome out;
  const auto violation = [&out](const std::string& text) {
    if (out.violations.size() < kMaxViolations) out.violations.push_back(text);
  };

  // Event sink: order-sensitive fingerprint + per-attempt misroute budgets.
  std::uint64_t fingerprint = 0x77617665u;  // "wave"
  std::unordered_map<CircuitId, AttemptBudget> budgets;
  const auto sink = [&](const core::Event& ev) {
    using U = std::uint64_t;
    for (const U field :
         {U{ev.at}, static_cast<U>(ev.kind), static_cast<U>(ev.node),
          static_cast<U>(ev.msg), static_cast<U>(ev.circuit),
          static_cast<U>(ev.port)}) {
      fingerprint = sim::hash_mix(fingerprint ^ field);
    }
    if (ev.circuit == kInvalidCircuit) return;
    switch (ev.kind) {
      case core::EventKind::kProbeLaunched:
        budgets[ev.circuit] = AttemptBudget{};  // new attempt, fresh budget
        break;
      case core::EventKind::kMisrouted: {
        AttemptBudget& b = budgets[ev.circuit];
        if (++b.misroutes <= caps.misroute_budget + b.backtracks) break;
        std::ostringstream os;
        os << "livelock: circuit " << ev.circuit << " took " << b.misroutes
           << " misroutes with " << b.backtracks
           << " backtracks in one attempt (budget m="
           << caps.misroute_budget << ") at cycle " << ev.at;
        violation(os.str());
        break;
      }
      case core::EventKind::kBacktracked: {
        AttemptBudget& b = budgets[ev.circuit];
        if (++b.backtracks <= caps.backtrack_cap) break;
        std::ostringstream os;
        os << "livelock: circuit " << ev.circuit << " backtracked "
           << b.backtracks << " times in one attempt (channel count "
           << caps.backtrack_cap << ") at cycle " << ev.at;
        violation(os.str());
        break;
      }
      default:
        break;
    }
  };

  auto run = std::make_unique<snap::CheckpointableRun>(spec);
  const auto attach = [&] {
    if (shards >= 1) {
      run->set_engine(engine::make_engine(engine::engine_config("par", shards),
                                          run->sim().topology().num_nodes()));
    }
    run->sim().set_event_sink(sink);
  };
  attach();

  bool stuck = false;
  const auto abort_run = [&] {
    return stuck || out.violations.size() >= kMaxViolations;
  };
  while (!run->done() && !abort_run()) {
    const Cycle now = run->now();
    Cycle next = (now / kCheckEvery + 1) * kCheckEvery;
    if (cut > now) next = std::min(next, cut);
    run->advance(next - now);
    if (run->now() == cut && !run->done()) {
      const snap::Snapshot restored =
          snap::Snapshot::decode(run->checkpoint().encode());
      run = std::make_unique<snap::CheckpointableRun>(restored);
      attach();
    }
    if (run->now() % kCheckEvery != 0) continue;
    // The driver polls its watchdog every OpenLoopDriver::kPollEvery
    // cycles, a divisor of kCheckEvery: its verdict is this cycle's.
    const load::OpenLoopDriver& driver = run->driver();
    const std::string at = std::to_string(run->now());
    if (driver.verdict() == verify::Verdict::kStuck) {
      violation("deadlock: no progress for " +
                std::to_string(driver.stalled_for()) +
                " cycles with work pending at cycle " + at);
      stuck = true;
    }
    for (const auto& v :
         verify::check_control_state(run->sim().network()).violations) {
      violation("fsck at cycle " + at + ": " + v);
    }
  }

  const core::Network& net = run->sim().network();
  // Drain cap elapsed while the watchdog still saw progress: saturation
  // (offered > capacity), not a protocol violation.
  out.saturated = run->done() && !run->result().drained;
  out.offered = net.messages().size();
  out.delivered = net.messages_delivered();
  out.final_cycle = run->now();
  out.fingerprint = fingerprint;
  if (abort_run() || out.saturated) return out;

  for (const auto check : {&verify::check_delivery, &verify::check_drained,
                            &verify::check_control_state}) {
    for (const auto& v : check(net).violations) violation("post-run: " + v);
  }

  // Reachability oracle: after a clean drain the fault plane is dormant
  // (quiescent() requires it), so every node's distance-vector table must
  // have converged to the BFS hop distances over the links that are
  // actually alive, capped at the RIP infinity. A stale route that
  // survived a link failure (or a withdrawal that never un-poisoned
  // after repair) shows up here as an exact metric mismatch.
  if (const fault::FaultPlane* fp = net.fault_plane(); fp != nullptr) {
    const auto& topo = net.topology();
    const std::int32_t n = topo.num_nodes();
    const std::int32_t inf = fp->infinity();
    for (NodeId src = 0; src < n && !abort_run(); ++src) {
      const std::vector<std::int32_t> dist = bfs_over_alive(topo, *fp, src);
      for (NodeId dest = 0; dest < n; ++dest) {
        if (dest == src) continue;
        const std::int32_t d = dist[static_cast<std::size_t>(dest)];
        const std::int32_t expected = d < 0 ? inf : std::min(d, inf);
        const std::int32_t actual = fp->metric(src, dest);
        if (actual == expected) continue;
        std::ostringstream os;
        os << "reachability: node " << src << " route to " << dest
           << " has metric " << actual << " but BFS over alive links says "
           << (d < 0 ? "unreachable" : std::to_string(expected))
           << " (infinity " << inf << ") at cycle " << out.final_cycle;
        violation(os.str());
      }
    }
  }
  return out;
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

RunOutcome run_scenario(const Scenario& scenario) {
  RunOutcome out;
  const snap::RunSpec& spec = scenario.spec;
  try {
    snap::validate(spec);
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
      analysis::analyze_config(spec.config);
  for (const auto& row : analysis_report.rows) {
    if (row.status != analysis::CheckStatus::kViolation) continue;
    out.violations.push_back("structural: " + row.id + ": " + row.detail);
  }
  if (!out.violations.empty()) return out;

  // The livelock caps are the static bounds wavecheck reports (Theorems
  // 3/4), so the runtime oracle and the analyzer cannot drift apart.
  const analysis::LivelockBounds& caps = analysis_report.bounds;
  // A simulator invariant that throws (a corrupt restore, a logic error)
  // is a violation of the run, not a crash of the checker.
  const auto guarded = [&](std::int32_t shards, Cycle cut) {
    try {
      return execute(spec, shards, cut, caps);
    } catch (const std::exception& e) {
      RunOutcome thrown;
      thrown.violations.push_back(std::string("exception: ") + e.what());
      return thrown;
    }
  };
  // The restore cycle is drawn from the seed, inside the injection span.
  const Cycle cut =
      spec.measure == 0 ? 0 : 1 + sim::hash_mix(spec.seed) % spec.measure;
  out = guarded(scenario.engine_shards, cut);

  // Identity oracle: neither the engine nor a checkpoint/restore may change
  // a run, so the one-shot sequential twin must match every observable,
  // the order-sensitive event fingerprint included.
  const RunOutcome twin = guarded(0, 0);
  if (twin != out) {
    const auto brief = [](const RunOutcome& o) {
      std::ostringstream os;
      os << "{fp " << to_hex_u64(o.fingerprint) << ", " << o.delivered << "/"
         << o.offered << " delivered, cycle " << o.final_cycle << ", "
         << o.violations.size() << " violation(s)}";
      return os.str();
    };
    out.violations.push_back(
        "identity: the run (shards=" + std::to_string(scenario.engine_shards) +
        ", restored at cycle " + std::to_string(cut) +
        ") diverged from the one-shot sequential run: " + brief(out) +
        " vs " + brief(twin));
  }
  return out;
}

}  // namespace wavesim::check
