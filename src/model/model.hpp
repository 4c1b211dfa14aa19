// Abstracted protocol model for bounded model checking (wavecheck --bmc).
//
// The model keeps exactly the state the Theorem 1-4 premises talk about --
// per-channel reservation/ack status and per-probe search state -- and
// abstracts everything else (flit timing, link arbitration, the wormhole
// data plane). Each transition is one atomic protocol step of one job:
// launch, one MB-m probe decision (via the *same* pcs::decide the concrete
// control plane calls, so model and runtime cannot drift on the linchpin
// rule), one ack/teardown hop, one cache eviction or release. The explorer
// (explorer.hpp) enumerates every interleaving of those steps over a small
// fixed job set, which is what the runtime-skipped wavecheck rows need:
// they are quantified over schedules, not over time.
//
// Fidelity notes, mapped to the concrete control plane:
//  * channel states Free / Reserved(job) / Acked(job) mirror ChannelStatus
//    kFree / kReservedByProbe / kBusyCircuit(+ack_returned); a circuit's
//    hops commit Reserved -> Acked one hop per ack step, dest -> src, like
//    the travelling ack flit;
//  * probe views are the same MbmView masks ControlPlane::build_view
//    builds (Free -> available, Acked -> established, Reserved -> pending,
//    history/mesh-edge -> in no mask);
//  * attempts reconstruct the concrete SetupSequencer (same variant
//    semantics, same (sum of coords) mod k InitialSwitch staggering);
//  * Force-wait parks the job and demands a release from the owner, which
//    honors it only once established -- the teardown then frees hops
//    src -> dest like the travelling teardown flit;
//  * a full circuit-cache evicts the LRU-style victim by demanding its
//    release, as NodeInterface does when allocating an entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcs/mbm.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace wavesim::model {

/// One circuit-setup job: the model explores every interleaving of the
/// protocol steps of a fixed job set.
struct Job {
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;

  friend bool operator==(const Job&, const Job&) = default;
};

enum class Phase : std::uint8_t {
  kIdle,          ///< not launched yet (may be blocked on the cache)
  kProbing,       ///< MB-m probe searching
  kWaiting,       ///< Force probe parked on wait_port
  kAckWalk,       ///< delivered; ack committing hops dest -> src
  kEstablished,   ///< circuit up (CLRP: stays cached until evicted/released)
  kTearWalk,      ///< teardown freeing hops src -> dest
  kDone,          ///< circuit used and torn down
  kDoneFallback,  ///< setup exhausted; message went wormhole
};

const char* to_string(Phase phase) noexcept;

/// One reserved hop of a probe/circuit path.
struct HopRec {
  NodeId from = kInvalidNode;
  PortId out_port = kInvalidPort;
  std::int8_t misroutes_before = 0;

  friend bool operator==(const HopRec&, const HopRec&) = default;
};

struct JobState {
  Phase phase = Phase::kIdle;
  std::int8_t attempts = 0;  ///< SetupSequencer advances made
  NodeId node = kInvalidNode;
  PortId arrival_port = kInvalidPort;
  std::int8_t misroutes = 0;
  PortId wait_port = kInvalidPort;
  bool release_demanded = false;
  std::int8_t ack_done = 0;   ///< hops committed, counted from the dest end
  std::int8_t tear_done = 0;  ///< hops freed, counted from the src end
  std::vector<HopRec> path;
  /// Per-node searched-port bitmask of the current attempt (MB-m history).
  std::vector<std::uint8_t> history;

  friend bool operator==(const JobState&, const JobState&) = default;
};

/// Full model state. channel[] holds, per (node, switch, port):
/// 0 = free, 1 + 2*j = reserved by job j's probe, 2 + 2*j = acked for job j.
struct State {
  std::vector<std::uint8_t> channel;
  std::vector<JobState> jobs;

  friend bool operator==(const State&, const State&) = default;
};

enum class StepKind : std::uint8_t {
  kStart,    ///< Idle -> Probing (launch the setup)
  kProbe,    ///< one MB-m decision (advance/deliver/wait/backtrack)
  kWait,     ///< parked probe re-decides or re-demands the release
  kAck,      ///< ack commits one hop
  kRelease,  ///< established circuit honors a demand / CARP releases
  kTear,     ///< teardown frees one hop
  kEvict,    ///< full cache demands release of an idle established victim
};

const char* to_string(StepKind kind) noexcept;

struct Step {
  std::uint8_t job = 0;
  StepKind kind = StepKind::kStart;

  friend bool operator==(const Step&, const Step&) = default;
};

/// One enabled transition with its successor state and any violation the
/// transition itself exposes (the force-waits-only-on-acked premise is a
/// property of decisions, so it is checked at the decision).
struct Successor {
  Step step;
  State state;
  std::string text;  ///< human-readable, e.g. "job1 probe advance n2 p0 s0"
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  std::string violation_row;  ///< empty, or the bmc-* row id refuted
  std::string violation_detail;
};

class ProtocolModel {
 public:
  /// `config` must satisfy bmc.hpp's bmc_supported(); `jobs` is the fixed
  /// job set to interleave (every src/dest must be a valid, distinct pair).
  ProtocolModel(const sim::SimConfig& config, std::vector<Job> jobs);

  const sim::SimConfig& config() const noexcept { return config_; }
  const topo::KAryNCube& topology() const noexcept { return topology_; }
  const std::vector<Job>& jobs() const noexcept { return jobs_; }
  std::int32_t num_switches() const noexcept {
    return config_.router.wave_switches;
  }

  State initial_state() const;

  /// Every enabled transition from `s`. Deterministic and stable: at most
  /// one successor per (job, kind), emitted in job-major order.
  std::vector<Successor> successors(const State& s) const;

  /// Job indices of a wait-for cycle among parked probes (empty if none).
  /// Edges follow wait_port to the owning job of that channel.
  std::vector<std::int32_t> wait_cycle(const State& s) const;

  /// True when every job is terminally happy: done, fallen back, or an
  /// established circuit sitting idle in the cache with no release demand.
  bool terminal_ok(const State& s) const;

  /// Byte-stable encoding (the explorer's visited-set key).
  std::string encode(const State& s) const;

  /// Concrete InitialSwitch staggering (NodeInterface: sum of coords mod k).
  std::int32_t initial_switch(NodeId node) const;

  std::int32_t channel_slot(NodeId node, std::int32_t sw,
                            PortId port) const noexcept {
    return (node * num_switches() + sw) * topology_.num_ports() + port;
  }

 private:
  struct Attempt {
    std::int32_t switch_index = 0;
    bool force = false;
    bool exhausted = false;
  };
  Attempt attempt_of(const JobState& j, NodeId src) const;
  pcs::MbmView build_view(const State& s, const JobState& j,
                          std::int32_t sw) const;
  std::int32_t cache_used(const State& s, NodeId src) const;
  /// Apply one MB-m decision to job `ji` of `s` (shared by kProbe/kWait).
  /// Returns false if the decision changes nothing (step not enabled).
  bool apply_decision(Successor& out, const State& s, std::int32_t ji) const;

  sim::SimConfig config_;
  topo::KAryNCube topology_;
  std::vector<Job> jobs_;
};

}  // namespace wavesim::model
