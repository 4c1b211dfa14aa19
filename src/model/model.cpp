#include "model/model.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/protocols.hpp"

namespace wavesim::model {

namespace {

constexpr std::uint8_t kFree = 0;

std::uint8_t reserved_by(std::int32_t job) {
  return static_cast<std::uint8_t>(1 + 2 * job);
}
std::uint8_t acked_for(std::int32_t job) {
  return static_cast<std::uint8_t>(2 + 2 * job);
}
bool is_acked(std::uint8_t c) { return c != kFree && (c - 1) % 2 == 1; }
std::int32_t owner_of(std::uint8_t c) { return (c - 1) / 2; }

bool active_phase(Phase p) {
  return p == Phase::kProbing || p == Phase::kWaiting ||
         p == Phase::kAckWalk || p == Phase::kEstablished ||
         p == Phase::kTearWalk;
}

}  // namespace

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kIdle: return "idle";
    case Phase::kProbing: return "probing";
    case Phase::kWaiting: return "waiting";
    case Phase::kAckWalk: return "ack-walk";
    case Phase::kEstablished: return "established";
    case Phase::kTearWalk: return "tear-walk";
    case Phase::kDone: return "done";
    case Phase::kDoneFallback: return "done-fallback";
  }
  return "?";
}

const char* to_string(StepKind kind) noexcept {
  switch (kind) {
    case StepKind::kStart: return "start";
    case StepKind::kProbe: return "probe";
    case StepKind::kWait: return "wait";
    case StepKind::kAck: return "ack";
    case StepKind::kRelease: return "release";
    case StepKind::kTear: return "tear";
    case StepKind::kEvict: return "evict";
  }
  return "?";
}

ProtocolModel::ProtocolModel(const sim::SimConfig& config,
                             std::vector<Job> jobs)
    : config_(config),
      topology_(config.topology.radix, config.topology.torus),
      jobs_(std::move(jobs)) {
  config_.validate();
  if (config_.protocol.protocol == sim::ProtocolKind::kWormholeOnly) {
    throw std::invalid_argument("ProtocolModel: wormhole baseline has no "
                                "probes or circuits to model");
  }
  if (jobs_.empty() || jobs_.size() > 8) {
    throw std::invalid_argument("ProtocolModel: need 1..8 jobs");
  }
  for (const Job& job : jobs_) {
    if (job.src < 0 || job.src >= topology_.num_nodes() || job.dest < 0 ||
        job.dest >= topology_.num_nodes() || job.src == job.dest) {
      throw std::invalid_argument("ProtocolModel: bad job endpoints");
    }
  }
}

std::int32_t ProtocolModel::initial_switch(NodeId node) const {
  std::int32_t sum = 0;
  for (auto c : topology_.coord_row(node)) sum += c;
  return sum % num_switches();
}

State ProtocolModel::initial_state() const {
  State s;
  s.channel.assign(static_cast<std::size_t>(topology_.num_nodes()) *
                       num_switches() * topology_.num_ports(),
                   kFree);
  s.jobs.resize(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    s.jobs[j].history.assign(static_cast<std::size_t>(topology_.num_nodes()),
                             0);
  }
  return s;
}

ProtocolModel::Attempt ProtocolModel::attempt_of(const JobState& j,
                                                 NodeId src) const {
  const auto mode = config_.protocol.protocol == sim::ProtocolKind::kCarp
                        ? core::SetupSequencer::Mode::kCarp
                        : core::SetupSequencer::Mode::kClrp;
  core::SetupSequencer seq(mode, config_.protocol.clrp_variant,
                           num_switches(), initial_switch(src));
  bool alive = true;
  for (std::int8_t i = 0; i < j.attempts && alive; ++i) alive = seq.advance();
  Attempt att;
  att.exhausted = !alive || seq.exhausted();
  if (!att.exhausted) {
    const core::SetupAttempt cur = seq.current();
    att.switch_index = cur.switch_index;
    att.force = cur.force;
  }
  return att;
}

pcs::MbmView ProtocolModel::build_view(const State& s, const JobState& j,
                                       std::int32_t sw) const {
  pcs::MbmView view;
  for (PortId p = 0; p < topology_.num_ports(); ++p) {
    const std::uint8_t c = s.channel[channel_slot(j.node, sw, p)];
    const std::uint32_t bit = 1u << p;
    if (c == kFree) {
      view.available |= bit;
    } else if (is_acked(c)) {
      view.established |= bit;
    } else {
      view.pending |= bit;
    }
  }
  const std::uint32_t usable =
      pcs::link_mask(topology_, j.node) &
      ~std::uint32_t{j.history[static_cast<std::size_t>(j.node)]};
  view.available &= usable;
  view.established &= usable;
  view.pending &= usable;
  return view;
}

std::int32_t ProtocolModel::cache_used(const State& s, NodeId src) const {
  std::int32_t used = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].src == src && active_phase(s.jobs[j].phase)) ++used;
  }
  return used;
}

bool ProtocolModel::apply_decision(Successor& out, const State& s,
                                   std::int32_t ji) const {
  const Job& job = jobs_[static_cast<std::size_t>(ji)];
  JobState& j = out.state.jobs[static_cast<std::size_t>(ji)];
  const Attempt att = attempt_of(j, job.src);
  if (att.exhausted) {
    throw std::logic_error("model: probing job with exhausted sequencer");
  }
  const std::int32_t sw = att.switch_index;
  const pcs::MbmDecision decision = pcs::decide(
      topology_, j.node, job.dest, build_view(s, j, sw), j.arrival_port,
      j.misroutes, config_.protocol.max_misroutes, att.force,
      config_.protocol.mutate_force_unacked);

  std::ostringstream text;
  text << "job" << ji << ' ' << to_string(out.step.kind);
  out.node = j.node;

  switch (decision.action) {
    case pcs::MbmAction::kDeliver: {
      j.phase = Phase::kAckWalk;
      j.ack_done = 0;
      j.wait_port = kInvalidPort;
      text << " deliver at n" << j.node << " (path " << j.path.size()
           << " hops, sw " << sw << ')';
      break;
    }
    case pcs::MbmAction::kAdvance: {
      const PortId p = decision.port;
      out.port = p;
      out.state.channel[channel_slot(j.node, sw, p)] = reserved_by(ji);
      j.history[static_cast<std::size_t>(j.node)] |=
          static_cast<std::uint8_t>(1u << p);
      j.path.push_back(HopRec{j.node, p, j.misroutes});
      if (decision.misroute) ++j.misroutes;
      text << (decision.misroute ? " misroute" : " advance") << " n" << j.node
           << " p" << static_cast<int>(p) << " s" << sw;
      j.node = topology_.neighbor(j.node, p);
      j.arrival_port = topo::KAryNCube::opposite(p);
      j.phase = Phase::kProbing;
      j.wait_port = kInvalidPort;
      break;
    }
    case pcs::MbmAction::kWaitForce: {
      const PortId p = decision.port;
      out.port = p;
      const std::uint8_t c = s.channel[channel_slot(j.node, sw, p)];
      if (c == kFree) {
        throw std::logic_error("model: force-wait on a free channel");
      }
      const std::int32_t victim = owner_of(c);
      const bool was_waiting_here =
          j.phase == Phase::kWaiting && j.wait_port == p;
      JobState& vj = out.state.jobs[static_cast<std::size_t>(victim)];
      const bool demand_new = !vj.release_demanded;
      if (was_waiting_here && !demand_new) return false;  // no state change
      j.phase = Phase::kWaiting;
      j.wait_port = p;
      vj.release_demanded = true;
      text << " force-wait n" << j.node << " p" << static_cast<int>(p)
           << " s" << sw << " on job" << victim
           << (is_acked(c) ? " (acked)" : " (PENDING)");
      if (!is_acked(c)) {
        // Theorem 1's decision-time premise, refuted: the Force probe
        // chose to wait on a channel whose circuit has not acked.
        out.violation_row = "bmc-force-waits-only-on-acked";
        std::ostringstream why;
        why << "job" << ji << " (" << job.src << "->" << job.dest
            << ") force-waits at node " << j.node << " port "
            << static_cast<int>(p) << " switch " << sw
            << " on a channel reserved by job" << victim
            << "'s still-establishing circuit";
        out.violation_detail = why.str();
      }
      break;
    }
    case pcs::MbmAction::kBacktrack: {
      j.wait_port = kInvalidPort;
      if (j.path.empty()) {
        // Attempt exhausted at the source: next attempt or give up.
        ++j.attempts;
        j.history.assign(j.history.size(), 0);
        j.misroutes = 0;
        j.node = job.src;
        j.arrival_port = kInvalidPort;
        const Attempt next = attempt_of(j, job.src);
        if (!next.exhausted) {
          j.phase = Phase::kProbing;
          text << " next-attempt " << static_cast<int>(j.attempts);
        } else if (config_.protocol.pcs_only) {
          // pcs_only never falls back: restart the whole sequence.
          j.attempts = 0;
          j.phase = Phase::kProbing;
          text << " pcs-only-restart";
        } else {
          j.phase = Phase::kDoneFallback;
          text << " exhausted -> wormhole";
        }
        break;
      }
      const HopRec hop = j.path.back();
      j.path.pop_back();
      out.state.channel[channel_slot(hop.from, sw, hop.out_port)] = kFree;
      j.node = hop.from;
      j.misroutes = hop.misroutes_before;
      j.arrival_port = j.path.empty()
                           ? kInvalidPort
                           : topo::KAryNCube::opposite(j.path.back().out_port);
      j.phase = Phase::kProbing;
      out.port = hop.out_port;
      text << " backtrack to n" << j.node;
      break;
    }
  }
  out.text = text.str();
  return true;
}

std::vector<Successor> ProtocolModel::successors(const State& s) const {
  std::vector<Successor> out;
  const std::int32_t cache = config_.protocol.circuit_cache_entries;
  for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
    const Job& job = jobs_[ji];
    const JobState& j = s.jobs[ji];
    switch (j.phase) {
      case Phase::kIdle: {
        if (cache_used(s, job.src) < cache) {
          Successor succ;
          succ.step = Step{static_cast<std::uint8_t>(ji), StepKind::kStart};
          succ.state = s;
          JobState& nj = succ.state.jobs[ji];
          nj.phase = Phase::kProbing;
          nj.node = job.src;
          nj.arrival_port = kInvalidPort;
          nj.misroutes = 0;
          nj.attempts = 0;
          succ.node = job.src;
          std::ostringstream text;
          text << "job" << ji << " start " << job.src << "->" << job.dest;
          succ.text = text.str();
          out.push_back(std::move(succ));
        } else {
          // Cache full: demand release of an idle established same-source
          // victim, as the concrete interface's entry allocation does.
          for (std::size_t v = 0; v < jobs_.size(); ++v) {
            if (jobs_[v].src != job.src) continue;
            if (s.jobs[v].phase != Phase::kEstablished ||
                s.jobs[v].release_demanded) {
              continue;
            }
            Successor succ;
            succ.step = Step{static_cast<std::uint8_t>(ji), StepKind::kEvict};
            succ.state = s;
            succ.state.jobs[v].release_demanded = true;
            succ.node = job.src;
            std::ostringstream text;
            text << "job" << ji << " evict job" << v << " from node "
                 << job.src << "'s cache";
            succ.text = text.str();
            out.push_back(std::move(succ));
            break;  // one deterministic victim (lowest job index)
          }
        }
        break;
      }
      case Phase::kProbing:
      case Phase::kWaiting: {
        Successor succ;
        succ.step = Step{static_cast<std::uint8_t>(ji),
                         j.phase == Phase::kProbing ? StepKind::kProbe
                                                    : StepKind::kWait};
        succ.state = s;
        if (apply_decision(succ, s, static_cast<std::int32_t>(ji))) {
          out.push_back(std::move(succ));
        }
        break;
      }
      case Phase::kAckWalk: {
        Successor succ;
        succ.step = Step{static_cast<std::uint8_t>(ji), StepKind::kAck};
        succ.state = s;
        JobState& nj = succ.state.jobs[ji];
        const Attempt att = attempt_of(nj, job.src);
        const std::size_t idx =
            nj.path.size() - 1 - static_cast<std::size_t>(nj.ack_done);
        const HopRec& hop = nj.path[idx];
        const std::int32_t slot =
            channel_slot(hop.from, att.switch_index, hop.out_port);
        if (succ.state.channel[slot] !=
            reserved_by(static_cast<std::int32_t>(ji))) {
          throw std::logic_error("model: ack hop not reserved by its job");
        }
        succ.state.channel[slot] = acked_for(static_cast<std::int32_t>(ji));
        ++nj.ack_done;
        succ.node = hop.from;
        succ.port = hop.out_port;
        std::ostringstream text;
        text << "job" << ji << " ack hop n" << hop.from << " p"
             << static_cast<int>(hop.out_port);
        if (nj.ack_done == static_cast<std::int8_t>(nj.path.size())) {
          nj.phase = Phase::kEstablished;
          text << " -> established";
        }
        succ.text = text.str();
        out.push_back(std::move(succ));
        break;
      }
      case Phase::kEstablished: {
        // CLRP keeps the circuit cached until a release is demanded; CARP
        // releases explicitly after the transfer.
        const bool carp =
            config_.protocol.protocol == sim::ProtocolKind::kCarp;
        if (!j.release_demanded && !carp) break;
        Successor succ;
        succ.step = Step{static_cast<std::uint8_t>(ji), StepKind::kRelease};
        succ.state = s;
        JobState& nj = succ.state.jobs[ji];
        nj.phase = Phase::kTearWalk;
        nj.tear_done = 0;
        succ.node = job.src;
        std::ostringstream text;
        text << "job" << ji << " release -> teardown"
             << (j.release_demanded ? " (demanded)" : "");
        succ.text = text.str();
        out.push_back(std::move(succ));
        break;
      }
      case Phase::kTearWalk: {
        Successor succ;
        succ.step = Step{static_cast<std::uint8_t>(ji), StepKind::kTear};
        succ.state = s;
        JobState& nj = succ.state.jobs[ji];
        const Attempt att = attempt_of(nj, job.src);
        const HopRec& hop = nj.path[static_cast<std::size_t>(nj.tear_done)];
        const std::int32_t slot =
            channel_slot(hop.from, att.switch_index, hop.out_port);
        succ.node = hop.from;
        succ.port = hop.out_port;
        std::ostringstream text;
        text << "job" << ji << " teardown hop n" << hop.from << " p"
             << static_cast<int>(hop.out_port);
        if (succ.state.channel[slot] !=
            acked_for(static_cast<std::int32_t>(ji))) {
          // The teardown premise: a tearing-down circuit still owns every
          // hop it is about to free (releases drain unconditionally).
          succ.violation_row = "bmc-teardown-drains";
          std::ostringstream why;
          why << "job" << ji << " teardown at node " << hop.from << " port "
              << static_cast<int>(hop.out_port)
              << " found a channel it does not own";
          succ.violation_detail = why.str();
        } else {
          succ.state.channel[slot] = kFree;
        }
        ++nj.tear_done;
        if (nj.tear_done == static_cast<std::int8_t>(nj.path.size())) {
          nj.phase = Phase::kDone;
          nj.release_demanded = false;
          nj.path.clear();
          nj.ack_done = 0;
          nj.tear_done = 0;
          nj.node = kInvalidNode;
          nj.arrival_port = kInvalidPort;
          nj.history.assign(nj.history.size(), 0);
          text << " -> done";
        }
        succ.text = text.str();
        out.push_back(std::move(succ));
        break;
      }
      case Phase::kDone:
      case Phase::kDoneFallback:
        break;
    }
  }
  return out;
}

std::vector<std::int32_t> ProtocolModel::wait_cycle(const State& s) const {
  const std::int32_t n = static_cast<std::int32_t>(jobs_.size());
  // next[j] = job whose channel j waits on, or -1.
  std::vector<std::int32_t> next(static_cast<std::size_t>(n), -1);
  for (std::int32_t j = 0; j < n; ++j) {
    const JobState& js = s.jobs[static_cast<std::size_t>(j)];
    if (js.phase != Phase::kWaiting) continue;
    const Attempt att = attempt_of(js, jobs_[static_cast<std::size_t>(j)].src);
    const std::uint8_t c =
        s.channel[channel_slot(js.node, att.switch_index, js.wait_port)];
    if (c != kFree) next[static_cast<std::size_t>(j)] = owner_of(c);
  }
  // Follow the unique outgoing edges; a revisit inside one walk is a cycle.
  for (std::int32_t start = 0; start < n; ++start) {
    std::vector<std::int32_t> mark(static_cast<std::size_t>(n), -1);
    std::vector<std::int32_t> walk;
    std::int32_t at = start;
    while (at >= 0 && mark[static_cast<std::size_t>(at)] < 0) {
      mark[static_cast<std::size_t>(at)] =
          static_cast<std::int32_t>(walk.size());
      walk.push_back(at);
      at = next[static_cast<std::size_t>(at)];
    }
    if (at >= 0) {
      return std::vector<std::int32_t>(
          walk.begin() + mark[static_cast<std::size_t>(at)], walk.end());
    }
  }
  return {};
}

bool ProtocolModel::terminal_ok(const State& s) const {
  const bool carp = config_.protocol.protocol == sim::ProtocolKind::kCarp;
  for (const JobState& j : s.jobs) {
    switch (j.phase) {
      case Phase::kDone:
      case Phase::kDoneFallback:
        continue;
      case Phase::kEstablished:
        // A CLRP circuit idling in the cache is a happy end state; CARP
        // always still owes its release (that transition stays enabled,
        // so a CARP job can never appear here in a successor-free state).
        if (!carp && !j.release_demanded) continue;
        return false;
      default:
        return false;
    }
  }
  return true;
}

std::string ProtocolModel::encode(const State& s) const {
  std::string out;
  out.reserve(s.channel.size() + s.jobs.size() * 24);
  out.append(reinterpret_cast<const char*>(s.channel.data()),
             s.channel.size());
  for (const JobState& j : s.jobs) {
    out.push_back(static_cast<char>(j.phase));
    out.push_back(static_cast<char>(j.attempts));
    out.push_back(static_cast<char>(j.node + 1));
    out.push_back(static_cast<char>(j.arrival_port + 1));
    out.push_back(static_cast<char>(j.misroutes));
    out.push_back(static_cast<char>(j.wait_port + 1));
    out.push_back(static_cast<char>(j.release_demanded ? 1 : 0));
    out.push_back(static_cast<char>(j.ack_done));
    out.push_back(static_cast<char>(j.tear_done));
    out.push_back(static_cast<char>(j.path.size()));
    for (const HopRec& hop : j.path) {
      out.push_back(static_cast<char>(hop.from + 1));
      out.push_back(static_cast<char>(hop.out_port + 1));
      out.push_back(static_cast<char>(hop.misroutes_before));
    }
    out.append(reinterpret_cast<const char*>(j.history.data()),
               j.history.size());
  }
  return out;
}

}  // namespace wavesim::model
