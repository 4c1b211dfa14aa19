#include "fault/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace wavesim::fault {

namespace {

[[noreturn]] void bad(const std::string& why) {
  throw std::runtime_error("faults schedule: " + why);
}

/// Member `key` of an event or block as a whole number of type T, or
/// `fallback` when absent (sim::whole_as: never truncated or wrapped, so
/// a node id cannot wrap into range before it is checked).
template <typename T>
T optional_whole(const sim::JsonValue& obj, const char* key, T fallback,
                 const char* where) {
  const sim::JsonValue* v = obj.find(key);
  return v == nullptr ? fallback
                      : sim::whole_as<T>(*v, std::string("faults schedule: ") +
                                                 where + ": \"" + key + "\"");
}

template <typename T>
T require_whole(const sim::JsonValue& obj, const char* key,
                const char* where) {
  const sim::JsonValue* v = obj.find(key);
  if (v == nullptr) bad(std::string(where) + " needs numeric \"" + key + "\"");
  return optional_whole<T>(obj, key, T{}, where);
}

double optional_num(const sim::JsonValue& obj, const char* key,
                    double fallback, const char* where) {
  const sim::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    bad(std::string(where) + ": \"" + key + "\" must be a number");
  }
  return v->as_number();
}

}  // namespace

sim::FaultConfig faults_from_json(const sim::JsonValue& doc) {
  sim::check_known_keys(doc, {"schema", "events", "storm", "churn", "dv"},
                        "faults schedule");
  const sim::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kFaultsSchema) {
    bad(std::string("schema must be \"") + kFaultsSchema + "\"");
  }

  sim::FaultConfig faults;
  if (const sim::JsonValue* events = doc.find("events")) {
    if (!events->is_array()) bad("\"events\" must be an array");
    for (const sim::JsonValue& ev : events->elements()) {
      sim::check_known_keys(ev, {"at", "kind", "node", "port"},
                            "faults schedule event");
      sim::FaultEvent out;
      out.at = require_whole<Cycle>(ev, "at", "event");
      const sim::JsonValue* kind = ev.find("kind");
      if (kind == nullptr || !kind->is_string() ||
          !sim::from_string(kind->as_string(), out.kind)) {
        bad("event \"kind\" must be one of link-down, link-up, node-down, "
            "node-up");
      }
      out.node = require_whole<NodeId>(ev, "node", "event");
      const bool link_event = out.kind == sim::FaultEventKind::kLinkDown ||
                              out.kind == sim::FaultEventKind::kLinkUp;
      if (link_event) {
        out.port = require_whole<PortId>(ev, "port", "event");
      } else if (ev.find("port") != nullptr) {
        bad("node events take no \"port\"");
      }
      faults.events.push_back(out);
    }
  }

  if (const sim::JsonValue* storm = doc.find("storm")) {
    sim::check_known_keys(*storm, {"at", "fraction", "repair_after"},
                          "faults schedule storm");
    faults.storm.at = optional_whole<Cycle>(*storm, "at", 0, "storm");
    faults.storm.fraction = optional_num(*storm, "fraction", 0.0, "storm");
    faults.storm.repair_after =
        optional_whole<Cycle>(*storm, "repair_after", 0, "storm");
  }

  if (const sim::JsonValue* churn = doc.find("churn")) {
    sim::check_known_keys(*churn, {"rate", "from", "until", "mean_repair"},
                          "faults schedule churn");
    faults.churn.rate = optional_num(*churn, "rate", 0.0, "churn");
    faults.churn.from = optional_whole<Cycle>(*churn, "from", 0, "churn");
    faults.churn.until = optional_whole<Cycle>(*churn, "until", 0, "churn");
    faults.churn.mean_repair =
        optional_whole<Cycle>(*churn, "mean_repair", 0, "churn");
  }

  if (const sim::JsonValue* dv = doc.find("dv")) {
    sim::check_known_keys(
        *dv, {"advert_period", "timeout_periods", "hop_cycles"},
        "faults schedule dv");
    faults.dv.advert_period = optional_whole<Cycle>(
        *dv, "advert_period", faults.dv.advert_period, "dv");
    faults.dv.timeout_periods = optional_whole<std::int32_t>(
        *dv, "timeout_periods", faults.dv.timeout_periods, "dv");
    faults.dv.hop_cycles = optional_whole<std::int32_t>(
        *dv, "hop_cycles", faults.dv.hop_cycles, "dv");
  }

  if (!faults.dynamic()) {
    bad("schedule declares no fault source (events, storm or churn)");
  }
  return faults;
}

sim::JsonValue faults_to_json(const sim::FaultConfig& faults) {
  sim::JsonValue events = sim::JsonValue::array();
  for (const sim::FaultEvent& e : faults.events) {
    sim::JsonValue ev = sim::JsonValue::object();
    ev.set("at", e.at).set("kind", to_string(e.kind)).set("node", e.node);
    if (e.kind == sim::FaultEventKind::kLinkDown ||
        e.kind == sim::FaultEventKind::kLinkUp) {
      ev.set("port", e.port);
    }
    events.push_back(std::move(ev));
  }
  return sim::JsonValue::object()
      .set("schema", kFaultsSchema)
      .set("events", std::move(events))
      .set("storm", sim::JsonValue::object()
                        .set("at", faults.storm.at)
                        .set("fraction", faults.storm.fraction)
                        .set("repair_after", faults.storm.repair_after))
      .set("churn", sim::JsonValue::object()
                        .set("rate", faults.churn.rate)
                        .set("from", faults.churn.from)
                        .set("until", faults.churn.until)
                        .set("mean_repair", faults.churn.mean_repair))
      .set("dv", sim::JsonValue::object()
                     .set("advert_period", faults.dv.advert_period)
                     .set("timeout_periods", faults.dv.timeout_periods)
                     .set("hop_cycles", faults.dv.hop_cycles));
}

sim::FaultConfig load_faults_file(const std::string& path) {
  return faults_from_json(sim::read_json_file(path));
}

std::vector<sim::FaultEvent> canonical_links(
    const topo::KAryNCube& topology) {
  std::vector<sim::FaultEvent> links;
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    for (PortId p = 0; p < topology.num_ports(); p += 2) {
      if (topology.neighbor(n, p) == kInvalidNode) continue;  // mesh edge
      sim::FaultEvent link;
      link.node = n;
      link.port = p;
      links.push_back(link);
    }
  }
  return links;
}

namespace {

/// Normalize a link named from either endpoint to its canonical
/// (positive-port) direction.
void canonicalize(const topo::KAryNCube& topology, NodeId& node,
                  PortId& port) {
  if (!topo::KAryNCube::is_positive(port)) {
    node = topology.neighbor(node, port);
    port = topo::KAryNCube::opposite(port);
  }
}

void push_link(std::vector<sim::FaultEvent>& out, Cycle at,
               sim::FaultEventKind kind, NodeId node, PortId port) {
  sim::FaultEvent e;
  e.at = at;
  e.kind = kind;
  e.node = node;
  e.port = port;
  out.push_back(e);
}

}  // namespace

std::size_t storm_links(const sim::FaultStorm& storm, std::size_t links) {
  if (!(storm.fraction > 0.0) || links == 0) return 0;
  const auto count = static_cast<std::size_t>(
      storm.fraction * static_cast<double>(links) + 0.5);
  return std::clamp<std::size_t>(count, 1, links);
}

std::vector<sim::FaultEvent> expand_schedule(const sim::FaultConfig& faults,
                                             const topo::KAryNCube& topology,
                                             sim::Rng rng) {
  std::vector<sim::FaultEvent> links = canonical_links(topology);
  std::vector<sim::FaultEvent> timeline;

  for (const sim::FaultEvent& e : faults.events) {
    switch (e.kind) {
      case sim::FaultEventKind::kLinkDown:
      case sim::FaultEventKind::kLinkUp: {
        NodeId node = e.node;
        PortId port = e.port;
        canonicalize(topology, node, port);
        push_link(timeline, e.at, e.kind, node, port);
        break;
      }
      case sim::FaultEventKind::kNodeDown:
      case sim::FaultEventKind::kNodeUp: {
        const sim::FaultEventKind kind =
            e.kind == sim::FaultEventKind::kNodeDown
                ? sim::FaultEventKind::kLinkDown
                : sim::FaultEventKind::kLinkUp;
        for (PortId p = 0; p < topology.num_ports(); ++p) {
          if (topology.neighbor(e.node, p) == kInvalidNode) continue;
          NodeId node = e.node;
          PortId port = p;
          canonicalize(topology, node, port);
          push_link(timeline, e.at, kind, node, port);
        }
        break;
      }
    }
  }

  if (faults.storm.fraction > 0.0 && !links.empty()) {
    // Fisher-Yates over the canonical links, first `count` entries fail.
    std::vector<sim::FaultEvent> shuffled = links;
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.next_below(i + 1));
      std::swap(shuffled[i], shuffled[j]);
    }
    const std::size_t count = storm_links(faults.storm, shuffled.size());
    for (std::size_t i = 0; i < count; ++i) {
      push_link(timeline, faults.storm.at, sim::FaultEventKind::kLinkDown,
                shuffled[i].node, shuffled[i].port);
      if (faults.storm.repair_after > 0) {
        push_link(timeline, faults.storm.at + faults.storm.repair_after,
                  sim::FaultEventKind::kLinkUp, shuffled[i].node,
                  shuffled[i].port);
      }
    }
  }

  if (faults.churn.rate > 0.0 && !links.empty()) {
    for (Cycle t = faults.churn.from; t < faults.churn.until; ++t) {
      if (!rng.chance(faults.churn.rate)) continue;
      const sim::FaultEvent& link =
          links[static_cast<std::size_t>(rng.next_below(links.size()))];
      push_link(timeline, t, sim::FaultEventKind::kLinkDown, link.node,
                link.port);
      if (faults.churn.mean_repair > 0) {
        // Geometric repair delay with the configured mean, capped so one
        // unlucky draw cannot stretch the run unboundedly.
        const Cycle delay =
            1 + rng.geometric(
                    1.0 / static_cast<double>(faults.churn.mean_repair),
                    10 * faults.churn.mean_repair);
        push_link(timeline, t + delay, sim::FaultEventKind::kLinkUp,
                  link.node, link.port);
      }
    }
  }

  std::sort(timeline.begin(), timeline.end(),
            [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              if (a.port != b.port) return a.port < b.port;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return timeline;
}

}  // namespace wavesim::fault
