#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/network.hpp"
#include "engine/partition.hpp"
#include "engine/pool.hpp"
#include "wormhole/fabric.hpp"

namespace wavesim::engine {

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kSeq:
      return "seq";
    case EngineKind::kPar:
      return "par";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(const std::string& text) {
  if (text == "seq") return EngineKind::kSeq;
  if (text == "par") return EngineKind::kPar;
  return std::nullopt;
}

EngineConfig engine_config(const std::string& kind,
                           std::optional<std::int32_t> shards) {
  const auto parsed = parse_engine_kind(kind);
  if (!parsed) {
    throw std::invalid_argument("--engine must be seq or par (got '" + kind +
                                "')");
  }
  if (shards && *shards < 1) {
    throw std::invalid_argument("--shards must be >= 1 (got " +
                                std::to_string(*shards) + ")");
  }
  if (shards && *parsed != EngineKind::kPar) {
    throw std::invalid_argument(
        "--shards only applies to --engine par (the sequential engine is "
        "unsharded)");
  }
  return EngineConfig{*parsed, shards.value_or(0)};
}

std::int32_t EngineConfig::resolve_shards(std::int32_t num_nodes) const {
  const std::int32_t requested =
      shards > 0 ? shards
                 : static_cast<std::int32_t>(resolve_engine_threads(0));
  return clamp_shards(requested, num_nodes);
}

sim::JsonValue EngineConfig::to_json(std::int32_t num_nodes) const {
  sim::JsonValue v = sim::JsonValue::object();
  v.set("kind", to_string(kind));
  if (parallel()) {
    v.set("shards", num_nodes > 0 ? resolve_shards(num_nodes) : shards);
  }
  return v;
}

namespace {

class SequentialEngine final : public core::StepEngine {
 public:
  void step(core::Network& net) override { net.step(); }
  const char* name() const noexcept override { return "seq"; }
};

class ParallelEngine final : public core::StepEngine {
 public:
  ParallelEngine(std::int32_t num_nodes, std::int32_t shards, unsigned threads)
      : ranges_(partition_nodes(num_nodes, shards)),
        contexts_(ranges_.size()),
        pool_(resolve_participants(ranges_.size(), threads)) {}

  /// One cycle: step_begin(), then only the shards with work (a shard
  /// whose activity bytes are all zero steps to an empty context, so
  /// skipping it — and its context at commit — changes nothing).
  void step(core::Network& net) override {
    net.step_begin();
    const wh::Fabric& fab = net.fabric();
    active_.clear();
    for (std::size_t s = 0; s < ranges_.size(); ++s) {
      if (fab.any_work(ranges_[s].begin, ranges_[s].end)) active_.push_back(s);
    }
    active_ptrs_.clear();
    if (active_.size() <= 1) {
      if (!active_.empty()) {
        const std::size_t s = active_.front();
        net.step_shard(ranges_[s].begin, ranges_[s].end, contexts_[s]);
        active_ptrs_.push_back(&contexts_[s]);
      }
      net.step_commit(active_ptrs_);
      return;
    }
    const unsigned team = pool_.participants();
    pool_.run([this, &net, team](unsigned slot) {
      // Static slot -> shard assignment: participant p steps active
      // shards p, p + team, ... Shard results live in per-shard
      // contexts, so the assignment (and the team size) cannot affect
      // the outcome.
      for (std::size_t i = slot; i < active_.size(); i += team) {
        const std::size_t s = active_[i];
        net.step_shard(ranges_[s].begin, ranges_[s].end, contexts_[s]);
      }
    });
    for (std::size_t s : active_) active_ptrs_.push_back(&contexts_[s]);
    net.step_commit(active_ptrs_);  // ascending shard order
  }

  const char* name() const noexcept override { return "par"; }

 private:
  static unsigned resolve_participants(std::size_t shards, unsigned threads) {
    const unsigned hw = resolve_engine_threads(threads);
    return std::max(1u, std::min(hw, static_cast<unsigned>(shards)));
  }

  std::vector<ShardRange> ranges_;
  std::vector<core::ShardContext> contexts_;  ///< one per shard
  std::vector<core::ShardContext*> active_ptrs_;
  std::vector<std::size_t> active_;
  CyclePool pool_;
};

}  // namespace

std::unique_ptr<core::StepEngine> make_engine(const EngineConfig& config,
                                              std::int32_t num_nodes) {
  if (!config.parallel()) return std::make_unique<SequentialEngine>();
  return std::make_unique<ParallelEngine>(
      num_nodes, config.resolve_shards(num_nodes), config.threads);
}

}  // namespace wavesim::engine
