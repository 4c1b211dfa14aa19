#!/usr/bin/env python3
"""Self-test for the shard pass of tools/wavelint.py.

Builds a miniature repository fixture in a temp directory (the same file
layout the shard pass expects) and checks the pass's contracts:

1. A clean fixture passes (exit 0).
2. A field relocated from a linted class into an arena/SoA container
   without carrying its [shard:] tag along is flagged (exit 1, naming
   the member) — the regression this self-test exists for.
3. A shard-phase write to a [shard: seq] member is flagged (exit 1).
4. A serialization accessor (snap::Archive load path) that assigns
   [shard: seq] members is fine while it stays in the sequential
   phase — reachability, not a blanket suppression, is what keeps the
   lint quiet — and is flagged the moment shard-phase code calls it.
5. A view over the fabric's node-major arrays (wh::Router) is held to
   the same rule: an untagged member of it is flagged.
6. A [shard: outbox] member (per-cycle outboxes, filed when cycle t
   commits and read by receivers in t + 1 .. t + latency) read by
   shard-phase code at the cycle being staged (`transit_[now & 3]`) is
   flagged, and so is a shard-phase write to it; reads at `now - k`
   pass.

Finally the lint must pass against the real repository this file sits in.

Run directly (``python3 tools/test_shardlint.py``) or via ctest
(``shardlint_self_test``). Exit 0 = all checks pass.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
WAVELINT = TOOLS / "wavelint.py"

NETWORK_HPP = """
namespace wavesim::core {
class Archive;
class Network {
 public:
  void step_shard(int begin, int end);
  void snap(Archive& ar);
 private:
  int counter_ = 0;       // [shard: seq]
  int per_node_ = 0;      // [shard: owned]
};
}  // namespace wavesim::core
"""

NETWORK_CPP_CLEAN = """
#include "core/network.hpp"
namespace wavesim::core {
void Network::step_shard(int begin, int end) {
  per_node_ += begin + end;
}
}  // namespace wavesim::core
"""

NETWORK_CPP_SEQ_WRITE = """
#include "core/network.hpp"
namespace wavesim::core {
void Network::step_shard(int begin, int end) {
  counter_ += begin + end;
}
}  // namespace wavesim::core
"""

# Serialization accessor: Network::snap() assigns the [shard: seq]
# member wholesale while restoring from an Archive. Legal — snapshots
# are taken and restored between steps, outside the shard phase — and
# the lint must reach that verdict from the call graph alone, without a
# suppression on the member or the method.
NETWORK_CPP_SNAP_ACCESSOR = """
#include "core/network.hpp"
namespace wavesim::core {
void Network::step_shard(int begin, int end) {
  per_node_ += begin + end;
}
void Network::snap(Archive& ar) {
  counter_ = 0;
  per_node_ = 0;
}
}  // namespace wavesim::core
"""

# The same accessor called from shard-phase code: now its seq write is
# inside the closure and must be flagged.
NETWORK_CPP_SNAP_IN_SHARD = """
#include "core/network.hpp"
namespace wavesim::core {
void Network::step_shard(int begin, int end) {
  per_node_ += begin + end;
  snap(scratch_archive());
}
void Network::snap(Archive& ar) {
  counter_ = 0;
  per_node_ = 0;
}
}  // namespace wavesim::core
"""

FABRIC_HPP = """
namespace wavesim::wh {
class Fabric {
 public:
  void step_nodes(int now);
 private:
  int arrivals_ = 0;  // [shard: owned]
  /// Per-cycle outboxes, slot `cycle & 3`. [shard: outbox]
  std::vector<Transit> transit_;
};
}  // namespace wavesim::wh
"""

# Receivers read the outboxes of earlier cycles: credits staged at
# now - 1, flits at now - latency.
FABRIC_CPP = """
#include "wormhole/fabric.hpp"
namespace wavesim::wh {
void Fabric::step_nodes(int now) {
  arrivals_ += transit_[(now - 1) & 3].used;
  arrivals_ += transit_[(now - latency_) & 3].used;
}
}  // namespace wavesim::wh
"""

# The outbox of the cycle being staged, read in that same cycle: the
# entries of shards still running would race with the read.
FABRIC_CPP_OUTBOX_SAME_CYCLE = """
#include "wormhole/fabric.hpp"
namespace wavesim::wh {
void Fabric::step_nodes(int now) {
  arrivals_ += transit_[(now - 1) & 3].used;
  arrivals_ += transit_[now & 3].used;
}
}  // namespace wavesim::wh
"""

# A receiver retiring an outbox it drained: outboxes are filed and
# retired by the sequential phases only.
FABRIC_CPP_OUTBOX_WRITE = """
#include "wormhole/fabric.hpp"
namespace wavesim::wh {
void Fabric::step_nodes(int now) {
  arrivals_ += transit_[(now - 1) & 3].used;
  transit_[(now - 1) & 3].used = 0;
}
}  // namespace wavesim::wh
"""

NODE_IFACE_HPP = """
namespace wavesim::core {
class NodeInterface {
 public:
  void pump_streams(int at);
 private:
  int streams_ = 0;  // [shard: owned]
};
}  // namespace wavesim::core
"""

NODE_IFACE_CPP = """
#include "core/node_interface.hpp"
namespace wavesim::core {
void NodeInterface::pump_streams(int at) { streams_ += at; }
}  // namespace wavesim::core
"""

RING_TAGGED = """
namespace wavesim::sim {
template <typename T>
class Ring {
 public:
  bool empty() const noexcept { return count_ == 0; }
 private:
  int head_ = 0;   // [shard: owned]
  int count_ = 0;  // [shard: owned]
};
}  // namespace wavesim::sim
"""

# The relocated-field regression: `count_` moved into the container
# without its tag.
RING_UNTAGGED = """
namespace wavesim::sim {
template <typename T>
class Ring {
 public:
  bool empty() const noexcept { return count_ == 0; }
 private:
  int head_ = 0;   // [shard: owned]
  int count_ = 0;
};
}  // namespace wavesim::sim
"""

ROUTER_TAGGED = """
namespace wavesim::wh {
class Router {
 public:
  bool quiet() const noexcept { return occupancy_ == 0; }
 private:
  /// This node's slice of the fabric's input VCs. [shard: owned]
  InputVc* inputs_;
  int occupancy_ = 0;  // [shard: owned]
};
}  // namespace wavesim::wh
"""

# A slice pointer added to the router view without a tag.
ROUTER_UNTAGGED = """
namespace wavesim::wh {
class Router {
 public:
  bool quiet() const noexcept { return occupancy_ == 0; }
 private:
  /// This node's slice of the fabric's input VCs. [shard: owned]
  InputVc* inputs_;
  OutputVc* outputs_;
  int occupancy_ = 0;  // [shard: owned]
};
}  // namespace wavesim::wh
"""

REGISTERS_HPP = """
namespace wavesim::pcs {
class RegisterFile {
 private:
  std::vector<OutChannel> channels_;  // [shard: seq]
};
}  // namespace wavesim::pcs
"""

LINK_GATE_HPP = """
namespace wavesim::wh {
class LinkGate {
 private:
  int used_ = 0;  // [shard: owned]
};
}  // namespace wavesim::wh
"""


def write_fixture(root: Path, *, ring: str = RING_TAGGED,
                  network_cpp: str = NETWORK_CPP_CLEAN,
                  fabric_cpp: str = FABRIC_CPP,
                  router: str = ROUTER_TAGGED) -> None:
    files = {
        "src/core/network.hpp": NETWORK_HPP,
        "src/core/network.cpp": network_cpp,
        "src/wormhole/fabric.hpp": FABRIC_HPP,
        "src/wormhole/fabric.cpp": fabric_cpp,
        "src/core/node_interface.hpp": NODE_IFACE_HPP,
        "src/core/node_interface.cpp": NODE_IFACE_CPP,
        "src/sim/ring.hpp": ring,
        "src/wormhole/link_gate.hpp": LINK_GATE_HPP,
        "src/wormhole/router.hpp": router,
        "src/pcs/registers.hpp": REGISTERS_HPP,
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_lint(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WAVELINT), "--pass", "shard", "--root",
         str(root)],
        capture_output=True, text=True)


def check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'ok' if ok else 'FAIL'}: {name}")
    if not ok:
        print(detail)
    return ok


def main() -> int:
    results = []
    with tempfile.TemporaryDirectory(prefix="shardlint-fixture-") as tmp:
        root = Path(tmp)

        write_fixture(root)
        r = run_lint(root)
        results.append(check("clean fixture passes", r.returncode == 0,
                             r.stdout + r.stderr))

        write_fixture(root, ring=RING_UNTAGGED)
        r = run_lint(root)
        results.append(check(
            "relocated untagged container field is flagged",
            r.returncode == 1 and "Ring::count_" in r.stdout,
            r.stdout + r.stderr))
        results.append(check(
            "tagged sibling field is not flagged",
            "Ring::head_" not in r.stdout, r.stdout))

        write_fixture(root, router=ROUTER_UNTAGGED)
        r = run_lint(root)
        results.append(check(
            "untagged member of the router view is flagged",
            r.returncode == 1 and "Router::outputs_" in r.stdout
            and "Router::inputs_" not in r.stdout,
            r.stdout + r.stderr))

        write_fixture(root, network_cpp=NETWORK_CPP_SEQ_WRITE)
        r = run_lint(root)
        results.append(check(
            "shard-phase write to a seq member is flagged",
            r.returncode == 1 and "counter_" in r.stdout,
            r.stdout + r.stderr))

        write_fixture(root, network_cpp=NETWORK_CPP_SNAP_ACCESSOR)
        r = run_lint(root)
        results.append(check(
            "sequential-phase serialization accessor passes untouched",
            r.returncode == 0, r.stdout + r.stderr))

        write_fixture(root, network_cpp=NETWORK_CPP_SNAP_IN_SHARD)
        r = run_lint(root)
        results.append(check(
            "shard-reachable serialization accessor is flagged",
            r.returncode == 1 and "Network::snap" in r.stdout
            and "counter_" in r.stdout,
            r.stdout + r.stderr))

        write_fixture(root, fabric_cpp=FABRIC_CPP_OUTBOX_SAME_CYCLE)
        r = run_lint(root)
        results.append(check(
            "outbox read in the cycle it is written is flagged",
            r.returncode == 1 and "transit_[now & 3]" in r.stdout
            and "in the cycle it is written" in r.stdout
            and "(now - 1)" not in r.stdout,
            r.stdout + r.stderr))

        write_fixture(root, fabric_cpp=FABRIC_CPP_OUTBOX_WRITE)
        r = run_lint(root)
        results.append(check(
            "shard-phase write to an outbox is flagged",
            r.returncode == 1 and "writes [shard: outbox] member transit_"
            in r.stdout, r.stdout + r.stderr))

    r = run_lint(REPO)
    results.append(check("real repository is clean", r.returncode == 0,
                         r.stdout + r.stderr))

    if all(results):
        print(f"test_shardlint: {len(results)} checks passed")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
