#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace wavesim::topo {
namespace {

using K = KAryNCube;

TEST(Coord, LinearizeRoundTrip) {
  const std::vector<std::int32_t> radix{4, 3, 2};
  for (NodeId id = 0; id < 24; ++id) {
    EXPECT_EQ(linearize(delinearize(id, radix), radix), id);
  }
}

TEST(Coord, LinearizeDimensionZeroFastest) {
  const std::vector<std::int32_t> radix{4, 3};
  EXPECT_EQ(linearize({1, 0}, radix), 1);
  EXPECT_EQ(linearize({0, 1}, radix), 4);
  EXPECT_EQ(linearize({3, 2}, radix), 11);
}

TEST(Coord, LinearizeRejectsBadInput) {
  const std::vector<std::int32_t> radix{4, 3};
  EXPECT_THROW(linearize({1}, radix), std::invalid_argument);
  EXPECT_THROW(linearize({4, 0}, radix), std::out_of_range);
  EXPECT_THROW(linearize({-1, 0}, radix), std::out_of_range);
  EXPECT_THROW(delinearize(12, radix), std::out_of_range);
}

TEST(Coord, ToString) {
  EXPECT_EQ(to_string({1, 2}), "(1, 2)");
  EXPECT_EQ(to_string({7}), "(7)");
}

TEST(Topology, ConstructionValidation) {
  EXPECT_THROW(K({}, false), std::invalid_argument);
  EXPECT_THROW(K({1, 4}, false), std::invalid_argument);
  EXPECT_NO_THROW(K({2}, true));
}

TEST(Topology, BasicCounts) {
  K mesh({4, 4}, false);
  EXPECT_EQ(mesh.num_nodes(), 16);
  EXPECT_EQ(mesh.num_dims(), 2);
  EXPECT_EQ(mesh.num_ports(), 4);
  EXPECT_EQ(mesh.num_channels(), 64);
  K cube({2, 2, 2, 2}, true);  // 4-d hypercube
  EXPECT_EQ(cube.num_nodes(), 16);
  EXPECT_EQ(cube.num_ports(), 8);
}

TEST(Topology, PortMath) {
  EXPECT_EQ(K::port_of(0, true), 0);
  EXPECT_EQ(K::port_of(0, false), 1);
  EXPECT_EQ(K::port_of(2, true), 4);
  EXPECT_EQ(K::dim_of(5), 2);
  EXPECT_TRUE(K::is_positive(4));
  EXPECT_FALSE(K::is_positive(5));
  EXPECT_EQ(K::opposite(4), 5);
  EXPECT_EQ(K::opposite(5), 4);
}

TEST(Topology, MeshNeighbors) {
  K mesh({4, 4}, false);
  const NodeId origin = mesh.node_of({0, 0});
  EXPECT_EQ(mesh.neighbor(origin, K::port_of(0, true)), mesh.node_of({1, 0}));
  EXPECT_EQ(mesh.neighbor(origin, K::port_of(0, false)), kInvalidNode);
  EXPECT_EQ(mesh.neighbor(origin, K::port_of(1, false)), kInvalidNode);
  const NodeId corner = mesh.node_of({3, 3});
  EXPECT_EQ(mesh.neighbor(corner, K::port_of(0, true)), kInvalidNode);
  EXPECT_EQ(mesh.neighbor(corner, K::port_of(1, false)), mesh.node_of({3, 2}));
}

TEST(Topology, TorusWraps) {
  K torus({4, 4}, true);
  const NodeId origin = torus.node_of({0, 0});
  EXPECT_EQ(torus.neighbor(origin, K::port_of(0, false)), torus.node_of({3, 0}));
  EXPECT_EQ(torus.neighbor(torus.node_of({3, 1}), K::port_of(0, true)),
            torus.node_of({0, 1}));
}

TEST(Topology, NeighborSymmetry) {
  for (bool torus : {false, true}) {
    K t({4, 3}, torus);
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      for (PortId p = 0; p < t.num_ports(); ++p) {
        const NodeId m = t.neighbor(n, p);
        if (m == kInvalidNode) continue;
        EXPECT_EQ(t.neighbor(m, K::opposite(p)), n)
            << "n=" << n << " p=" << p << " torus=" << torus;
      }
    }
  }
}

struct Shape {
  const char* name;
  std::vector<std::int32_t> radix;
  bool torus;
};

// The stride-built tables against a per-channel linearize/delinearize
// walk, on shapes with degenerate wraps (radix 2: + and - reach the same
// node; radix 3: the wrap is one hop either way) and odd mixed radices.
TEST(Topology, TablesMatchTheCoordinateReference) {
  const std::vector<Shape> shapes = {
      {"ring of 2", {2}, true},          {"ring of 3", {3}, true},
      {"2x2 torus", {2, 2}, true},       {"4x4x4 torus", {4, 4, 4}, true},
      {"3x5x2 mesh", {3, 5, 2}, false},  {"2^4 hypercube", {2, 2, 2, 2}, true},
  };
  for (const Shape& shape : shapes) {
    const K t(shape.radix, shape.torus);
    ASSERT_EQ(t.num_dims(), static_cast<std::int32_t>(shape.radix.size()));
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      const Coord c = delinearize(n, shape.radix);
      const auto row = t.coord_row(n);
      EXPECT_EQ(Coord(row.begin(), row.end()), c) << shape.name << " n=" << n;
      for (PortId p = 0; p < t.num_ports(); ++p) {
        const std::int32_t d = K::dim_of(p);
        const std::int32_t r = shape.radix[d];
        Coord next = c;
        next[d] += K::is_positive(p) ? 1 : -1;
        const bool wraps = next[d] < 0 || next[d] >= r;
        next[d] = (next[d] + r) % r;
        const NodeId want = wraps && !shape.torus
                                ? kInvalidNode
                                : linearize(next, shape.radix);
        EXPECT_EQ(t.neighbor(n, p), want)
            << shape.name << " n=" << n << " p=" << p;
        EXPECT_EQ(t.neighbor_row(n)[p], want);
        EXPECT_EQ(t.crosses_dateline(n, p), wraps && shape.torus)
            << shape.name << " n=" << n << " p=" << p;
        if (want != kInvalidNode) {
          EXPECT_EQ(t.neighbor(want, K::opposite(p)), n)
              << shape.name << " n=" << n << " p=" << p;
        }
      }
    }
  }
  // Radix 2 on a torus: both directions of a dimension reach one node.
  const K pair({2, 2}, true);
  EXPECT_EQ(pair.neighbor(0, K::port_of(1, true)),
            pair.neighbor(0, K::port_of(1, false)));
}

TEST(Topology, MinOffsetsMesh) {
  K mesh({8, 8}, false);
  const auto off = mesh.min_offsets(mesh.node_of({1, 6}), mesh.node_of({5, 2}));
  EXPECT_EQ(off[0], 4);
  EXPECT_EQ(off[1], -4);
}

TEST(Topology, MinOffsetsTorusTakesShortWay) {
  K torus({8, 8}, true);
  const auto off = torus.min_offsets(torus.node_of({0, 0}), torus.node_of({7, 5}));
  EXPECT_EQ(off[0], -1);  // wrap is shorter than +7
  EXPECT_EQ(off[1], -3);
}

TEST(Topology, MinOffsetsTorusTieGoesPositive) {
  K torus({8, 8}, true);
  const auto off = torus.min_offsets(torus.node_of({0, 0}), torus.node_of({4, 0}));
  EXPECT_EQ(off[0], 4);  // |4| == |-4|, positive wins
}

TEST(Topology, DistanceProperties) {
  for (bool torus : {false, true}) {
    K t({5, 4}, torus);
    for (NodeId a = 0; a < t.num_nodes(); ++a) {
      EXPECT_EQ(t.distance(a, a), 0);
      for (NodeId b = 0; b < t.num_nodes(); ++b) {
        EXPECT_EQ(t.distance(a, b), t.distance(b, a));
        if (a != b) {
          EXPECT_GE(t.distance(a, b), 1);
        }
      }
    }
  }
}

TEST(Topology, TorusDiameter) {
  K torus({8, 8}, true);
  std::int32_t diameter = 0;
  for (NodeId a = 0; a < torus.num_nodes(); ++a) {
    for (NodeId b = 0; b < torus.num_nodes(); ++b) {
      diameter = std::max(diameter, torus.distance(a, b));
    }
  }
  EXPECT_EQ(diameter, 8);  // 4 + 4
}

TEST(Topology, MinimalPortsReduceDistance) {
  for (bool torus : {false, true}) {
    K t({4, 4}, torus);
    for (NodeId a = 0; a < t.num_nodes(); ++a) {
      for (NodeId b = 0; b < t.num_nodes(); ++b) {
        if (a == b) {
          EXPECT_TRUE(t.minimal_ports(a, b).empty());
          continue;
        }
        const auto ports = t.minimal_ports(a, b);
        EXPECT_FALSE(ports.empty());
        for (PortId p : ports) {
          const NodeId next = t.neighbor(a, p);
          ASSERT_NE(next, kInvalidNode);
          EXPECT_EQ(t.distance(next, b), t.distance(a, b) - 1);
        }
      }
    }
  }
}

TEST(Topology, WalkingMinimalPortsReachesDestination) {
  K torus({4, 4, 4}, true);
  for (NodeId a = 0; a < torus.num_nodes(); a += 7) {
    for (NodeId b = 0; b < torus.num_nodes(); b += 5) {
      NodeId cur = a;
      int steps = 0;
      while (cur != b) {
        const auto ports = torus.minimal_ports(cur, b);
        ASSERT_FALSE(ports.empty());
        cur = torus.neighbor(cur, ports.front());
        ASSERT_LE(++steps, torus.distance(a, b));
      }
      EXPECT_EQ(steps, torus.distance(a, b));
    }
  }
}

TEST(Topology, DatelineOnlyAtWrapEdges) {
  K torus({4, 4}, true);
  EXPECT_TRUE(torus.crosses_dateline(torus.node_of({3, 1}), K::port_of(0, true)));
  EXPECT_TRUE(torus.crosses_dateline(torus.node_of({0, 1}), K::port_of(0, false)));
  EXPECT_FALSE(torus.crosses_dateline(torus.node_of({1, 1}), K::port_of(0, true)));
  EXPECT_FALSE(torus.crosses_dateline(torus.node_of({3, 1}), K::port_of(0, false)));
  K mesh({4, 4}, false);
  for (NodeId n = 0; n < mesh.num_nodes(); ++n) {
    for (PortId p = 0; p < mesh.num_ports(); ++p) {
      EXPECT_FALSE(mesh.crosses_dateline(n, p));
    }
  }
}

TEST(Topology, ChannelIndexDense) {
  K t({3, 3}, true);
  std::set<std::int32_t> seen;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (PortId p = 0; p < t.num_ports(); ++p) {
      const auto idx = t.channel_index(n, p);
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, t.num_channels());
      seen.insert(idx);
    }
  }
  EXPECT_EQ(static_cast<std::int32_t>(seen.size()), t.num_channels());
}

TEST(Topology, HypercubeDistanceIsHamming) {
  K cube({2, 2, 2}, true);  // 3-cube; radix 2 wrap == same single link
  EXPECT_EQ(cube.distance(cube.node_of({0, 0, 0}), cube.node_of({1, 1, 1})), 3);
  EXPECT_EQ(cube.distance(cube.node_of({0, 1, 0}), cube.node_of({0, 1, 1})), 1);
}

}  // namespace
}  // namespace wavesim::topo
