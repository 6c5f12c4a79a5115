#include "util/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hetflow::util {
namespace {

/// Diamond: 0 -> {1, 2} -> 3.
Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Digraph, BasicDegrees) {
  const Digraph g = diamond();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.sources(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<std::size_t>{3}));
}

TEST(Digraph, RejectsSelfLoopAndBadIds) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), InternalError);
  EXPECT_THROW(g.add_edge(0, 5), InternalError);
  EXPECT_THROW(g.successors(9), InternalError);
}

TEST(Digraph, AddNodeGrows) {
  Digraph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, ResizeCannotShrink) {
  Digraph g(3);
  EXPECT_THROW(g.resize(2), InternalError);
}

TEST(Digraph, TopologicalOrderValid) {
  const Digraph g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = i;
  }
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t s : g.successors(n)) {
      EXPECT_LT(position[n], position[s]);
    }
  }
}

TEST(Digraph, TopologicalOrderDeterministicSmallestFirst) {
  Digraph g(3);  // no edges: expect 0,1,2
  EXPECT_EQ(g.topological_order(), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Digraph, CycleDetection) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.has_cycle());
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  EXPECT_THROW(g.topological_order(), InvalidArgument);
}

TEST(Digraph, Levels) {
  const Digraph g = diamond();
  const auto levels = g.levels();
  EXPECT_EQ(levels, (std::vector<std::size_t>{0, 1, 1, 2}));
}

TEST(Digraph, CriticalPathNodeWeightsOnly) {
  const Digraph g = diamond();
  std::vector<std::size_t> path;
  const double length = g.critical_path({1.0, 5.0, 2.0, 1.0}, &path);
  EXPECT_DOUBLE_EQ(length, 7.0);  // 0 -> 1 -> 3
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Digraph, CriticalPathWithEdgeWeights) {
  const Digraph g = diamond();
  // Edge 0->2 is expensive, pulling the critical path through node 2.
  const auto edge_w = [](std::size_t a, std::size_t b) {
    return (a == 0 && b == 2) ? 10.0 : 0.0;
  };
  std::vector<std::size_t> path;
  const double length =
      g.critical_path({1.0, 5.0, 2.0, 1.0}, edge_w, &path);
  EXPECT_DOUBLE_EQ(length, 14.0);  // 1 + 10 + 2 + 1
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(Digraph, ReachableFrom) {
  const Digraph g = diamond();
  const auto reach = g.reachable_from(1);
  EXPECT_FALSE(reach[0]);
  EXPECT_FALSE(reach[1]);
  EXPECT_FALSE(reach[2]);
  EXPECT_TRUE(reach[3]);
}

TEST(Digraph, TransitiveReductionRemovesShortcut) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);  // implied by 0->1->2
  EXPECT_EQ(g.transitive_reduction(), 1u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.successors(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(g.in_degree(2), 1u);
}

TEST(Digraph, TransitiveReductionCollapsesDuplicates) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.transitive_reduction(), 1u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, TransitiveReductionKeepsDiamond) {
  Digraph g = diamond();
  EXPECT_EQ(g.transitive_reduction(), 0u);
  EXPECT_EQ(g.edge_count(), 4u);
}

class RandomDagSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Random DAG with edges only from lower to higher ids (guaranteed
  /// acyclic).
  Digraph make_random_dag(Rng& rng, std::size_t n, double p) {
    Digraph g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(p)) {
          g.add_edge(i, j);
        }
      }
    }
    return g;
  }
};

TEST_P(RandomDagSweep, TopoOrderIsAlwaysValid) {
  Rng rng(GetParam());
  const Digraph g = make_random_dag(rng, 60, 0.08);
  EXPECT_FALSE(g.has_cycle());
  const auto order = g.topological_order();
  std::vector<std::size_t> position(g.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = i;
  }
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    for (std::size_t s : g.successors(n)) {
      EXPECT_LT(position[n], position[s]);
    }
  }
}

TEST_P(RandomDagSweep, TransitiveReductionPreservesReachability) {
  Rng rng(GetParam());
  Digraph g = make_random_dag(rng, 40, 0.12);
  std::vector<std::vector<bool>> before;
  before.reserve(g.node_count());
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    before.push_back(g.reachable_from(n));
  }
  g.transitive_reduction();
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    EXPECT_EQ(g.reachable_from(n), before[n]) << "node " << n;
  }
}

TEST_P(RandomDagSweep, CriticalPathDominatesEveryNodeWeight) {
  Rng rng(GetParam());
  const Digraph g = make_random_dag(rng, 50, 0.1);
  std::vector<double> weights(g.node_count());
  for (double& w : weights) {
    w = rng.uniform(0.1, 10.0);
  }
  const double cp = g.critical_path(weights);
  for (double w : weights) {
    EXPECT_GE(cp, w);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSweep,
                         ::testing::Values(1ull, 7ull, 99ull, 31337ull));

}  // namespace
}  // namespace hetflow::util
