// Differential suite pinning the columns frontier-DP kernel to the scalar
// oracle (oracle/dp_knapsack.hpp, DESIGN.md §8): on randomized and
// adversarial item lists, min_knapsack_frontier / solve_min_knapsack /
// solve_max_knapsack must return bit-for-bit identical frontiers, subsets,
// costs, and contributions as the oracle's — the two implementations perform
// the identical comparisons on the identical doubles, so ANY divergence is a
// kernel bug, not tolerance noise. Carries the `perf-eq` label so the
// sanitizer presets run it too.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "auction/single_task/dp_knapsack.hpp"
#include "auction/single_task/fptas.hpp"
#include "bench_shapes.hpp"
#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "oracle/dp_knapsack.hpp"
#include "oracle/mechanism.hpp"

namespace mcs::auction::single_task {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise comparison of every surface the two kernels expose for one item
/// list: the frontier, the min-knapsack solution, and (when the items fit
/// the budgeted form's preconditions) the max-knapsack solution.
void expect_kernels_agree(const std::vector<KnapsackItem>& items, double requirement,
                          std::int64_t budget, const std::string& label) {
  const auto frontier_columns = min_knapsack_frontier(items, requirement);
  const auto frontier_oracle = oracle::min_knapsack_frontier(items, requirement);
  ASSERT_EQ(frontier_columns.size(), frontier_oracle.size()) << label;
  for (std::size_t k = 0; k < frontier_columns.size(); ++k) {
    EXPECT_EQ(frontier_columns[k].scaled_cost, frontier_oracle[k].scaled_cost)
        << label << " entry " << k;
    EXPECT_EQ(frontier_columns[k].contribution, frontier_oracle[k].contribution)
        << label << " entry " << k;
  }

  const auto min_columns = solve_min_knapsack(items, requirement);
  const auto min_oracle = oracle::solve_min_knapsack(items, requirement);
  ASSERT_EQ(min_columns.has_value(), min_oracle.has_value()) << label;
  if (min_columns.has_value()) {
    EXPECT_EQ(min_columns->items, min_oracle->items) << label;
    EXPECT_EQ(min_columns->total_scaled_cost, min_oracle->total_scaled_cost) << label;
    EXPECT_EQ(min_columns->total_contribution, min_oracle->total_contribution) << label;
  }

  const auto max_columns = solve_max_knapsack(items, budget);
  const auto max_oracle = oracle::solve_max_knapsack(items, budget);
  EXPECT_EQ(max_columns.items, max_oracle.items) << label;
  EXPECT_EQ(max_columns.total_scaled_cost, max_oracle.total_scaled_cost) << label;
  EXPECT_EQ(max_columns.total_contribution, max_oracle.total_contribution) << label;
}

TEST(DpKernelEquivalence, RandomizedItemListsMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 24));
    std::vector<KnapsackItem> items;
    items.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      KnapsackItem item;
      // Zero costs and duplicate costs on purpose: cost ties exercise the
      // old-first merge rule, the exact spot where a kernel could diverge.
      item.scaled_cost = rng.uniform_int(0, 40);
      // ~1 in 12 items declares PoS 1 (an infinite contribution).
      item.contribution = rng.uniform_int(0, 11) == 0 ? kInf : rng.uniform(0.0, 3.0);
      items.push_back(item);
    }
    const double requirement = rng.uniform(0.0, 6.0);
    const std::int64_t budget = rng.uniform_int(0, 80);
    expect_kernels_agree(items, requirement, budget, "seed " + std::to_string(seed));
  }
}

TEST(DpKernelEquivalence, AdversarialAllZeroCosts) {
  // Every subset costs 0: the frontier collapses onto cost 0 and survival is
  // decided purely by the dominance prune's `> best` comparisons.
  std::vector<KnapsackItem> items;
  for (int k = 0; k < 8; ++k) {
    items.push_back({0.25 * k, 0});
  }
  expect_kernels_agree(items, 0.9, 0, "all-zero costs");
}

TEST(DpKernelEquivalence, AdversarialInfiniteContributions) {
  // PoS-1 declarations: +inf contributions saturate the min(cap, ...) fold
  // (inf stays inf under the cap only when the cap itself is inf; a finite
  // requirement caps them to the requirement). Mixing both exercises the
  // capped and uncapped folds.
  std::vector<KnapsackItem> items = {{kInf, 5}, {1.0, 3}, {kInf, 5}, {0.5, 0}};
  expect_kernels_agree(items, 2.0, 10, "infinite contributions");
  expect_kernels_agree(items, 0.0, 13, "infinite contributions, zero requirement");
}

TEST(DpKernelEquivalence, AdversarialCostTiesAndDuplicates) {
  // Many identical (cost, contribution) pairs: every merge step hits the
  // old-first `<=` tie rule and most extensions are dominance-pruned.
  std::vector<KnapsackItem> items(10, KnapsackItem{1.0, 7});
  items.push_back({2.0, 7});
  expect_kernels_agree(items, 5.0, 21, "duplicate items");
}

TEST(DpKernelEquivalence, EmptyItemListMatches) {
  expect_kernels_agree({}, 1.0, 0, "empty items");
  expect_kernels_agree({}, 0.0, 0, "empty items, zero requirement");
}

TEST(DpKernelEquivalence, ExpiredDeadlineThrowsInBothKernels) {
  // An already-expired budget must surface as DeadlineExceeded from the
  // first sweep iteration of EITHER kernel — the degraded ladder upstream
  // depends on the throw, so the columns kernel may not outrun the poll.
  const std::vector<KnapsackItem> items = {{1.0, 1}, {2.0, 2}};
  const auto expired = common::Deadline::after(-1.0);
  EXPECT_THROW(min_knapsack_frontier(items, 2.0, expired), common::DeadlineExceeded);
  EXPECT_THROW(oracle::min_knapsack_frontier(items, 2.0, expired), common::DeadlineExceeded);
  EXPECT_THROW(solve_min_knapsack(items, 2.0, expired), common::DeadlineExceeded);
  EXPECT_THROW(oracle::solve_min_knapsack(items, 2.0, expired), common::DeadlineExceeded);
  // No items -> no sweep iterations -> no poll: both kernels return the root
  // frontier instead of throwing, exactly like the oracle always has.
  EXPECT_EQ(min_knapsack_frontier({}, 1.0, expired).size(), 1u);
  EXPECT_EQ(oracle::min_knapsack_frontier({}, 1.0, expired).size(), 1u);
}

TEST(DpKernelEquivalence, SolveFptasMatchesAcrossKernelsOnBenchShapes) {
  // End-to-end winner determination on the memory_scaling bench shape: the
  // production FPTAS (columns kernel over BidColumns) must allocate exactly
  // like the paper-literal oracle::solve_fptas (scalar kernel over the bids).
  for (const std::size_t n : {12, 30, 60}) {
    for (const std::uint64_t seed : {3ull, 4ull}) {
      const auto instance = bench_shapes::single_task_scaling_instance(n, seed);
      const auto columns = solve_fptas(instance, 0.3);
      const auto literal = oracle::solve_fptas(instance, 0.3);
      EXPECT_EQ(columns.feasible, literal.feasible) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(columns.winners, literal.winners) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(columns.total_cost, literal.total_cost) << "n=" << n << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace mcs::auction::single_task
