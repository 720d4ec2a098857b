// The paper-literal Algorithm 1: the pooled-state Pareto sweep that
// auction/single_task/dp_knapsack's columns kernel replaced, kept as that
// kernel's differential oracle. Every surviving state lives in one pool with
// an (item, parent) link, and the frontier is a list of pool indices, so the
// sweep reads each state through an index indirection. The columns kernel
// performs the identical comparisons on the identical doubles in the same
// order, so frontiers, chosen subsets and tie-breaks are bit-for-bit equal
// (tests/dp_kernel_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "auction/single_task/dp_knapsack.hpp"
#include "common/deadline.hpp"

namespace mcs::oracle {

using auction::single_task::FrontierEntry;
using auction::single_task::KnapsackItem;
using auction::single_task::KnapsackSolution;

/// The final Pareto frontier of the sweep over `items` with contributions
/// capped at `requirement`. Polls `deadline` once per item.
std::vector<FrontierEntry> min_knapsack_frontier(std::span<const KnapsackItem> items,
                                                 double requirement,
                                                 const common::Deadline& deadline = {});

/// Minimum-cost subset with total contribution >= requirement, or nullopt
/// when even the full item set falls short. Polls `deadline` once per item.
std::optional<KnapsackSolution> solve_min_knapsack(std::span<const KnapsackItem> items,
                                                   double requirement,
                                                   const common::Deadline& deadline = {});

/// Maximum-contribution subset whose total scaled cost stays within `budget`.
KnapsackSolution solve_max_knapsack(std::span<const KnapsackItem> items, std::int64_t budget);

}  // namespace mcs::oracle
