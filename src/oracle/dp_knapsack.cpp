#include "oracle/dp_knapsack.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::oracle {

namespace {

/// A DP state; subsets are reconstructed by following `parent` links.
struct State {
  std::int64_t cost = 0;
  double contribution = 0.0;
  std::int32_t item = -1;    ///< item added to create this state; -1 for the root
  std::int32_t parent = -1;  ///< pool index of the predecessor state
};

/// Runs the Algorithm 1 sweep: builds the Pareto frontier (cost ascending,
/// contribution ascending) over all items. Contributions are capped at
/// `contribution_cap` when finite; states with cost > cost_cap are dropped
/// when cost_cap >= 0. Returns the state pool and the final frontier.
std::pair<std::vector<State>, std::vector<std::int32_t>> sweep(
    std::span<const KnapsackItem> items, double contribution_cap, std::int64_t cost_cap,
    const common::Deadline& deadline = {}) {
  std::vector<State> pool;
  pool.push_back(State{});  // the empty set
  std::vector<std::int32_t> frontier{0};
  std::vector<std::int32_t> merged;
  std::vector<State> extensions;

  for (std::size_t j = 0; j < items.size(); ++j) {
    deadline.check("knapsack DP sweep");
    const auto& item = items[j];
    // Extend every frontier state with item j. The extension list inherits
    // the frontier's cost order because the added cost is constant.
    extensions.clear();
    extensions.reserve(frontier.size());
    for (std::int32_t state_index : frontier) {
      const State& state = pool[static_cast<std::size_t>(state_index)];
      const std::int64_t cost = state.cost + item.scaled_cost;
      if (cost_cap >= 0 && cost > cost_cap) {
        continue;  // over budget; extensions of it would be too
      }
      extensions.push_back(State{cost,
                                 std::min(contribution_cap, state.contribution + item.contribution),
                                 static_cast<std::int32_t>(j), state_index});
    }

    // Merge (old frontier, extensions) by cost, old-first on ties so that the
    // smaller subset is preferred; then drop dominated states.
    merged.clear();
    merged.reserve(frontier.size() + extensions.size());
    std::size_t a = 0;
    std::size_t b = 0;
    double best_contribution = -1.0;
    while (a < frontier.size() || b < extensions.size()) {
      const bool take_old =
          b >= extensions.size() ||
          (a < frontier.size() &&
           pool[static_cast<std::size_t>(frontier[a])].cost <= extensions[b].cost);
      if (take_old) {
        const State& state = pool[static_cast<std::size_t>(frontier[a])];
        if (state.contribution > best_contribution) {
          merged.push_back(frontier[a]);
          best_contribution = state.contribution;
        }
        ++a;
      } else {
        // Materialize the extension in the pool only if it survives pruning.
        if (extensions[b].contribution > best_contribution) {
          pool.push_back(extensions[b]);
          merged.push_back(static_cast<std::int32_t>(pool.size() - 1));
          best_contribution = extensions[b].contribution;
        }
        ++b;
      }
    }
    frontier.swap(merged);
  }
  return {std::move(pool), std::move(frontier)};
}

KnapsackSolution reconstruct(const std::vector<State>& pool, std::int32_t state_index) {
  KnapsackSolution solution;
  const State& state = pool[static_cast<std::size_t>(state_index)];
  solution.total_scaled_cost = state.cost;
  solution.total_contribution = state.contribution;
  for (std::int32_t cursor = state_index; cursor >= 0;) {
    const State& node = pool[static_cast<std::size_t>(cursor)];
    if (node.item >= 0) {
      solution.items.push_back(static_cast<std::size_t>(node.item));
    }
    cursor = node.parent;
  }
  std::reverse(solution.items.begin(), solution.items.end());
  return solution;
}

void check_items(std::span<const KnapsackItem> items) {
  for (const auto& item : items) {
    MCS_EXPECTS(item.scaled_cost >= 0, "scaled costs must be non-negative");
    MCS_EXPECTS(item.contribution >= 0.0, "contributions must be non-negative");
  }
}

}  // namespace

std::vector<FrontierEntry> min_knapsack_frontier(std::span<const KnapsackItem> items,
                                                 double requirement,
                                                 const common::Deadline& deadline) {
  MCS_EXPECTS(requirement >= 0.0, "requirement must be non-negative");
  check_items(items);
  const auto [pool, frontier] = sweep(items, requirement, /*cost_cap=*/-1, deadline);
  std::vector<FrontierEntry> entries;
  entries.reserve(frontier.size());
  for (std::int32_t state_index : frontier) {
    const State& state = pool[static_cast<std::size_t>(state_index)];
    entries.push_back({state.cost, state.contribution});
  }
  return entries;
}

std::optional<KnapsackSolution> solve_min_knapsack(std::span<const KnapsackItem> items,
                                                   double requirement,
                                                   const common::Deadline& deadline) {
  MCS_EXPECTS(requirement >= 0.0, "requirement must be non-negative");
  check_items(items);
  // Minimum-cost feasible state: the frontier is cost-ascending, so the first
  // state meeting the requirement is optimal.
  const auto [pool, frontier] = sweep(items, requirement, /*cost_cap=*/-1, deadline);
  for (std::int32_t state_index : frontier) {
    const State& state = pool[static_cast<std::size_t>(state_index)];
    if (common::approx_ge(state.contribution, requirement)) {
      return reconstruct(pool, state_index);
    }
  }
  return std::nullopt;
}

KnapsackSolution solve_max_knapsack(std::span<const KnapsackItem> items, std::int64_t budget) {
  MCS_EXPECTS(budget >= 0, "budget must be non-negative");
  check_items(items);
  // The frontier is contribution-ascending, so its last state (all states
  // already respect the budget) carries the maximum contribution.
  const auto [pool, frontier] = sweep(items, std::numeric_limits<double>::infinity(), budget);
  MCS_ENSURES(!frontier.empty(), "the empty set always fits the budget");
  return reconstruct(pool, frontier.back());
}

}  // namespace mcs::oracle
