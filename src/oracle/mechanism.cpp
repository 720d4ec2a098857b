#include "oracle/mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "common/parallel.hpp"
#include "oracle/dp_knapsack.hpp"

namespace mcs::oracle {

using auction::Allocation;
using auction::MechanismConfig;
using auction::MechanismOutcome;
using auction::SingleTaskInstance;
using auction::UserId;
using auction::WinnerReward;
using auction::single_task::RewardOptions;
using auction::single_task::WinnerRule;

namespace {

void require_unlimited_budget(double time_budget_seconds) {
  MCS_EXPECTS(time_budget_seconds <= 0.0,
              "oracles do not degrade: the time budget must be unlimited");
}

}  // namespace

Allocation solve_fptas(const SingleTaskInstance& instance, double epsilon) {
  MCS_EXPECTS(epsilon > 0.0, "approximation parameter must be positive");
  instance.validate();
  Allocation result;
  if (!instance.is_feasible()) {
    return result;
  }
  const double requirement = instance.requirement_contribution();
  const auto n = instance.num_users();
  const auto cost = [&](UserId user) { return instance.bids[static_cast<std::size_t>(user)].cost; };

  std::vector<UserId> order(n);
  std::iota(order.begin(), order.end(), UserId{0});
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    return cost(a) != cost(b) ? cost(a) < cost(b) : a < b;
  });

  double best_scaled_value = std::numeric_limits<double>::infinity();
  std::vector<UserId> best_winners;
  double prefix_contribution = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    // Subproblem k: the k cheapest users, costs scaled by μ_k = ε·c_k/k.
    prefix_contribution += instance.contribution(order[k - 1]);
    if (!common::approx_ge(prefix_contribution, requirement)) {
      continue;
    }
    const double mu = epsilon * cost(order[k - 1]) / static_cast<double>(k);
    std::vector<KnapsackItem> items;
    for (std::size_t j = 0; j < k; ++j) {
      const std::int64_t scaled =
          mu > 0.0 ? static_cast<std::int64_t>(std::floor(cost(order[j]) / mu)) : 0;
      items.push_back({instance.contribution(order[j]), scaled});
    }
    const auto solution = oracle::solve_min_knapsack(items, requirement);
    if (!solution.has_value()) {
      continue;
    }
    const double scaled_value = static_cast<double>(solution->total_scaled_cost) * mu;
    if (scaled_value <= best_scaled_value) {
      best_scaled_value = scaled_value;
      best_winners.clear();
      for (std::size_t item : solution->items) {
        best_winners.push_back(order[item]);
      }
    }
  }
  if (best_winners.empty()) {
    return result;  // knife edge: is_feasible() and every subproblem disagree
  }
  std::sort(best_winners.begin(), best_winners.end());
  result.feasible = true;
  result.total_cost = instance.cost_of(best_winners);
  result.winners = std::move(best_winners);
  return result;
}

double critical_contribution(const SingleTaskInstance& instance, UserId winner,
                             const RewardOptions& options) {
  MCS_EXPECTS(options.alpha > 0.0, "reward scaling factor must be positive");
  MCS_EXPECTS(options.binary_search_iterations > 0, "need at least one bisection step");
  MCS_EXPECTS(options.deadline.is_unlimited(),
              "oracles do not degrade: the deadline must be unlimited");
  const auto wins = [&](double declared_q) {
    if (options.counters != nullptr) {
      ++options.counters->probes;
    }
    const auto probe = instance.with_declared_contribution(winner, declared_q);
    const auto allocation = options.winner_rule == WinnerRule::kMinGreedy
                                ? auction::single_task::solve_min_greedy(probe)
                                : oracle::solve_fptas(probe, options.epsilon);
    return allocation.feasible && allocation.contains(winner);
  };
  // Monotonicity (Lemma 1): wins(q) is false below the critical bid and true
  // at and above it. Invariant: loses at lo, wins at hi.
  const double declared = instance.contribution(winner);
  MCS_EXPECTS(wins(declared), "critical bid is only defined for winners");
  if (wins(0.0)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = declared;
  for (int iter = 0; iter < options.binary_search_iterations; ++iter) {
    if (options.counters != nullptr) {
      ++options.counters->bisection_steps;
    }
    const double mid = 0.5 * (lo + hi);
    if (wins(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

WinnerReward compute_reward(const SingleTaskInstance& instance, UserId winner,
                            const RewardOptions& options) {
  WinnerReward result;
  result.user = winner;
  result.critical_contribution = oracle::critical_contribution(instance, winner, options);
  result.reward.critical_pos = common::pos_from_contribution(result.critical_contribution);
  result.reward.cost = instance.bids[static_cast<std::size_t>(winner)].cost;
  result.reward.alpha = options.alpha;
  return result;
}

MechanismOutcome run_mechanism(const SingleTaskInstance& instance,
                               const MechanismConfig& config) {
  MCS_EXPECTS(config.single_task.epsilon > 0.0, "approximation parameter must be positive");
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");
  require_unlimited_budget(config.time_budget_seconds);
  MechanismOutcome outcome;
  outcome.allocation = oracle::solve_fptas(instance, config.single_task.epsilon);
  if (!outcome.allocation.feasible) {
    return outcome;
  }
  const RewardOptions options{
      .alpha = config.alpha,
      .epsilon = config.single_task.epsilon,
      .binary_search_iterations = config.single_task.binary_search_iterations};
  const auto& winners = outcome.allocation.winners;
  outcome.rewards = common::parallel_map<WinnerReward>(
      winners.size(),
      [&](std::size_t index) { return oracle::compute_reward(instance, winners[index], options); },
      config.reward_worker_budget());
  return outcome;
}

MechanismOutcome run_mechanism(const auction::MultiTaskInstance& instance,
                               const MechanismConfig& config) {
  require_unlimited_budget(config.time_budget_seconds);
  MechanismConfig reference = config;
  reference.multi_task.winner_determination = auction::GreedyAlgorithm::kReferenceScan;
  reference.multi_task.masked_rewards = false;
  return auction::multi_task::run_mechanism(instance, reference);
}

}  // namespace mcs::oracle
