// Property fuzz for the single-task mechanism on its default (fast-path)
// configuration: strategyproofness and individual rationality (paper
// Theorem 1) under randomized instances and randomized PoS misreports.
// Every assertion message carries the seed tuple needed to replay a
// failure deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "auction/single_task/fptas.hpp"
#include "auction/single_task/reward.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace mcs::auction::single_task {
namespace {

// Expected utility of `user` (with true PoS `true_pos`) when the mechanism
// runs on `declared_instance`: zero when she loses, the execution-contingent
// reward's expectation when she wins.
double expected_utility(const SingleTaskInstance& declared_instance, UserId user, double true_pos,
                        const RewardOptions& options) {
  const auto allocation = solve_fptas(declared_instance, options.epsilon);
  if (!allocation.feasible || !allocation.contains(user)) {
    return 0.0;
  }
  return compute_reward(declared_instance, user, options).reward.expected_utility(true_pos);
}

class SingleTaskProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingleTaskProperties, RandomMisreportsNeverBeatTruthAndWinnersStaySolvent) {
  // Strategyproofness: for every user, no random PoS misreport yields more
  // expected utility than the truthful declaration (up to bisection
  // precision). Individual rationality: truthful winners have non-negative
  // expected utility. Both run on the production probe context (the only
  // FPTAS probe path), so a fast-path bug that shifted a single critical bid
  // would surface as a profitable deviation or a losing winner.
  const std::uint64_t seed = GetParam();
  common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const double requirement = rng.uniform(0.6, 0.9);
  const double pos_hi = rng.uniform(0.4, 0.9);
  const auto instance = test::random_single_task(9, requirement, seed, pos_hi);
  const std::string replay = "replay: seed=" + std::to_string(seed) +
                             " requirement=" + std::to_string(requirement) +
                             " pos_hi=" + std::to_string(pos_hi);
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.35};

  const auto truthful_allocation = solve_fptas(instance, options.epsilon);
  if (!truthful_allocation.feasible) {
    return;
  }
  for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
    const double true_pos = instance.bids[static_cast<std::size_t>(user)].pos;
    double truthful_utility = 0.0;
    if (truthful_allocation.contains(user)) {
      const auto reward = compute_reward(instance, user, options);
      truthful_utility = reward.reward.expected_utility(true_pos);
      EXPECT_GE(truthful_utility, -1e-9) << replay << " user " << user << " violates IR";
      // The critical bid is an infimum over [0, declared]: it can never
      // exceed the winning declaration itself.
      EXPECT_LE(reward.critical_contribution, instance.contribution(user))
          << replay << " user " << user;
    }
    for (int trial = 0; trial < 6; ++trial) {
      // Random misreports plus the near-boundary declarations, where the
      // winner set is most likely to flip.
      const double declared = trial < 4 ? rng.uniform(0.0, 0.99) : (trial == 4 ? 0.01 : 0.985);
      const auto lied = instance.with_declared_pos(user, declared);
      const double lied_utility = expected_utility(lied, user, true_pos, options);
      EXPECT_LE(lied_utility, truthful_utility + 1e-5)
          << replay << " user " << user << " gains by declaring " << declared << " (true "
          << true_pos << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleTaskProperties,
                         ::testing::Range<std::uint64_t>(9000, 9040));

}  // namespace
}  // namespace mcs::auction::single_task
