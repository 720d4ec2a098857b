// Unit and property tests for Algorithm 3 (single-task reward scheme):
// critical bids on the paper's example, the execution-contingent reward
// algebra, and empirical strategy-proofness / individual rationality across
// random instances (Theorem 1).
#include "auction/single_task/reward.hpp"

#include <gtest/gtest.h>

#include "auction/single_task/fptas.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "oracle/mechanism.hpp"
#include "test_util.hpp"

namespace mcs::auction::single_task {
namespace {

SingleTaskInstance paper_example() {
  SingleTaskInstance instance;
  instance.requirement_pos = 0.9;
  instance.bids = {{3.0, 0.7}, {2.0, 0.7}, {1.0, 0.5}, {4.0, 0.8}};
  return instance;
}

TEST(CriticalBid, PaperExampleBoundary) {
  // From Fig 2: with cost fixed, user 0's (and user 1's) critical PoS is the
  // value that keeps {0, 1} covering 0.9 given the partner's 0.7:
  // 1 - (1-p)(0.3) >= 0.9  =>  p >= 2/3.
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.1};
  const double q_critical = critical_contribution(paper_example(), 0, options);
  EXPECT_NEAR(common::pos_from_contribution(q_critical), 2.0 / 3.0, 1e-6);
}

TEST(CriticalBid, RequiresAWinner) {
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.1};
  // User 3 (cost 4) loses the paper example's auction.
  EXPECT_THROW(critical_contribution(paper_example(), 3, options),
               common::PreconditionError);
}

TEST(CriticalBid, AtMostTheDeclaredContribution) {
  const auto instance = test::random_single_task(15, 0.8, 3);
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.5};
  const auto allocation = solve_fptas(instance, options.epsilon);
  ASSERT_TRUE(allocation.feasible);
  for (UserId winner : allocation.winners) {
    const double q_critical = critical_contribution(instance, winner, options);
    EXPECT_LE(q_critical, instance.contribution(winner) + 1e-9);
    EXPECT_GE(q_critical, 0.0);
  }
}

TEST(CriticalBid, WinningAtCriticalLosingBelow) {
  const auto instance = test::random_single_task(15, 0.8, 5);
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.5};
  const auto allocation = solve_fptas(instance, options.epsilon);
  ASSERT_TRUE(allocation.feasible);
  const UserId winner = allocation.winners.front();
  const double q_critical = critical_contribution(instance, winner, options);
  if (q_critical > 1e-6) {
    const auto below =
        solve_fptas(instance.with_declared_contribution(winner, q_critical * 0.99),
                    options.epsilon);
    EXPECT_FALSE(below.feasible && below.contains(winner));
  }
  const auto at = solve_fptas(instance.with_declared_contribution(winner, q_critical * 1.01),
                              options.epsilon);
  EXPECT_TRUE(at.feasible && at.contains(winner));
}

TEST(Reward, FieldsAreConsistent) {
  const auto instance = paper_example();
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.1};
  const auto reward = compute_reward(instance, 1, options);
  EXPECT_EQ(reward.user, 1);
  EXPECT_DOUBLE_EQ(reward.reward.cost, 2.0);
  EXPECT_DOUBLE_EQ(reward.reward.alpha, 10.0);
  EXPECT_NEAR(reward.reward.critical_pos,
              common::pos_from_contribution(reward.critical_contribution), 1e-12);
  // u = (p - p̄)·α = (0.7 - 2/3)·10 = 1/3.
  EXPECT_NEAR(reward.reward.expected_utility(0.7), 1.0 / 3.0, 1e-5);
}

TEST(Reward, RejectsBadOptions) {
  RewardOptions options{.alpha = 0.0, .epsilon = 0.1};
  EXPECT_THROW(compute_reward(paper_example(), 0, options), common::PreconditionError);
  options = {.alpha = 10.0, .epsilon = 0.1, .binary_search_iterations = 0};
  EXPECT_THROW(compute_reward(paper_example(), 0, options), common::PreconditionError);
}

TEST(CriticalBid, ProductionProbesAreBitIdenticalToCopiedProbes) {
  // Regression for the probe allocation bug: each wins-with-contribution
  // probe used to materialize a full O(n) instance copy. Production answers
  // kFptas probes from the reused-frontier probe context and kMinGreedy
  // probes from one scratch copy per critical_contribution call; both must
  // reproduce oracle::critical_contribution, which copies the instance on
  // every probe, EXACTLY (same doubles, both rules), because
  // with_declared_contribution applies the very same pos_from_contribution
  // conversion the production probes apply.
  for (std::uint64_t seed : {41ULL, 42ULL, 43ULL, 44ULL}) {
    const auto instance = test::random_single_task(15, 0.8, seed);
    for (const WinnerRule rule : {WinnerRule::kFptas, WinnerRule::kMinGreedy}) {
      const RewardOptions options{.alpha = 10.0, .epsilon = 0.5, .winner_rule = rule};
      const auto allocation = rule == WinnerRule::kFptas
                                  ? solve_fptas(instance, options.epsilon)
                                  : solve_min_greedy(instance);
      if (!allocation.feasible) {
        continue;
      }
      for (const UserId winner : allocation.winners) {
        EXPECT_EQ(critical_contribution(instance, winner, options),
                  oracle::critical_contribution(instance, winner, options))
            << "seed " << seed << " winner " << winner;
      }
    }
  }
}

class SingleTaskTruthfulness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingleTaskTruthfulness, NoMisreportBeatsTruth) {
  // Theorem 1, checked empirically: sweep declared PoS on a random instance;
  // the truthful declaration maximizes expected utility for every user.
  const auto instance = test::random_single_task(10, 0.7, GetParam());
  const RewardOptions options{.alpha = 10.0, .epsilon = 0.5};
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
      // Individual rationality: truthful winners never lose money.
      EXPECT_GE(truthful_utility, -1e-6);
    }
    for (double declared : {0.05, 0.2, 0.4, 0.6, 0.8, 0.95}) {
      const auto lied = instance.with_declared_pos(user, declared);
      const auto allocation = solve_fptas(lied, options.epsilon);
      double lied_utility = 0.0;
      if (allocation.feasible && allocation.contains(user)) {
        const auto reward = compute_reward(lied, user, options);
        lied_utility = reward.reward.expected_utility(true_pos);
      }
      EXPECT_LE(lied_utility, truthful_utility + 1e-5)
          << "user " << user << " gains by declaring " << declared << " (true " << true_pos
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleTaskTruthfulness, ::testing::Range<std::uint64_t>(300, 312));

}  // namespace
}  // namespace mcs::auction::single_task
