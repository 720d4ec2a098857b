// Regression suite for the single-task degradation ladder: when the FPTAS
// exhausts its wall-clock budget and the mechanism falls back to Min-Greedy
// winner determination with kMinGreedy critical bids, the degraded outcome
// must still be a real mechanism — individually rational and strategy-proof
// (truthful PoS declaration dominant) — and the fallback itself must honour
// the cooperative deadline (the bug where solve_min_greedy ignored its
// budget let a degraded retry run unbounded).
//
// The timeout is forced by the instance, not by the host's speed: an
// unprunable instance (test::unprunable_single_task — contributions exactly
// proportional to costs, n = 40) at epsilon = 1e-6 gives the FPTAS DP a
// frontier that doubles per item, so one sweep pass overshoots the 0.25 s
// budget whatever the probe path, and the ladder lands on Min-Greedy. The
// Min-Greedy retry — winner scan plus its deadline-polled critical-bid
// probes, a few milliseconds — fits the fresh budget with wide headroom even
// under the sanitizer presets. Peak memory grows with the budget (the
// frontier is the DP's state), so keep the budget at 0.25 s.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "auction/single_task/mechanism.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "auction/single_task/reward.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"
#include "test_util.hpp"

namespace mcs::auction::single_task {
namespace {

auction::MechanismConfig ladder_config() {
  return auction::MechanismConfig{
      .alpha = 10.0,
      .time_budget_seconds = 0.25,
      .degrade_on_timeout = true,
      .single_task = {.epsilon = 1e-6}};
}

TEST(DegradedMechanism, FptasTimeoutFallsBackToMinGreedyOutcome) {
  const auto instance = test::unprunable_single_task(40, 5);
  const auto outcome = run_mechanism(instance, ladder_config());
  ASSERT_TRUE(outcome.degraded) << "the FPTAS budget did not expire; widen the gap";
  ASSERT_TRUE(outcome.allocation.feasible);
  const auto greedy = solve_min_greedy(instance);
  EXPECT_EQ(outcome.allocation.winners, greedy.winners);
  EXPECT_EQ(outcome.allocation.total_cost, greedy.total_cost);
  EXPECT_EQ(outcome.rewards.size(), greedy.winners.size());
}

TEST(DegradedMechanism, DegradedWinnersAreIndividuallyRational) {
  for (std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    const auto instance = test::unprunable_single_task(40, seed);
    const auto outcome = run_mechanism(instance, ladder_config());
    ASSERT_TRUE(outcome.degraded);
    ASSERT_TRUE(outcome.allocation.feasible);
    const auto utilities = sim::expected_utilities(instance, outcome);
    EXPECT_TRUE(sim::individually_rational(utilities));
  }
}

TEST(DegradedMechanism, MisreportingNeverIncreasesUtilityUnderMinGreedyRule) {
  // Strategy-proofness of the degraded path, checked directly against the
  // rule the ladder lands on (no wall clock involved, so the sweep is
  // deterministic): under Min-Greedy winner determination with kMinGreedy
  // critical bids, a user's expected utility from declaring pos' is
  //   (p - p̄)·α when she wins (p̄ her critical PoS, independent of her
  //   declaration by Lemma 1), 0 when she loses —
  // so truthful declaration must be a dominant strategy.
  const RewardOptions reward_options{.alpha = 10.0, .winner_rule = WinnerRule::kMinGreedy};
  for (std::uint64_t seed : {11ULL, 12ULL}) {
    const auto instance = test::random_single_task(14, 0.8, seed);
    const auto truthful_allocation = solve_min_greedy(instance);
    ASSERT_TRUE(truthful_allocation.feasible);
    for (const UserId user : truthful_allocation.winners) {
      const double true_pos = instance.bids[static_cast<std::size_t>(user)].pos;
      const double truthful_utility =
          compute_reward(instance, user, reward_options).reward.expected_utility(true_pos);
      EXPECT_GE(truthful_utility, -1e-9);  // IR of the truthful declaration
      for (double declared : {0.02, 0.3 * true_pos, 0.9 * true_pos, 1.2 * true_pos,
                              std::min(0.95, true_pos + 0.2)}) {
        const auto misreported = instance.with_declared_pos(user, declared);
        const auto allocation = solve_min_greedy(misreported);
        double utility = 0.0;  // losers are paid nothing
        if (allocation.feasible && allocation.contains(user)) {
          utility = compute_reward(misreported, user, reward_options)
                        .reward.expected_utility(true_pos);
        }
        EXPECT_LE(utility, truthful_utility + 1e-9)
            << "seed " << seed << " user " << user << " declared " << declared;
      }
    }
  }
}

TEST(DegradedMechanism, DegradedTelemetryCountsTheLadderEvent) {
  const auto instance = test::unprunable_single_task(40, 5);
  const obs::ScopedTelemetry on(true);
  const auto outcome = run_mechanism(instance, ladder_config());
  ASSERT_TRUE(outcome.degraded);
  EXPECT_TRUE(outcome.telemetry.enabled);
  EXPECT_EQ(outcome.telemetry.degraded_events, 1u);
  // The fallback's greedy picks and the kMinGreedy probes both count.
  EXPECT_GT(outcome.telemetry.winner_determination.rounds, 0u);
  EXPECT_GE(outcome.telemetry.rewards.probes, outcome.rewards.size());
}

TEST(MinGreedyDeadline, ExpiredDeadlineThrowsFromTheCoverScan) {
  // Regression: solve_min_greedy used to ignore its budget entirely.
  const auto instance = test::random_single_task(20, 0.8, 21);
  const auto expired = common::Deadline::after(0.0);
  ASSERT_TRUE(expired.expired());
  EXPECT_THROW(solve_min_greedy(instance, expired), common::DeadlineExceeded);
  EXPECT_NO_THROW(solve_min_greedy(instance, common::Deadline::after(60.0)));
  EXPECT_NO_THROW(solve_min_greedy(instance));  // unlimited default
}

TEST(MinGreedyDeadline, ExpiredDeadlineThrowsFromTheCriticalBidProbes) {
  // The same regression from the reward side: every kMinGreedy probe replays
  // the cover scan, so the reward search must stop on an exhausted budget
  // instead of bisecting unbounded re-runs.
  const auto instance = test::random_single_task(20, 0.8, 22);
  const auto allocation = solve_min_greedy(instance);
  ASSERT_TRUE(allocation.feasible);
  ASSERT_FALSE(allocation.winners.empty());
  RewardOptions options{.alpha = 10.0, .winner_rule = WinnerRule::kMinGreedy};
  options.deadline = common::Deadline::after(0.0);
  EXPECT_THROW(critical_contribution(instance, allocation.winners.front(), options),
               common::DeadlineExceeded);
}

}  // namespace
}  // namespace mcs::auction::single_task
