// The asserted invariant behind the lazy-greedy hot path: CELF-style lazy
// winner determination, the CSR view, and the exclusion/override overlays
// must be BIT-identical — same winners, same steps, same tie-breaks, exact
// doubles — to the paper-literal reference scan on materialized instance
// copies. Several hundred seeded random instances, deliberately including
// tie-heavy (quantized costs and PoS so many users share exact ratios) and
// degenerate zero-contribution populations, are checked across every layer:
// solve_greedy lazy vs reference, masked re-solves vs without_user /
// with_declared_total_contribution copies, without-i runs resumed from the
// winner-determination run vs cold ones, both critical-bid rules, and the
// end-to-end mechanism.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/multi_task/reward.hpp"
#include "auction/multi_task/view.hpp"
#include "common/rng.hpp"
#include "oracle/mechanism.hpp"
#include "test_util.hpp"

namespace mcs::auction::multi_task {
namespace {

constexpr GreedyOptions kLazyRun{.algorithm = GreedyAlgorithm::kLazy};
constexpr GreedyOptions kReferenceRun{.algorithm = GreedyAlgorithm::kReferenceScan};

/// Tie-heavy population: costs and PoS drawn from tiny quantized sets, plus
/// duplicated users, so many ratios collide exactly and the lowest-id
/// tie-break carries the selection order.
MultiTaskInstance tie_heavy_instance(std::uint64_t seed) {
  common::Rng rng(seed);
  const auto t = static_cast<std::size_t>(rng.uniform_int(1, 4));
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 12));
  MultiTaskInstance instance;
  instance.requirement_pos.assign(t, 0.5);
  const double costs[] = {1.0, 2.0, 4.0};
  const double pos[] = {0.25, 0.5};
  for (std::size_t i = 0; i < n; ++i) {
    MultiTaskUserBid bid;
    bid.cost = costs[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    for (std::size_t j = 0; j < t; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.6) {
        bid.tasks.push_back(static_cast<TaskIndex>(j));
        bid.pos.push_back(pos[static_cast<std::size_t>(rng.uniform_int(0, 1))]);
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(0);
      bid.pos.push_back(pos[0]);
    }
    instance.users.push_back(bid);
    if (rng.uniform(0.0, 1.0) < 0.3) {
      instance.users.push_back(bid);  // exact duplicate: a guaranteed tie
    }
  }
  return instance;
}

/// Degenerate population: a slice of the users declares PoS 0 on every task
/// (zero contribution), so the greedy must skip them and the override
/// overlay must reproduce the uniform-share branch.
MultiTaskInstance zero_contribution_instance(std::uint64_t seed) {
  auto instance = test::random_multi_task(10, 3, 0.5, seed);
  common::Rng rng(seed ^ 0xabcd);
  for (auto& user : instance.users) {
    if (rng.uniform(0.0, 1.0) < 0.3) {
      for (double& p : user.pos) {
        p = 0.0;
      }
    }
  }
  return instance;
}

/// The three instance families each seed exercises.
std::vector<MultiTaskInstance> instances_for(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x5eed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
  const auto t = static_cast<std::size_t>(rng.uniform_int(1, 5));
  return {test::random_multi_task(n, t, rng.uniform(0.2, 0.8), seed),
          tie_heavy_instance(seed), zero_contribution_instance(seed)};
}

class LazyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalence, LazyMatchesReferenceScan) {
  for (const auto& instance : instances_for(GetParam())) {
    test::expect_identical_greedy(solve_greedy(instance, kLazyRun),
                                  solve_greedy(instance, kReferenceRun));
    // keep_partial covers the stall path on infeasible instances.
    GreedyOptions lazy_partial = kLazyRun;
    GreedyOptions reference_partial = kReferenceRun;
    lazy_partial.keep_partial = reference_partial.keep_partial = true;
    test::expect_identical_greedy(solve_greedy(instance, lazy_partial),
                                  solve_greedy(instance, reference_partial));
  }
}

TEST_P(LazyEquivalence, ViewSolveMatchesInstanceSolve) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto view = MultiTaskView::from_instance(instance);
    test::expect_identical_greedy(solve_greedy(view, ViewOverlay::none(), kLazyRun),
                                  solve_greedy(instance, kReferenceRun));
  }
}

// Masked exclusion (lazy, on the shared view) vs a materialized without_user
// copy (reference scan): crossing both axes in one comparison checks that
// the layers compose. The copy's ids at or above the removed user shift down
// by one; map them back before comparing.
TEST_P(LazyEquivalence, MaskedExclusionMatchesWithoutUserCopy) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto view = MultiTaskView::from_instance(instance);
    for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
      const auto masked = solve_greedy(view, ViewOverlay::without(user), kLazyRun);
      const auto copied = solve_greedy(instance.without_user(user), kReferenceRun);
      test::expect_identical_greedy(masked, copied, [user](UserId reduced) {
        return reduced >= user ? reduced + 1 : reduced;
      });
    }
  }
}

TEST_P(LazyEquivalence, MaskedOverrideMatchesDeclaredContributionCopy) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto view = MultiTaskView::from_instance(instance);
    common::Rng rng(GetParam() ^ 0x0f0f);
    for (UserId user = 0; user < static_cast<UserId>(instance.num_users()); ++user) {
      const double total = instance.users[static_cast<std::size_t>(user)].total_contribution();
      for (const double declared :
           {0.0, total * 0.5, total, total * 2.0, rng.uniform(0.0, 3.0)}) {
        const auto overlay = ViewOverlay::with_declared_total_contribution(view, user, declared);
        const auto masked = solve_greedy(view, overlay, kLazyRun);
        const auto copied = solve_greedy(
            instance.with_declared_total_contribution(user, declared), kReferenceRun);
        test::expect_identical_greedy(masked, copied);
      }
    }
  }
}

constexpr RewardOptions kMaskedLazy[] = {
    {.rule = CriticalBidRule::kPaperIterationMin},
    {.rule = CriticalBidRule::kBinarySearch},
};

class RewardEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RewardEquivalence, CriticalBidsMatchUnderBothRules) {
  for (const auto& instance : instances_for(GetParam())) {
    const auto result = solve_greedy(instance);
    if (!result.allocation.feasible) {
      continue;
    }
    const auto view = MultiTaskView::from_instance(instance);
    for (UserId winner : result.allocation.winners) {
      for (const auto& masked_options : kMaskedLazy) {
        RewardOptions copied_options = masked_options;
        copied_options.algorithm = GreedyAlgorithm::kReferenceScan;
        copied_options.masked_resolves = false;
        // Exact equality across all four lazy/masked × reference/copied
        // combinations, via the shared-view overload and the instance one.
        const double masked = critical_contribution(view, winner, masked_options);
        const double copied = critical_contribution(instance, winner, copied_options);
        EXPECT_EQ(masked, copied) << "winner " << winner;
        EXPECT_EQ(critical_contribution(instance, winner, masked_options), masked)
            << "winner " << winner;
        const auto masked_reward = compute_reward(view, winner, masked_options);
        const auto copied_reward = compute_reward(instance, winner, copied_options);
        EXPECT_EQ(masked_reward.critical_contribution, copied_reward.critical_contribution);
        EXPECT_EQ(masked_reward.reward.critical_pos, copied_reward.reward.critical_pos);
        EXPECT_EQ(masked_reward.reward.cost, copied_reward.reward.cost);
      }
    }
  }
}

TEST_P(RewardEquivalence, MechanismOutcomeMatchesReferenceConfiguration) {
  const auction::MechanismConfig config;  // the defaults: lazy greedy, masked rewards
  for (const auto& instance : instances_for(GetParam())) {
    test::expect_identical_outcome(run_mechanism(instance, config),
                                   oracle::run_mechanism(instance, config));
  }
}

/// The bits of every double in `values`, so a comparison is bitwise.
std::vector<std::uint64_t> bits_of(std::span<const double> values) {
  std::vector<std::uint64_t> bits;
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Asserts that a without-i run resumed after `prefix` is the cold run: the
/// same allocation, and the joined log — `prefix`, then the resumed run's
/// steps — equal to the cold log step for step, residuals included, bitwise.
/// A stalled run without keep_partial keeps no log on either side.
void expect_resumed_matches_cold(std::span<const GreedyStep> prefix, const GreedyResult& resumed,
                                 const GreedyResult& cold) {
  ASSERT_EQ(resumed.allocation.feasible, cold.allocation.feasible);
  EXPECT_EQ(resumed.allocation.winners, cold.allocation.winners);
  EXPECT_EQ(bits_of(resumed.allocation.total_cost), bits_of(cold.allocation.total_cost));
  EXPECT_EQ(resumed.uncovered_tasks, cold.uncovered_tasks);
  EXPECT_EQ(resumed.timed_out, cold.timed_out);
  if (cold.steps.empty() && !cold.allocation.feasible) {
    EXPECT_TRUE(resumed.steps.empty());
    return;
  }
  std::vector<const GreedyStep*> joined;
  for (const auto& step : prefix) {
    joined.push_back(&step);
  }
  for (const auto& step : resumed.steps) {
    joined.push_back(&step);
  }
  ASSERT_EQ(joined.size(), cold.steps.size());
  for (std::size_t s = 0; s < joined.size(); ++s) {
    EXPECT_EQ(joined[s]->selected, cold.steps[s].selected) << "step " << s;
    EXPECT_EQ(bits_of(joined[s]->effective_contribution),
              bits_of(cold.steps[s].effective_contribution))
        << "step " << s;
    EXPECT_EQ(bits_of(joined[s]->ratio), bits_of(cold.steps[s].ratio)) << "step " << s;
    EXPECT_EQ(bits_of(joined[s]->residual_before), bits_of(cold.steps[s].residual_before))
        << "step " << s;
  }
}

/// Checks every winner of `instance` under both pickers: her without-i run
/// resumed from the winner-determination run at her step equals the cold
/// without-i run (and, when she is pivotal, so does the stalled partial
/// run), and both critical-bid rules give the same bits with and without the
/// winner-determination run. Returns how many winners were pivotal.
std::size_t expect_warm_starts_match_cold(const MultiTaskInstance& instance) {
  const auto view = MultiTaskView::from_instance(instance);
  std::size_t pivotal = 0;
  for (const auto algorithm : {GreedyAlgorithm::kLazy, GreedyAlgorithm::kReferenceScan}) {
    const GreedyOptions recorded{.algorithm = algorithm, .record_residuals = true};
    const auto main = solve_greedy(view, ViewOverlay::none(), recorded);
    if (!main.allocation.feasible) {
      continue;
    }
    for (std::size_t k = 0; k < main.steps.size(); ++k) {
      const UserId winner = main.steps[k].selected;
      const bool first = k == 0;
      const bool last = k + 1 == main.steps.size();
      SCOPED_TRACE("winner " + std::to_string(winner) + " picked at step " + std::to_string(k) +
                   (first ? " (first)" : "") + (last ? " (last)" : "") + ", " +
                   (algorithm == GreedyAlgorithm::kLazy ? "lazy" : "reference"));
      const std::span<const GreedyStep> prefix(main.steps.data(), k);
      const auto without = ViewOverlay::without(winner);
      const auto cold = solve_greedy(view, without, recorded);
      expect_resumed_matches_cold(prefix, solve_greedy(view, without, recorded, prefix), cold);
      if (!cold.allocation.feasible) {
        ++pivotal;
        GreedyOptions partial = recorded;
        partial.keep_partial = true;
        expect_resumed_matches_cold(prefix, solve_greedy(view, without, partial, prefix),
                                    solve_greedy(view, without, partial));
      }
      for (const auto& rule_options : kMaskedLazy) {
        RewardOptions cold_options = rule_options;
        cold_options.algorithm = algorithm;
        RewardOptions warm_options = cold_options;
        warm_options.winner_determination = &main;
        EXPECT_EQ(bits_of(critical_contribution(view, winner, warm_options)),
                  bits_of(critical_contribution(view, winner, cold_options)));
      }
    }
  }
  return pivotal;
}

TEST_P(RewardEquivalence, ResumedWithoutRunsMatchColdSolves) {
  for (const auto& instance : instances_for(GetParam())) {
    expect_warm_starts_match_cold(instance);
  }
}

TEST(WarmStart, FirstLastAndPivotalWinnersMatchColdSolves) {
  // Two tasks. Users 0 and 3 tie on task 0 (user 0 is picked first); user 2
  // alone serves task 1, so she is pivotal, picked second; user 1 is picked
  // last over user 3 on the lowest-id tie-break.
  MultiTaskInstance instance;
  instance.requirement_pos = {0.5, 0.5};
  instance.users = {{{0}, {0.4}, 1.0}, {{0}, {0.3}, 1.0}, {{1}, {0.6}, 2.0}, {{0}, {0.4}, 1.0}};
  const auto main = solve_greedy(MultiTaskView::from_instance(instance), ViewOverlay::none());
  ASSERT_TRUE(main.allocation.feasible);
  ASSERT_EQ(main.steps.size(), 3u);
  EXPECT_EQ(main.steps[0].selected, 0);
  EXPECT_EQ(main.steps[1].selected, 2);
  EXPECT_EQ(main.steps[2].selected, 1);
  EXPECT_EQ(expect_warm_starts_match_cold(instance), 2u);  // user 2, under each picker
}

// 100 seeds × 3 instance families = 300 instances through the greedy-layer
// equivalences; the reward-layer equivalence re-solves the cover thousands
// of times per instance, so it sweeps a smaller range.
INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence, ::testing::Range<std::uint64_t>(0, 100));
INSTANTIATE_TEST_SUITE_P(Seeds, RewardEquivalence, ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace mcs::auction::multi_task
