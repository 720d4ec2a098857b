// Differential pin for the single-task critical-bid fast path (the
// FptasProbeContext behind single_task::critical_contribution): across
// hundreds of randomized instances — varied cost/PoS shapes, both winner
// rules, an ε grid — the production probe answers must reproduce
// oracle::critical_contribution, which re-solves a copied instance on every
// probe, BIT-identically:
// same winners, same critical contributions, same rewards, as exact
// double equality, not tolerances. Any divergence prints the (shape,
// seed, epsilon, rule) tuple needed to replay it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "auction/single_task/fptas.hpp"
#include "auction/single_task/mechanism.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "auction/single_task/reward.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "oracle/dp_knapsack.hpp"
#include "oracle/mechanism.hpp"
#include "test_util.hpp"

namespace mcs::auction::single_task {
namespace {

constexpr std::size_t kShapes = 5;

const char* shape_name(std::size_t shape) {
  switch (shape) {
    case 0: return "uniform";
    case 1: return "high-pos";
    case 2: return "tie-heavy";
    case 3: return "bimodal-cost";
    default: return "knife-edge";
  }
}

// One instance per (shape, seed): five qualitatively different cost/PoS
// landscapes so the differential sweep exercises scaled-cost ties, capped
// contributions, near-infeasible requirements, and plain random mixes.
SingleTaskInstance make_instance(std::size_t shape, std::uint64_t seed) {
  switch (shape) {
    case 0:
      return test::random_single_task(9, 0.8, seed);
    case 1:
      // Large contributions (PoS up to 0.97): single users can cover the
      // requirement alone and the DP cap at the requirement is hit often.
      return test::random_single_task(8, 0.9, seed, /*pos_hi=*/0.97);
    case 2: {
      // Tie-heavy: few distinct costs and PoS values, so the (cost, id)
      // sort, the scaled costs, and the scaled-value argmin all tie; the
      // fast path must reproduce every order-dependent tie-break (or
      // detect the ambiguity and fall back).
      common::Rng rng(seed * 2654435761ULL + 17);
      SingleTaskInstance instance;
      instance.requirement_pos = 0.85;
      for (std::size_t k = 0; k < 10; ++k) {
        const double cost = 1.0 + static_cast<double>(rng.uniform_int(0, 2));
        const double pos = 0.1 + 0.15 * static_cast<double>(rng.uniform_int(0, 2));
        instance.bids.push_back({cost, pos});
      }
      return instance;
    }
    case 3: {
      // Bimodal costs: a cheap dense cluster plus expensive outliers, so
      // μ_k varies a lot across subproblems and the winner's sorted slot
      // lands at both extremes.
      common::Rng rng(seed * 1099511628211ULL + 3);
      SingleTaskInstance instance;
      instance.requirement_pos = 0.75;
      for (std::size_t k = 0; k < 9; ++k) {
        const bool cheap = rng.uniform(0.0, 1.0) < 0.5;
        instance.bids.push_back(
            {cheap ? rng.uniform(0.5, 1.5) : rng.uniform(20.0, 40.0), rng.uniform(0.05, 0.4)});
      }
      return instance;
    }
    default: {
      // Knife-edge: requirement close to the full set's coverage, so
      // probes sit near the feasibility boundary where approx_ge outcomes
      // are decided by the last few ulps — the fast path's certificate
      // territory.
      auto instance = test::random_single_task(8, 0.5, seed ^ 0x9e3779b97f4a7c15ULL);
      double total = 0.0;
      for (const auto& bid : instance.bids) {
        total += common::contribution_from_pos(bid.pos);
      }
      instance.requirement_pos = common::pos_from_contribution(total * 0.93);
      return instance;
    }
  }
}

class ProbeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProbeEquivalence, FastPathMatchesOracleBitIdentically) {
  // 5 shapes x 16 seeds per shard x 5 shards = 400 differential instances.
  const std::uint64_t shard = GetParam();
  for (std::size_t shape = 0; shape < kShapes; ++shape) {
    for (std::uint64_t local = 0; local < 16; ++local) {
      const std::uint64_t seed = shard * 16 + local;
      const auto instance = make_instance(shape, seed);
      for (const WinnerRule rule : {WinnerRule::kFptas, WinnerRule::kMinGreedy}) {
        for (const double epsilon : {0.5, 0.12}) {
          SCOPED_TRACE(std::string("shape=") + shape_name(shape) + " seed=" +
                       std::to_string(seed) + " epsilon=" + std::to_string(epsilon) + " rule=" +
                       (rule == WinnerRule::kFptas ? "fptas" : "min-greedy"));
          const auto allocation = rule == WinnerRule::kFptas
                                      ? solve_fptas(instance, epsilon)
                                      : solve_min_greedy(instance);
          if (!allocation.feasible) {
            continue;
          }
          RewardOptions fast{.alpha = 10.0, .epsilon = epsilon, .winner_rule = rule};
          RewardOptions literal = fast;
          for (const UserId winner : allocation.winners) {
            obs::PhaseCounters fast_counters;
            obs::PhaseCounters oracle_counters;
            fast.counters = &fast_counters;
            literal.counters = &oracle_counters;
            EXPECT_EQ(critical_contribution(instance, winner, fast),
                      oracle::critical_contribution(instance, winner, literal))
                << "winner " << winner;
            const auto fast_reward = compute_reward(instance, winner, fast);
            const auto oracle_reward = oracle::compute_reward(instance, winner, literal);
            EXPECT_EQ(fast_reward.critical_contribution, oracle_reward.critical_contribution)
                << "winner " << winner;
            EXPECT_EQ(fast_reward.reward.critical_pos, oracle_reward.reward.critical_pos)
                << "winner " << winner;
            // Accounting invariant of the fast path: every probe is either
            // answered from the reused frontiers or by a counted fallback.
            if (rule == WinnerRule::kFptas) {
              EXPECT_EQ(fast_counters.dp_reuse_hits + fast_counters.dp_reuse_fallbacks,
                        fast_counters.probes)
                  << "winner " << winner;
            } else {
              EXPECT_EQ(fast_counters.dp_reuse_hits + fast_counters.dp_reuse_fallbacks, 0u)
                  << "winner " << winner;
            }
            EXPECT_EQ(oracle_counters.dp_reuse_hits + oracle_counters.dp_reuse_fallbacks, 0u)
                << "winner " << winner;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ProbeEquivalence, ::testing::Range<std::uint64_t>(0, 5));

TEST(ProbeEquivalence, EndToEndMechanismOutcomesAreBitIdentical) {
  // The same differential at the mechanism facade level: the full outcome
  // (winners, every reward field, degradation flags) of a default-config
  // run must equal oracle::run_mechanism's, with parallel rewards on.
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto instance = test::random_single_task(12, 0.85, seed, /*pos_hi=*/0.6);
    auction::MechanismConfig config;
    config.single_task.epsilon = 0.4;
    test::expect_identical_outcome(run_mechanism(instance, config),
                                   oracle::run_mechanism(instance, config));
  }
}

TEST(ProbeEquivalence, FrontierOnlyPathYieldsIdenticalFrontierEntries) {
  // The probe context consumes frontiers through min_knapsack_frontier,
  // which skips parent bookkeeping entirely (no reconstruction is ever
  // requested on that path). Skipping the side pool
  // must not perturb a single surviving state: on the same item lists the
  // differential suites probe with, every frontier entry — scaled cost AND
  // capped contribution — must equal the scalar oracle's bit for bit.
  for (std::size_t shape = 0; shape < kShapes; ++shape) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE(std::string("shape=") + shape_name(shape) + " seed=" + std::to_string(seed));
      const auto instance = make_instance(shape, seed);
      for (const double mu : {0.05, 0.4}) {
        std::vector<KnapsackItem> items;
        items.reserve(instance.bids.size());
        for (const auto& bid : instance.bids) {
          items.push_back({common::contribution_from_pos(bid.pos),
                           static_cast<std::int64_t>(bid.cost / mu)});
        }
        const double requirement = common::contribution_from_pos(instance.requirement_pos);
        const auto columns = min_knapsack_frontier(items, requirement);
        const auto literal = oracle::min_knapsack_frontier(items, requirement);
        ASSERT_EQ(columns.size(), literal.size()) << "mu=" << mu;
        for (std::size_t k = 0; k < columns.size(); ++k) {
          EXPECT_EQ(columns[k].scaled_cost, literal[k].scaled_cost)
              << "mu=" << mu << " entry " << k;
          EXPECT_EQ(columns[k].contribution, literal[k].contribution)
              << "mu=" << mu << " entry " << k;
        }
      }
    }
  }
}

TEST(ProbeEquivalence, FastPathIsDeterministicAcrossRepeatsAndTelemetry) {
  // Same config, same instance => same outcome, telemetry on or off (the
  // obs determinism contract extended to the fast path's fallback pattern).
  const auto instance = test::random_single_task(12, 0.8, 77);
  auction::MechanismConfig config;
  const auto baseline = run_mechanism(instance, config);
  test::expect_identical_outcome(baseline, run_mechanism(instance, config));
  const obs::ScopedTelemetry scope(true);
  test::expect_identical_outcome(baseline, run_mechanism(instance, config));
}

}  // namespace
}  // namespace mcs::auction::single_task
