// Attack-harness units: pure-stream determinism (same seed → bit-identical
// attack schedule, independent of materialization order), FaultInjector
// fail_at composition, sybil split mass conservation, coalition bookkeeping
// invariants, the hostile instance generator's shapes, and the
// reputation-feedback loop's round-trip into platform::ReputationTracker.
#include "sim/adversary.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "harness/adversarial_sweep.hpp"
#include "platform/reputation.hpp"
#include "sim/metrics.hpp"

namespace mcs {
namespace {

sim::AttackConfig weather_config(std::uint64_t seed, double event_prob) {
  sim::AttackConfig config;
  config.seed = seed;
  config.cell_failures.event_prob = event_prob;
  config.cell_failures.cells = {0, 1, 2, 3};
  return config;
}

TEST(AttackStreams, PureInTheirCoordinates) {
  // Two independent constructions of the same (seed, axis, round) stream
  // yield identical draws; changing ANY coordinate decorrelates.
  auto a = sim::attack_stream(1, sim::AttackAxis::kCellFailure, 5);
  auto b = sim::attack_stream(1, sim::AttackAxis::kCellFailure, 5);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());

  auto other_axis = sim::attack_stream(1, sim::AttackAxis::kPrivacy, 5);
  auto other_round = sim::attack_stream(1, sim::AttackAxis::kCellFailure, 6);
  auto other_seed = sim::attack_stream(2, sim::AttackAxis::kCellFailure, 5);
  auto base = sim::attack_stream(1, sim::AttackAxis::kCellFailure, 5);
  const auto draw = base();
  EXPECT_NE(draw, other_axis());
  EXPECT_NE(draw, other_round());
  EXPECT_NE(draw, other_seed());

  auto user_a = sim::attack_user_stream(1, sim::AttackAxis::kPrivacy, 5, 3);
  auto user_b = sim::attack_user_stream(1, sim::AttackAxis::kPrivacy, 5, 3);
  auto user_c = sim::attack_user_stream(1, sim::AttackAxis::kPrivacy, 5, 4);
  EXPECT_EQ(user_a(), user_b());
  EXPECT_NE(user_a(), user_c());
}

TEST(AttackSchedule, SameSeedBitIdentical) {
  const auto config = weather_config(0xabcdULL, 0.4);
  const auto one = sim::make_attack_schedule(config, 64);
  const auto two = sim::make_attack_schedule(config, 64);
  ASSERT_EQ(one.events.size(), 64u);
  for (std::size_t r = 0; r < one.events.size(); ++r) {
    EXPECT_EQ(one.events[r].occurred, two.events[r].occurred) << "round " << r;
    EXPECT_EQ(one.events[r].cell, two.events[r].cell) << "round " << r;
  }
}

TEST(AttackSchedule, PrefixStableUnderExtension) {
  // Round r's event is a pure function of (seed, r): asking for more rounds
  // must not disturb the earlier ones.
  const auto config = weather_config(0x77ULL, 0.5);
  const auto short_run = sim::make_attack_schedule(config, 8);
  const auto long_run = sim::make_attack_schedule(config, 32);
  for (std::size_t r = 0; r < short_run.events.size(); ++r) {
    EXPECT_EQ(short_run.events[r].occurred, long_run.events[r].occurred) << "round " << r;
    EXPECT_EQ(short_run.events[r].cell, long_run.events[r].cell) << "round " << r;
  }
}

TEST(AttackSchedule, EventRateTracksProbability) {
  const auto schedule = sim::make_attack_schedule(weather_config(3, 0.3), 2000);
  std::size_t events = 0;
  for (const auto& event : schedule.events) {
    events += event.occurred ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(events) / 2000.0, 0.3, 0.05);
}

TEST(AttackSchedule, FailAtComposesWithShardMap) {
  const auto schedule = sim::make_attack_schedule(weather_config(9, 0.5), 40);
  const auto fail_at =
      sim::schedule_fail_at(schedule, [](geo::CellId cell) { return cell % 2; });
  std::size_t occurred = 0;
  for (std::size_t r = 0; r < schedule.events.size(); ++r) {
    if (schedule.events[r].occurred) {
      ASSERT_LT(occurred, fail_at.size());
      EXPECT_EQ(fail_at[occurred].first, r);
      EXPECT_EQ(fail_at[occurred].second,
                static_cast<std::uint64_t>(schedule.events[r].cell % 2));
      ++occurred;
    }
  }
  EXPECT_EQ(occurred, fail_at.size());
  EXPECT_GT(occurred, 0u) << "p=0.5 over 40 rounds should realize events";
}

TEST(NoisedReports, DeterministicPerRoundAndUser) {
  sim::AttackConfig config;
  config.seed = 55;
  config.privacy.epsilon = 1.0;
  const auto truth = sim::hostile_single_task(10, sim::HostileShape::kRandom, 5);

  const auto a = sim::noised_reports(config, truth, 3);
  const auto b = sim::noised_reports(config, truth, 3);
  const auto other_round = sim::noised_reports(config, truth, 4);
  bool any_noise = false;
  bool any_round_difference = false;
  for (std::size_t u = 0; u < truth.bids.size(); ++u) {
    EXPECT_EQ(a.bids[u].pos, b.bids[u].pos) << "user " << u;
    any_noise = any_noise || a.bids[u].pos != truth.bids[u].pos;
    any_round_difference = any_round_difference || a.bids[u].pos != other_round.bids[u].pos;
  }
  EXPECT_TRUE(any_noise);
  EXPECT_TRUE(any_round_difference);

  // The per-user stream replays one user's noise in isolation: re-noising
  // user 2's truthful report alone reproduces her entry in the full pass.
  auto rng = sim::report_stream(config, 3, 2);
  EXPECT_EQ(sim::privatize_pos(truth.bids[2].pos, config.privacy, rng), a.bids[2].pos);
}

TEST(SybilSplit, ConservesMassAndCost) {
  const auto truth = sim::hostile_single_task(8, sim::HostileShape::kRandom, 11);
  const auto split = sim::split_identity(truth, 2, 3);
  ASSERT_EQ(split.identities.size(), 3u);
  ASSERT_EQ(split.instance.num_users(), truth.num_users() + 2);
  double cost = 0.0;
  double contribution = 0.0;
  for (const auto id : split.identities) {
    cost += split.instance.bids[id].cost;
    contribution += split.instance.contribution(id);
  }
  EXPECT_NEAR(cost, truth.bids[2].cost, 1e-12);
  EXPECT_NEAR(contribution, truth.contribution(2), 1e-9);
  // Everyone else is untouched.
  for (std::size_t u = 0; u < truth.num_users(); ++u) {
    if (u == 2) {
      continue;
    }
    EXPECT_EQ(split.instance.bids[u].pos, truth.bids[u].pos) << "user " << u;
    EXPECT_EQ(split.instance.bids[u].cost, truth.bids[u].cost) << "user " << u;
  }
  split.instance.validate();
}

TEST(SybilSplit, MultiTaskClonesKeepTaskSets) {
  const auto truth = sim::hostile_multi_task(9, 3, sim::HostileShape::kRandom, 13);
  const auto split = sim::split_identity(truth, 1, 2);
  ASSERT_EQ(split.identities.size(), 2u);
  double total_q = 0.0;
  for (const auto id : split.identities) {
    EXPECT_EQ(split.instance.users[id].tasks, truth.users[1].tasks);
    total_q += split.instance.users[id].total_contribution();
  }
  EXPECT_NEAR(total_q, truth.users[1].total_contribution(), 1e-9);
  split.instance.validate();
}

TEST(CoalitionProbe, TruthfulShadeReproducesIndividualUtilities) {
  // shade = 1 bookkeeping invariant: the joint utility of the coalition at
  // the truthful declaration equals the sum of the members' individual
  // truthful expected utilities.
  const auto truth = sim::hostile_single_task(10, sim::HostileShape::kTiedCosts, 17);
  const auction::MechanismConfig config;
  const auto outcome = auction::single_task::run_mechanism(truth, config);
  ASSERT_TRUE(outcome.allocation.feasible);
  const auto utilities = sim::expected_utilities(truth, outcome);

  std::vector<auction::UserId> members = {outcome.allocation.winners.front(),
                                          outcome.allocation.winners.back()};
  if (members.front() == members.back()) {
    members.pop_back();
  }
  double expected = 0.0;
  for (std::size_t k = 0; k < outcome.allocation.winners.size(); ++k) {
    for (const auto member : members) {
      if (outcome.allocation.winners[k] == member) {
        expected += utilities[k];
      }
    }
  }
  const double joint = sim::joint_expected_utility(truth, truth, members, config);
  EXPECT_NEAR(joint, expected, 1e-9);
}

TEST(CoalitionProbe, ShadingGridTracksBestShade) {
  const auto truth = sim::hostile_single_task(10, sim::HostileShape::kRandom, 19);
  const auction::MechanismConfig config;
  const auto outcome = auction::single_task::run_mechanism(truth, config);
  ASSERT_TRUE(outcome.allocation.feasible);
  ASSERT_GE(outcome.allocation.winners.size(), 2u);
  std::vector<auction::UserId> members(outcome.allocation.winners.begin(),
                                       outcome.allocation.winners.begin() + 2);

  const std::vector<double> grid = {0.5, 0.75, 1.25};
  const auto probe = sim::probe_coalition_shading(truth, members, grid, config);
  EXPECT_EQ(probe.members, members);
  // best_joint_utility is the max over {truthful} ∪ grid, recomputable from
  // the bookkeeping unit directly.
  double best = probe.truthful_joint_utility;
  for (const double shade : grid) {
    auto declared = truth;
    for (const auto member : members) {
      declared =
          declared.with_declared_contribution(member, shade * truth.contribution(member));
    }
    best = std::max(best, sim::joint_expected_utility(truth, declared, members, config));
  }
  EXPECT_NEAR(probe.best_joint_utility, best, 1e-12);
  EXPECT_NEAR(probe.gain, probe.best_joint_utility - probe.truthful_joint_utility, 1e-12);
  EXPECT_EQ(probe.profitable, probe.gain > 1e-6);
}

TEST(HostileGenerator, ShapesAreValidAndDeterministic) {
  for (const auto shape : sim::kHostileShapes) {
    const auto st = sim::hostile_single_task(12, shape, 23);
    const auto st_again = sim::hostile_single_task(12, shape, 23);
    st.validate();
    EXPECT_TRUE(st.is_feasible()) << sim::to_string(shape);
    EXPECT_EQ(st.requirement_pos, st_again.requirement_pos) << sim::to_string(shape);
    for (std::size_t u = 0; u < st.bids.size(); ++u) {
      EXPECT_EQ(st.bids[u].pos, st_again.bids[u].pos);
      EXPECT_EQ(st.bids[u].cost, st_again.bids[u].cost);
    }

    const auto mt = sim::hostile_multi_task(12, 4, shape, 23);
    mt.validate();
    EXPECT_TRUE(mt.is_feasible()) << sim::to_string(shape);
  }
}

TEST(HostileGenerator, ShapesDeliverTheirHostility) {
  const auto tied = sim::hostile_single_task(9, sim::HostileShape::kTiedCosts, 29);
  for (const auto& bid : tied.bids) {
    EXPECT_EQ(bid.cost, tied.bids.front().cost);
  }

  const auto zero_tail = sim::hostile_single_task(12, sim::HostileShape::kZeroPosTail, 29);
  std::size_t zeros = 0;
  for (const auto& bid : zero_tail.bids) {
    zeros += bid.pos == 0.0 ? 1 : 0;
  }
  EXPECT_EQ(zeros, 4u) << "the last third declares PoS 0";

  const auto mixed = sim::hostile_single_task(12, sim::HostileShape::kMixedMagnitude, 29);
  double lo = mixed.bids.front().cost;
  double hi = lo;
  for (const auto& bid : mixed.bids) {
    lo = std::min(lo, bid.cost);
    hi = std::max(hi, bid.cost);
  }
  EXPECT_GT(hi / lo, 100.0) << "costs should span magnitudes";
}

TEST(ReputationFeedback, RoundsAreDeterministicAndObserved) {
  const auto truth = sim::hostile_multi_task(10, 3, sim::HostileShape::kRandom, 31);
  sim::FeedbackConfig config;
  config.rounds = 6;
  config.seed = 77;

  std::size_t observations = 0;
  const auto no_prior = sim::PriorWeightFn{};
  const auto rounds_a = sim::run_reputation_feedback(
      truth, truth, config, no_prior,
      [&](auction::UserId, double declared, bool) {
        ++observations;
        EXPECT_GT(declared, 0.0);
      });
  const auto rounds_b =
      sim::run_reputation_feedback(truth, truth, config, no_prior, sim::RoundObservation{});
  ASSERT_EQ(rounds_a.size(), 6u);
  ASSERT_EQ(rounds_b.size(), 6u);
  std::size_t winner_slots = 0;
  for (std::size_t r = 0; r < rounds_a.size(); ++r) {
    EXPECT_EQ(rounds_a[r].winners, rounds_b[r].winners) << "round " << r;
    EXPECT_EQ(rounds_a[r].winner_success, rounds_b[r].winner_success) << "round " << r;
    EXPECT_EQ(rounds_a[r].total_cost, rounds_b[r].total_cost) << "round " << r;
    winner_slots += rounds_a[r].winners.size();
  }
  EXPECT_EQ(observations, winner_slots) << "one observation per winner per round";
}

TEST(ReputationFeedback, TrackerDownWeightsOverclaimers) {
  // User 0 inflates every declared PoS; the tracker's weight should fall
  // below 1 for her and stay 1 for honest users, and the weighted instance
  // should shrink exactly her declared contribution.
  const auto truth = sim::hostile_multi_task(10, 3, sim::HostileShape::kRandom, 37);
  auto declared = truth;
  declared = declared.with_declared_total_contribution(
      0, 4.0 * truth.users[0].total_contribution());

  platform::ReputationTracker tracker;
  sim::FeedbackConfig config;
  config.rounds = 24;
  config.seed = 5;
  const auto prior = [&](auction::UserId user) {
    return platform::reputation_weight(tracker.record_of(static_cast<trace::TaxiId>(user)));
  };
  const auto observe = [&](auction::UserId user, double declared_pos, bool succeeded) {
    tracker.record(static_cast<trace::TaxiId>(user), declared_pos, succeeded);
  };
  const auto rounds = sim::run_reputation_feedback(truth, declared, config, prior, observe);
  ASSERT_EQ(rounds.size(), 24u);

  const auto record = tracker.record_of(0);
  ASSERT_GT(record.rounds, 0u) << "the inflated declaration should win rounds";
  EXPECT_LT(platform::reputation_weight(record), 1.0)
      << "z=" << record.z_score() << " rounds=" << record.rounds;
  EXPECT_LT(record.z_score(), 0.0) << "realized lags the inflated declaration";

  // Round-trip: checkpointing the ledger through restore() preserves the
  // weight bit for bit.
  platform::ReputationTracker restored;
  for (const auto& [taxi, rec] : tracker.records()) {
    restored.restore(taxi, rec);
  }
  EXPECT_EQ(platform::reputation_weight(restored.record_of(0)),
            platform::reputation_weight(record));
}

TEST(ReputationFeedback, WeightScalingShrinksContributions) {
  const auto truth = sim::hostile_multi_task(9, 3, sim::HostileShape::kRandom, 41);
  std::vector<double> weights(9, 1.0);
  weights[2] = 0.5;
  const auto weighted = sim::scale_declared_contributions(truth, weights);
  EXPECT_NEAR(weighted.users[2].total_contribution(),
              0.5 * truth.users[2].total_contribution(), 1e-9);
  for (std::size_t u = 0; u < truth.users.size(); ++u) {
    if (u != 2) {
      EXPECT_EQ(weighted.users[u].pos, truth.users[u].pos) << "user " << u;
    }
  }
  EXPECT_THROW(
      sim::scale_declared_contributions(truth, std::vector<double>(9, 1.5)),
      common::PreconditionError);
}

TEST(QuickSweep, RunsCleanOnEveryAxis) {
  const auto result = harness::run_adversarial_sweep(harness::quick_sweep_config());
  EXPECT_EQ(result.fast_oracle_mismatches, 0u);
  EXPECT_EQ(result.truthful_sp_violations, 0u);
  EXPECT_EQ(result.truthful_ir_violations, 0u);
  EXPECT_GT(result.auctions_run, 0u);
  ASSERT_FALSE(result.single_task.empty());
  ASSERT_FALSE(result.multi_task.empty());
  ASSERT_FALSE(result.failures.empty());
  ASSERT_FALSE(result.collusion.empty());

  // The ε = 0 baseline rows are the theorem pins: exact SP and IR.
  EXPECT_EQ(result.single_task.front().epsilon, 0.0);
  EXPECT_EQ(result.single_task.front().sp_violations, 0u);
  EXPECT_EQ(result.single_task.front().ir_violations, 0u);
  EXPECT_EQ(result.multi_task.front().sp_violations, 0u);
  EXPECT_EQ(result.multi_task.front().ir_violations, 0u);
  EXPECT_LE(result.single_task.front().max_envelope_excess, 1e-5);
  EXPECT_LE(result.multi_task.front().max_envelope_excess, 1e-5);

  // p = 0 weather rows keep full coverage; the p > 0 row realizes events.
  EXPECT_EQ(result.failures.front().event_prob, 0.0);
  EXPECT_EQ(result.failures.front().events, 0u);
  EXPECT_NEAR(result.failures.front().requirement_hit_rate, 1.0, 1e-9);
  EXPECT_GT(result.failures.back().events, 0u);
}

}  // namespace
}  // namespace mcs
