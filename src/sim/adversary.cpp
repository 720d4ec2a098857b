#include "sim/adversary.hpp"

#include <algorithm>
#include <cmath>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "sim/metrics.hpp"

namespace mcs::sim {

namespace {

// SplitMix64 finalizer — the same pure-coordinate hashing discipline
// common::FaultInjector uses, so attack streams replay bit-for-bit
// independent of thread interleaving or materialization order.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t chain(std::uint64_t h, std::uint64_t v) { return mix(h ^ mix(v)); }

void check_members(std::size_t num_users, const std::vector<auction::UserId>& members) {
  MCS_EXPECTS(!members.empty(), "a coalition needs at least one member");
  for (std::size_t i = 0; i < members.size(); ++i) {
    MCS_EXPECTS(members[i] >= 0 && static_cast<std::size_t>(members[i]) < num_users,
                "coalition member out of range");
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      MCS_EXPECTS(members[i] != members[j], "coalition members must be distinct");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Pure attack streams
// ---------------------------------------------------------------------------

common::Rng attack_stream(std::uint64_t seed, AttackAxis axis, std::uint64_t round) {
  return common::Rng(chain(chain(mix(seed), static_cast<std::uint64_t>(axis)), round));
}

common::Rng attack_user_stream(std::uint64_t seed, AttackAxis axis, std::uint64_t round,
                               auction::UserId user) {
  const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(user));
  return common::Rng(
      chain(chain(chain(mix(seed), static_cast<std::uint64_t>(axis)), round), u));
}

// ---------------------------------------------------------------------------
// Attack configuration & per-round schedule
// ---------------------------------------------------------------------------

void AttackConfig::validate() const {
  privacy.validate();
  MCS_EXPECTS(cell_failures.event_prob >= 0.0 && cell_failures.event_prob < 1.0,
              "cell-failure event probability must lie in [0, 1)");
  if (cell_failures.event_prob > 0.0) {
    MCS_EXPECTS(!cell_failures.cells.empty(),
                "a positive event probability needs candidate cells");
  }
}

AttackSchedule make_attack_schedule(const AttackConfig& config, std::size_t rounds) {
  config.validate();
  AttackSchedule schedule;
  schedule.seed = config.seed;
  schedule.events.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    auto rng = attack_stream(config.seed, AttackAxis::kCellFailure, r);
    schedule.events.push_back(draw_cell_failure(config.cell_failures, rng));
  }
  return schedule;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> schedule_fail_at(
    const AttackSchedule& schedule, const std::function<std::size_t(geo::CellId)>& shard_of) {
  MCS_EXPECTS(static_cast<bool>(shard_of), "schedule_fail_at needs a shard map");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fail_at;
  for (std::size_t r = 0; r < schedule.events.size(); ++r) {
    const auto& event = schedule.events[r];
    if (event.occurred) {
      fail_at.emplace_back(static_cast<std::uint64_t>(r),
                           static_cast<std::uint64_t>(shard_of(event.cell)));
    }
  }
  return fail_at;
}

common::Rng report_stream(const AttackConfig& config, std::uint64_t round,
                          auction::UserId user) {
  return attack_user_stream(config.seed, AttackAxis::kPrivacy, round, user);
}

auction::SingleTaskInstance noised_reports(const AttackConfig& config,
                                           const auction::SingleTaskInstance& instance,
                                           std::uint64_t round) {
  config.validate();
  auction::SingleTaskInstance noised = instance;
  if (!config.privacy.enabled()) {
    return noised;
  }
  for (std::size_t u = 0; u < noised.bids.size(); ++u) {
    auto rng = report_stream(config, round, static_cast<auction::UserId>(u));
    noised.bids[u].pos = privatize_pos(noised.bids[u].pos, config.privacy, rng);
  }
  return noised;
}

auction::MultiTaskInstance noised_reports(const AttackConfig& config,
                                          const auction::MultiTaskInstance& instance,
                                          std::uint64_t round) {
  config.validate();
  auction::MultiTaskInstance noised = instance;
  if (!config.privacy.enabled()) {
    return noised;
  }
  for (std::size_t u = 0; u < noised.users.size(); ++u) {
    auto rng = report_stream(config, round, static_cast<auction::UserId>(u));
    for (auto& pos : noised.users[u].pos) {
      pos = privatize_pos(pos, config.privacy, rng);
    }
  }
  return noised;
}

// ---------------------------------------------------------------------------
// Sybil probes
// ---------------------------------------------------------------------------

namespace {

double split_pos(double pos, std::size_t clones) {
  const double q = common::contribution_from_pos(pos);
  return common::pos_from_contribution(q / static_cast<double>(clones));
}

}  // namespace

SingleTaskSybilSplit split_identity(const auction::SingleTaskInstance& instance,
                                    auction::UserId user, std::size_t clones) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < instance.num_users(),
              "sybil target out of range");
  MCS_EXPECTS(clones >= 2, "an identity split needs at least 2 clones");
  SingleTaskSybilSplit split;
  split.instance = instance;
  const auction::SingleTaskBid clone{instance.bids[user].cost / static_cast<double>(clones),
                                     split_pos(instance.bids[user].pos, clones)};
  split.instance.bids[user] = clone;
  split.identities.push_back(user);
  for (std::size_t k = 1; k < clones; ++k) {
    split.identities.push_back(static_cast<auction::UserId>(split.instance.bids.size()));
    split.instance.bids.push_back(clone);
  }
  return split;
}

MultiTaskSybilSplit split_identity(const auction::MultiTaskInstance& instance,
                                   auction::UserId user, std::size_t clones) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < instance.num_users(),
              "sybil target out of range");
  MCS_EXPECTS(clones >= 2, "an identity split needs at least 2 clones");
  MultiTaskSybilSplit split;
  split.instance = instance;
  auction::MultiTaskUserBid clone = instance.users[user];
  clone.cost /= static_cast<double>(clones);
  for (auto& pos : clone.pos) {
    pos = split_pos(pos, clones);
  }
  split.instance.users[user] = clone;
  split.identities.push_back(user);
  for (std::size_t k = 1; k < clones; ++k) {
    split.identities.push_back(static_cast<auction::UserId>(split.instance.users.size()));
    split.instance.users.push_back(clone);
  }
  return split;
}

DeviationProbe probe_sybil_split(const auction::SingleTaskInstance& truth,
                                 auction::UserId user, std::size_t clones,
                                 const auction::MechanismConfig& config, double tolerance) {
  DeviationProbe probe;
  const auto honest = auction::single_task::run_mechanism(truth, config);
  probe.truthful_utility = expected_utility_of(truth, honest, user);
  const auto split = split_identity(truth, user, clones);
  const auto attacked = auction::single_task::run_mechanism(split.instance, config);
  for (const auto id : split.identities) {
    probe.deviated_utility += expected_utility_of(split.instance, attacked, id);
  }
  probe.gain = probe.deviated_utility - probe.truthful_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

DeviationProbe probe_sybil_split(const auction::MultiTaskInstance& truth,
                                 auction::UserId user, std::size_t clones,
                                 const auction::MechanismConfig& config, double tolerance) {
  DeviationProbe probe;
  const auto honest = auction::multi_task::run_mechanism(truth, config);
  probe.truthful_utility = expected_utility_of(truth, honest, user);
  const auto split = split_identity(truth, user, clones);
  const auto attacked = auction::multi_task::run_mechanism(split.instance, config);
  for (const auto id : split.identities) {
    probe.deviated_utility += expected_utility_of(split.instance, attacked, id);
  }
  probe.gain = probe.deviated_utility - probe.truthful_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

// ---------------------------------------------------------------------------
// Coalition probes
// ---------------------------------------------------------------------------

double joint_expected_utility(const auction::SingleTaskInstance& truth,
                              const auction::SingleTaskInstance& declared,
                              std::span<const auction::UserId> members,
                              const auction::MechanismConfig& config) {
  MCS_EXPECTS(truth.num_users() == declared.num_users(),
              "truth and declared instances must have the same users");
  const auto outcome = auction::single_task::run_mechanism(declared, config);
  double joint = 0.0;
  for (const auto member : members) {
    joint += expected_utility_of(truth, outcome, member);
  }
  return joint;
}

double joint_expected_utility(const auction::MultiTaskInstance& truth,
                              const auction::MultiTaskInstance& declared,
                              std::span<const auction::UserId> members,
                              const auction::MechanismConfig& config) {
  MCS_EXPECTS(truth.num_users() == declared.num_users(),
              "truth and declared instances must have the same users");
  const auto outcome = auction::multi_task::run_mechanism(declared, config);
  double joint = 0.0;
  for (const auto member : members) {
    joint += expected_utility_of(truth, outcome, member);
  }
  return joint;
}

CoalitionProbe probe_coalition_shading(const auction::SingleTaskInstance& truth,
                                       std::vector<auction::UserId> members,
                                       std::span<const double> shade_grid,
                                       const auction::MechanismConfig& config,
                                       double tolerance) {
  check_members(truth.num_users(), members);
  CoalitionProbe probe;
  probe.members = std::move(members);
  probe.truthful_joint_utility =
      joint_expected_utility(truth, truth, probe.members, config);
  probe.best_joint_utility = probe.truthful_joint_utility;
  for (const double shade : shade_grid) {
    MCS_EXPECTS(shade > 0.0, "coalition shades must be positive");
    auction::SingleTaskInstance declared = truth;
    for (const auto member : probe.members) {
      declared = declared.with_declared_contribution(member,
                                                     shade * truth.contribution(member));
    }
    const double joint = joint_expected_utility(truth, declared, probe.members, config);
    if (joint > probe.best_joint_utility) {
      probe.best_joint_utility = joint;
      probe.best_shade = shade;
    }
  }
  probe.gain = probe.best_joint_utility - probe.truthful_joint_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

CoalitionProbe probe_coalition_shading(const auction::MultiTaskInstance& truth,
                                       std::vector<auction::UserId> members,
                                       std::span<const double> shade_grid,
                                       const auction::MechanismConfig& config,
                                       double tolerance) {
  check_members(truth.num_users(), members);
  CoalitionProbe probe;
  probe.members = std::move(members);
  probe.truthful_joint_utility =
      joint_expected_utility(truth, truth, probe.members, config);
  probe.best_joint_utility = probe.truthful_joint_utility;
  for (const double shade : shade_grid) {
    MCS_EXPECTS(shade > 0.0, "coalition shades must be positive");
    auction::MultiTaskInstance declared = truth;
    for (const auto member : probe.members) {
      declared = declared.with_declared_total_contribution(
          member, shade * truth.users[member].total_contribution());
    }
    const double joint = joint_expected_utility(truth, declared, probe.members, config);
    if (joint > probe.best_joint_utility) {
      probe.best_joint_utility = joint;
      probe.best_shade = shade;
    }
  }
  probe.gain = probe.best_joint_utility - probe.truthful_joint_utility;
  probe.profitable = probe.gain > tolerance;
  return probe;
}

// ---------------------------------------------------------------------------
// Reputation-weighted feedback loop
// ---------------------------------------------------------------------------

auction::MultiTaskInstance scale_declared_contributions(
    const auction::MultiTaskInstance& declared, std::span<const double> weights) {
  MCS_EXPECTS(weights.size() == declared.num_users(),
              "one prior weight per user is required");
  auction::MultiTaskInstance weighted = declared;
  for (std::size_t u = 0; u < weighted.users.size(); ++u) {
    const double w = weights[u];
    MCS_EXPECTS(w > 0.0 && w <= 1.0, "prior weights must lie in (0, 1]");
    if (w == 1.0) {
      continue;
    }
    for (auto& pos : weighted.users[u].pos) {
      pos = common::pos_from_contribution(w * common::contribution_from_pos(pos));
    }
  }
  return weighted;
}

std::vector<FeedbackRound> run_reputation_feedback(const auction::MultiTaskInstance& truth,
                                                   const auction::MultiTaskInstance& declared,
                                                   const FeedbackConfig& config,
                                                   const PriorWeightFn& prior,
                                                   const RoundObservation& observe) {
  MCS_EXPECTS(truth.num_users() == declared.num_users() &&
                  truth.num_tasks() == declared.num_tasks(),
              "truth and declared instances must have the same shape");
  std::vector<FeedbackRound> rounds;
  rounds.reserve(config.rounds);
  for (std::size_t r = 0; r < config.rounds; ++r) {
    std::vector<double> weights(declared.num_users(), 1.0);
    if (prior) {
      for (std::size_t u = 0; u < weights.size(); ++u) {
        weights[u] = prior(static_cast<auction::UserId>(u));
      }
    }
    const auto weighted = scale_declared_contributions(declared, weights);
    const auto outcome = auction::multi_task::run_mechanism(weighted, config.mechanism);

    FeedbackRound row;
    row.round = r;
    row.feasible = outcome.allocation.feasible;
    row.winners = outcome.allocation.winners;
    row.total_cost = outcome.allocation.total_cost;
    // Execution realizes from the TRUE types on the round's pure stream —
    // winners ascending, one bernoulli each, so the draw order is fixed.
    auto rng = attack_stream(config.seed, AttackAxis::kReputation, r);
    row.winner_success.reserve(row.winners.size());
    for (const auto winner : row.winners) {
      const bool success = rng.bernoulli(truth.users[winner].any_success_probability());
      row.winner_success.push_back(success);
      if (observe) {
        observe(winner, declared.users[winner].any_success_probability(), success);
      }
    }
    rounds.push_back(std::move(row));
  }
  return rounds;
}

// ---------------------------------------------------------------------------
// Hostile instance generator
// ---------------------------------------------------------------------------

const char* to_string(HostileShape shape) {
  switch (shape) {
    case HostileShape::kRandom:
      return "random";
    case HostileShape::kTiedCosts:
      return "tied-costs";
    case HostileShape::kNearBoundary:
      return "near-boundary";
    case HostileShape::kZeroPosTail:
      return "zero-pos-tail";
    case HostileShape::kMixedMagnitude:
      return "mixed-magnitude";
  }
  return "unknown";
}

namespace {

common::Rng shape_stream(std::uint64_t seed, HostileShape shape, std::uint64_t salt) {
  return attack_stream(seed, AttackAxis::kInstance,
                       chain(static_cast<std::uint64_t>(shape), salt));
}

double shaped_cost(HostileShape shape, common::Rng& rng) {
  switch (shape) {
    case HostileShape::kTiedCosts:
      return 5.0;
    case HostileShape::kMixedMagnitude:
      return std::pow(10.0, rng.uniform(-3.0, 3.0));
    default:
      return rng.uniform(1.0, 10.0);
  }
}

/// Fraction of the population's total contribution the requirement demands;
/// kNearBoundary pins it at 95% so the noised/shaded instance teeters on
/// infeasibility.
double coverage_fraction(HostileShape shape, common::Rng& rng) {
  return shape == HostileShape::kNearBoundary ? 0.95 : rng.uniform(0.3, 0.7);
}

bool in_zero_tail(HostileShape shape, std::size_t user, std::size_t users) {
  return shape == HostileShape::kZeroPosTail && user >= (2 * users) / 3;
}

}  // namespace

auction::SingleTaskInstance hostile_single_task(std::size_t users, HostileShape shape,
                                                std::uint64_t seed) {
  MCS_EXPECTS(users >= 3, "hostile instances need at least 3 users");
  auto rng = shape_stream(seed, shape, users);
  auction::SingleTaskInstance instance;
  instance.bids.reserve(users);
  double total_q = 0.0;
  for (std::size_t u = 0; u < users; ++u) {
    auction::SingleTaskBid bid;
    bid.cost = shaped_cost(shape, rng);
    bid.pos = in_zero_tail(shape, u, users) ? 0.0 : rng.uniform(0.05, 0.6);
    total_q += common::contribution_from_pos(bid.pos);
    instance.bids.push_back(bid);
  }
  instance.requirement_pos =
      common::pos_from_contribution(coverage_fraction(shape, rng) * total_q);
  instance.validate();
  return instance;
}

auction::MultiTaskInstance hostile_multi_task(std::size_t users, std::size_t tasks,
                                              HostileShape shape, std::uint64_t seed) {
  MCS_EXPECTS(users >= 3 && tasks >= 1, "hostile instances need >= 3 users and a task");
  // Users 0..t-1 seed one task each so every task has a non-zero contributor
  // even under kZeroPosTail (the tail is the LAST third of the users).
  MCS_EXPECTS(tasks <= (2 * users) / 3,
              "hostile multi-task instances need tasks <= 2/3 of the users");
  auto rng = shape_stream(seed, shape, chain(users, tasks));
  auction::MultiTaskInstance instance;
  instance.users.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    auction::MultiTaskUserBid bid;
    bid.cost = shaped_cost(shape, rng);
    const auto first = static_cast<auction::TaskIndex>(u % tasks);
    bid.tasks.push_back(first);
    const auto extra = static_cast<std::size_t>(
        rng.uniform_int(0, std::min<std::int64_t>(2, static_cast<std::int64_t>(tasks) - 1)));
    for (std::size_t e = 0; e < extra; ++e) {
      const auto task = static_cast<auction::TaskIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(tasks) - 1));
      if (std::find(bid.tasks.begin(), bid.tasks.end(), task) == bid.tasks.end()) {
        bid.tasks.push_back(task);
      }
    }
    std::sort(bid.tasks.begin(), bid.tasks.end());
    const bool zero = in_zero_tail(shape, u, users);
    bid.pos.reserve(bid.tasks.size());
    for (std::size_t j = 0; j < bid.tasks.size(); ++j) {
      bid.pos.push_back(zero ? 0.0 : rng.uniform(0.05, 0.5));
    }
    instance.users.push_back(std::move(bid));
  }
  instance.requirement_pos.resize(tasks);
  std::vector<auction::UserId> everyone(users);
  for (std::size_t u = 0; u < users; ++u) {
    everyone[u] = static_cast<auction::UserId>(u);
  }
  for (std::size_t j = 0; j < tasks; ++j) {
    const double total =
        instance.achieved_contribution(everyone, static_cast<auction::TaskIndex>(j));
    instance.requirement_pos[j] =
        common::pos_from_contribution(coverage_fraction(shape, rng) * total);
  }
  instance.validate();
  return instance;
}

}  // namespace mcs::sim
