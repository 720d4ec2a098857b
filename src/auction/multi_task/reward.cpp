#include "auction/multi_task/reward.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "auction/multi_task/gain.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::multi_task {

namespace {

GreedyOptions probe_options(const RewardOptions& options) {
  if (options.counters != nullptr) {
    // Every probe_options() consumer is about to issue one greedy re-run.
    ++options.counters->probes;
  }
  return GreedyOptions{.deadline = options.deadline, .algorithm = options.algorithm,
                       .counters = options.counters};
}

/// A recorded-run replay is a probe too — counted at the call sites because
/// replay_wins itself stays allocation- and options-free.
void count_replay_probe(const RewardOptions& options) {
  if (options.counters != nullptr) {
    ++options.counters->probes;
  }
}

// ---------------------------------------------------------------------------
// Masked probes: one shared CSR view, per-probe overlays, zero copies.
// ---------------------------------------------------------------------------

/// The without-i run's iteration log, joined: the winner-determination
/// run's steps before i's pick, read in place, then the resumed run's own
/// steps. `rest` also carries the run's feasibility and allocation.
struct WithoutLog {
  std::span<const GreedyStep> prefix;
  GreedyResult rest;

  std::array<std::span<const GreedyStep>, 2> parts() const { return {prefix, rest.steps}; }
};

/// Winner i's without-i run, resumed from options.winner_determination at
/// the step that picked her when it is set, solved cold otherwise.
WithoutLog solve_without(const MultiTaskView& view, UserId winner, const RewardOptions& options,
                         bool record_residuals) {
  WithoutLog log;
  if (const GreedyResult* main = options.winner_determination; main != nullptr) {
    MCS_EXPECTS(main->allocation.feasible && !main->steps.empty() &&
                    std::ranges::equal(main->steps.front().residual_before,
                                       view.requirement_span()),
                "the winner-determination run must be a feasible run on the view, recorded "
                "with residuals");
    const auto picked = std::find_if(main->steps.begin(), main->steps.end(),
                                     [winner](const GreedyStep& step) {
                                       return step.selected == winner;
                                     });
    MCS_EXPECTS(picked != main->steps.end(), "the winner-determination run must pick the winner");
    log.prefix = {main->steps.data(), static_cast<std::size_t>(picked - main->steps.begin())};
  }
  auto greedy_options = probe_options(options);
  greedy_options.record_residuals = record_residuals;
  log.rest = solve_greedy(view, ViewOverlay::without(winner), greedy_options, log.prefix);
  return log;
}

/// Whether user i would enter the greedy cover when declaring
/// `declared_total`, answered by REPLAYING the recorded without-i run
/// instead of re-solving. The with-i greedy run picks exactly the without-i
/// run's users (same residual trajectory) until the first round where i tops
/// the argmax, so i wins iff some recorded round's winner is beaten by i's
/// ratio at that round's residuals — strict ratio comparison, lowest-id
/// tie-break, the reference scan's rule verbatim. All doubles involved are
/// the ones a full re-solve would compute, so the answer is bit-identical;
/// the cost is O(rounds · |S_i|) per probe instead of a full re-solve.
/// Precondition: `without` is a feasible run whose every step was recorded
/// with GreedyOptions::record_residuals (i's pivotality was already ruled
/// out) — feasibility with i present at any declaration follows, since the
/// other users alone cover the requirements.
bool replay_wins(const MultiTaskView& view, const WithoutLog& without, UserId user,
                 double declared_total) {
  const auto overlay = ViewOverlay::with_declared_total_contribution(view, user, declared_total);
  const auto tasks = view.user_tasks(user);
  const auto contributions = overlay.contributions_of(view, user);
  const double cost = view.costs[static_cast<std::size_t>(user)];
  for (const auto steps : without.parts()) {
    for (const auto& step : steps) {
      const double effective = effective_contribution(tasks, contributions, step.residual_before);
      if (effective <= 0.0) {
        // Residuals only shrink along the run, so a vanished gain never
        // recovers: i can no longer be selected in any later round.
        return false;
      }
      const double ratio = effective / cost;
      if (ratio > step.ratio || (ratio == step.ratio && user < step.selected)) {
        return true;
      }
    }
  }
  return false;
}

/// The paper's Algorithm 5: minimum over the without-i iterations of the
/// contribution needed to beat that iteration's winner ratio.
double iteration_min_critical(const MultiTaskView& view, UserId winner,
                              const RewardOptions& options) {
  const double cost_i = view.costs[static_cast<std::size_t>(winner)];
  const auto without = solve_without(view, winner, options, /*record_residuals=*/false);
  if (!without.rest.allocation.feasible) {
    // Winner is pivotal: with any positive declaration the greedy loop must
    // eventually select her, so her critical contribution vanishes.
    return 0.0;
  }
  // Masked runs keep original ids, so no reduced-id translation is needed.
  double critical = std::numeric_limits<double>::infinity();
  for (const auto steps : without.parts()) {
    for (const auto& step : steps) {
      const double cost_k = view.costs[static_cast<std::size_t>(step.selected)];
      // Σ_j min{Q̄_j, q_k^j} is recorded as the step's effective
      // contribution; beating user k's ratio requires contribution >=
      // c_i/c_k times it.
      critical = std::min(critical, (cost_i / cost_k) * step.effective_contribution);
    }
  }
  MCS_ENSURES(critical < std::numeric_limits<double>::infinity(),
              "a feasible without-i run must have at least one iteration");
  return critical;
}

/// Myerson-style rule: binary search for the smallest total declared
/// contribution (along the winner's own task-PoS direction) that still wins.
double binary_search_critical(const MultiTaskView& view, UserId winner,
                              const RewardOptions& options) {
  // ONE recorded without-i run powers every bisection probe below via
  // replay_wins — the reward phase's dominant cost drops from ~50 full
  // re-solves per winner to a single one, itself resumed mid-run when the
  // caller passed its winner-determination run.
  const auto without = solve_without(view, winner, options, /*record_residuals=*/true);
  if (!without.rest.allocation.feasible) {
    return 0.0;  // pivotal, as above
  }
  const double declared = view.total_contribution(winner);
  count_replay_probe(options);
  MCS_EXPECTS(replay_wins(view, without, winner, declared),
              "the binary-search critical bid is only defined for winners");
  count_replay_probe(options);
  if (replay_wins(view, without, winner, 0.0)) {
    return 0.0;
  }
  // Monotonicity (Lemma 2): wins(q) is a step function. Invariant: loses at
  // lo, wins at hi.
  double lo = 0.0;
  double hi = declared;
  for (int iter = 0; iter < options.binary_search_iterations; ++iter) {
    options.deadline.check("multi-task critical-bid search");
    if (options.counters != nullptr) {
      ++options.counters->deadline_polls;
      ++options.counters->bisection_steps;
    }
    const double mid = 0.5 * (lo + hi);
    count_replay_probe(options);
    if (replay_wins(view, without, winner, mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// ---------------------------------------------------------------------------
// Legacy copied-instance probes (masked_resolves = false): one O(n·t)
// MultiTaskInstance materialization per probe. Kept as the bit-identical
// oracle for the equivalence suite and as the benchmark baseline.
// ---------------------------------------------------------------------------

bool wins_with_total_contribution_copied(const MultiTaskInstance& instance, UserId user,
                                         double declared_total, const RewardOptions& options) {
  const auto result = solve_greedy(instance.with_declared_total_contribution(user, declared_total),
                                   probe_options(options));
  return result.allocation.feasible && result.allocation.contains(user);
}

double iteration_min_critical_copied(const MultiTaskInstance& instance, UserId winner,
                                     const RewardOptions& options) {
  const double cost_i = instance.users[static_cast<std::size_t>(winner)].cost;
  const auto without = solve_greedy(instance.without_user(winner), probe_options(options));
  if (!without.allocation.feasible) {
    return 0.0;
  }
  // Ids in the reduced instance at or above `winner` are shifted down by one.
  const auto original_id = [&](UserId reduced) {
    return reduced >= winner ? reduced + 1 : reduced;
  };
  double critical = std::numeric_limits<double>::infinity();
  for (const auto& step : without.steps) {
    const UserId k = original_id(step.selected);
    const double cost_k = instance.users[static_cast<std::size_t>(k)].cost;
    critical = std::min(critical, (cost_i / cost_k) * step.effective_contribution);
  }
  MCS_ENSURES(critical < std::numeric_limits<double>::infinity(),
              "a feasible without-i run must have at least one iteration");
  return critical;
}

double binary_search_critical_copied(const MultiTaskInstance& instance, UserId winner,
                                     const RewardOptions& options) {
  if (!solve_greedy(instance.without_user(winner), probe_options(options))
           .allocation.feasible) {
    return 0.0;
  }
  const double declared = instance.users[static_cast<std::size_t>(winner)].total_contribution();
  MCS_EXPECTS(wins_with_total_contribution_copied(instance, winner, declared, options),
              "the binary-search critical bid is only defined for winners");
  if (wins_with_total_contribution_copied(instance, winner, 0.0, options)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = declared;
  for (int iter = 0; iter < options.binary_search_iterations; ++iter) {
    options.deadline.check("multi-task critical-bid search");
    if (options.counters != nullptr) {
      ++options.counters->deadline_polls;
      ++options.counters->bisection_steps;
    }
    const double mid = 0.5 * (lo + hi);
    if (wins_with_total_contribution_copied(instance, winner, mid, options)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

void check_reward_inputs(std::size_t num_users, UserId winner, const RewardOptions& options) {
  MCS_EXPECTS(winner >= 0 && static_cast<std::size_t>(winner) < num_users,
              "user id out of range");
  MCS_EXPECTS(options.binary_search_iterations > 0, "need at least one bisection step");
}

WinnerReward assemble_reward(UserId winner, double cost, double critical,
                             const RewardOptions& options) {
  WinnerReward result;
  result.user = winner;
  result.critical_contribution = critical;
  result.reward.critical_pos = common::pos_from_contribution(critical);
  result.reward.cost = cost;
  result.reward.alpha = options.alpha;
  return result;
}

}  // namespace

double critical_contribution(const MultiTaskInstance& instance, UserId winner,
                             const RewardOptions& options) {
  check_reward_inputs(instance.num_users(), winner, options);
  if (options.masked_resolves) {
    return critical_contribution(MultiTaskView::from_instance(instance), winner, options);
  }
  switch (options.rule) {
    case CriticalBidRule::kPaperIterationMin:
      return iteration_min_critical_copied(instance, winner, options);
    case CriticalBidRule::kBinarySearch:
      return binary_search_critical_copied(instance, winner, options);
  }
  throw common::PreconditionError("unknown critical-bid rule");
}

double critical_contribution(const MultiTaskView& view, UserId winner,
                             const RewardOptions& options) {
  check_reward_inputs(view.num_users(), winner, options);
  switch (options.rule) {
    case CriticalBidRule::kPaperIterationMin:
      return iteration_min_critical(view, winner, options);
    case CriticalBidRule::kBinarySearch:
      return binary_search_critical(view, winner, options);
  }
  throw common::PreconditionError("unknown critical-bid rule");
}

WinnerReward compute_reward(const MultiTaskInstance& instance, UserId winner,
                            const RewardOptions& options) {
  MCS_EXPECTS(options.alpha > 0.0, "reward scaling factor must be positive");
  const double critical = critical_contribution(instance, winner, options);
  return assemble_reward(winner, instance.users[static_cast<std::size_t>(winner)].cost, critical,
                         options);
}

WinnerReward compute_reward(const MultiTaskView& view, UserId winner,
                            const RewardOptions& options) {
  MCS_EXPECTS(options.alpha > 0.0, "reward scaling factor must be positive");
  const double critical = critical_contribution(view, winner, options);
  return assemble_reward(winner, view.costs[static_cast<std::size_t>(winner)], critical, options);
}

}  // namespace mcs::auction::multi_task
