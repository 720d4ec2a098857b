#include "auction/single_task/mechanism.hpp"

#include "auction/columns.hpp"
#include "auction/single_task/fptas.hpp"
#include "auction/single_task/min_greedy.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::single_task {

namespace {

MechanismOutcome run_with_rule(const SingleTaskInstance& instance,
                               const auction::MechanismConfig& config, WinnerRule rule,
                               const common::Deadline& deadline) {
  const bool telemetry = obs::enabled();
  MechanismOutcome outcome;
  outcome.telemetry.enabled = telemetry;
  outcome.degraded = rule == WinnerRule::kMinGreedy;
  if (telemetry && outcome.degraded) {
    outcome.telemetry.degraded_events = 1;
  }
  // One SoA snapshot of the bids for the whole run: winner determination and
  // every winner's critical-bid search read the same flat columns.
  const BidColumns columns = instance.make_columns();
  {
    const obs::PhaseTimer timer(telemetry);
    obs::PhaseCounters* counters = telemetry ? &outcome.telemetry.winner_determination : nullptr;
    outcome.allocation =
        rule == WinnerRule::kMinGreedy
            ? solve_min_greedy(instance, columns, deadline, counters)
            : solve_fptas(instance, columns, config.single_task.epsilon, deadline, counters);
    if (telemetry) {
      outcome.telemetry.winner_determination_seconds = timer.seconds();
    }
  }
  if (!outcome.allocation.feasible) {
    return outcome;
  }
  const RewardOptions reward_options{
      .alpha = config.alpha,
      .epsilon = config.single_task.epsilon,
      .binary_search_iterations = config.single_task.binary_search_iterations,
      .winner_rule = rule,
      .deadline = deadline,
      .columns = &columns};
  const auto& winners = outcome.allocation.winners;
  const obs::PhaseTimer reward_timer(telemetry);
  // With telemetry on, each winner's reward computation counts into its own
  // block; merging in index order afterwards keeps the totals deterministic
  // regardless of how parallel_map schedules the slots. Off, no block exists
  // and every slot counts into nullptr.
  std::vector<obs::PhaseCounters> per_winner(telemetry ? winners.size() : 0);
  outcome.rewards = common::parallel_map<WinnerReward>(
      winners.size(),
      [&](std::size_t index) {
        RewardOptions slot_options = reward_options;
        slot_options.counters = telemetry ? &per_winner[index] : nullptr;
        return compute_reward(instance, winners[index], slot_options);
      },
      config.reward_worker_budget());
  if (telemetry) {
    for (const obs::PhaseCounters& block : per_winner) {
      outcome.telemetry.rewards += block;
    }
    outcome.telemetry.rewards_seconds = reward_timer.seconds();
  }
  return outcome;
}

}  // namespace

MechanismOutcome run_mechanism(const SingleTaskInstance& instance,
                               const auction::MechanismConfig& config) {
  MCS_EXPECTS(config.single_task.epsilon > 0.0, "approximation parameter must be positive");
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");

  const auto deadline = common::Deadline::from_budget(config.time_budget_seconds);
  if (deadline.is_unlimited() || !config.degrade_on_timeout) {
    return run_with_rule(instance, config, WinnerRule::kFptas, deadline);
  }
  try {
    return run_with_rule(instance, config, WinnerRule::kFptas, deadline);
  } catch (const common::DeadlineExceeded&) {
    // Degradation ladder: the (1+ε) FPTAS blew its budget, so rerun under
    // the 2-approx Min-Greedy rule (allocation AND critical bids — the
    // reward must replay the rule that selected the winners) with a fresh
    // budget. A second expiry propagates to the engine as a timeout.
    return run_with_rule(instance, config, WinnerRule::kMinGreedy,
                         common::Deadline::from_budget(config.time_budget_seconds));
  }
}

}  // namespace mcs::auction::single_task
