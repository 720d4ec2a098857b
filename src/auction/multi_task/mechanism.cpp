#include "auction/multi_task/mechanism.hpp"

#include "auction/multi_task/greedy.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::multi_task {

namespace {

/// The mechanism on a built view. `instance` is the view's source, needed
/// only by the unmasked reward oracle; null when the caller has no instance.
MechanismOutcome run_on_view(const MultiTaskView& view, const MultiTaskInstance* instance,
                             const auction::MechanismConfig& config) {
  MCS_EXPECTS(config.alpha > 0.0, "reward scaling factor must be positive");
  MCS_EXPECTS(instance != nullptr || config.multi_task.masked_rewards,
              "unmasked critical-bid re-solves need the instance, not only its view");

  const bool telemetry = obs::enabled();
  const auto deadline = common::Deadline::from_budget(config.time_budget_seconds);
  MechanismOutcome outcome;
  outcome.telemetry.enabled = telemetry;
  const obs::PhaseTimer wd_timer(telemetry);
  // One CSR view serves winner determination AND every critical-bid probe
  // of every winner — the probes below only layer overlays on top of it.
  // The run records its residuals: each winner's without-i run resumes from
  // it at the step that picked her, and the replay probes read its steps.
  const auto greedy = solve_greedy(
      view, ViewOverlay::none(),
      GreedyOptions{.deadline = deadline,
                    .keep_partial = config.multi_task.partial_coverage,
                    .algorithm = config.multi_task.winner_determination,
                    .record_residuals = true,
                    .counters = telemetry ? &outcome.telemetry.winner_determination : nullptr});
  if (telemetry) {
    outcome.telemetry.winner_determination_seconds = wd_timer.seconds();
  }
  outcome.allocation = greedy.allocation;
  if (!outcome.allocation.feasible) {
    // Partial coverage (when enabled): report what WAS covered — the winner
    // prefix and the uncovered task set — but pay no rewards; a partial
    // cover has no critical bids, so any payment rule would be gameable.
    outcome.uncovered_tasks = greedy.uncovered_tasks;
    outcome.degraded = !outcome.allocation.winners.empty() || greedy.timed_out;
    if (telemetry && outcome.degraded) {
      outcome.telemetry.degraded_events = 1;
    }
    return outcome;
  }
  const RewardOptions reward_options{.alpha = config.alpha,
                                     .rule = config.multi_task.critical_bid_rule,
                                     .deadline = deadline,
                                     .algorithm = config.multi_task.winner_determination,
                                     .masked_resolves = config.multi_task.masked_rewards,
                                     .winner_determination = &greedy};
  // Per-winner critical bids are independent; fan them out across the shared
  // pool (parallel_map assembles results in submission order, bit-identical
  // to the serial loop). Each probe polls the same deadline token, and every
  // worker reads the winner-determination run above, which outlives them.
  const auto& winners = outcome.allocation.winners;
  const obs::PhaseTimer reward_timer(telemetry);
  // With telemetry on, one counter block per winner, merged in index order
  // afterwards, so the totals are deterministic regardless of how
  // parallel_map schedules. Off, no block exists and every slot counts into
  // nullptr.
  std::vector<obs::PhaseCounters> per_winner(telemetry ? winners.size() : 0);
  outcome.rewards = common::parallel_map<WinnerReward>(
      winners.size(),
      [&](std::size_t index) {
        RewardOptions slot_options = reward_options;
        slot_options.counters = telemetry ? &per_winner[index] : nullptr;
        return config.multi_task.masked_rewards
                   ? compute_reward(view, winners[index], slot_options)
                   : compute_reward(*instance, winners[index], slot_options);
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

MechanismOutcome run_mechanism(const MultiTaskInstance& instance,
                               const auction::MechanismConfig& config) {
  return run_on_view(MultiTaskView::from_instance(instance), &instance, config);
}

MechanismOutcome run_mechanism(const MultiTaskView& view, const auction::MechanismConfig& config) {
  return run_on_view(view, nullptr, config);
}

}  // namespace mcs::auction::multi_task
