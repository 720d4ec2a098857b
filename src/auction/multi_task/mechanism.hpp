// Facade of the complete multi-task single-minded mechanism M = (A, R):
// greedy winner determination (Algorithm 4) plus the per-iteration
// critical-bid execution-contingent reward scheme (Algorithm 5). A winner is
// paid reward.on_success() when she completes ANY task from her set and
// reward.on_failure() when she completes none (the single-minded EC rule of
// Section III-C).
#pragma once

#include "auction/multi_task/reward.hpp"

namespace mcs::auction::multi_task {

/// Runs the full strategy-proof multi-task mechanism. Reads config.alpha,
/// config.multi_task.*, and the reward-parallelism fields. For infeasible
/// instances the allocation is infeasible and no rewards are issued. Builds
/// the instance's view and runs the view entry below on it.
MechanismOutcome run_mechanism(const MultiTaskInstance& instance,
                               const auction::MechanismConfig& config = {});

/// The same mechanism on a view the caller built (e.g. with
/// MultiTaskView::from_slice); bit-identical to the instance entry on the
/// instance the view was built from. The time budget and the telemetry's
/// winner-determination time start after the build. Requires
/// config.multi_task.masked_rewards: the unmasked oracle re-solves instance
/// copies, so it runs through the instance entry only.
MechanismOutcome run_mechanism(const MultiTaskView& view,
                               const auction::MechanismConfig& config = {});

}  // namespace mcs::auction::multi_task
