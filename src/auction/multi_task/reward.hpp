// Algorithm 5 of the paper: the reward scheme of the multi-task single-minded
// mechanism. For a winner i, the allocation algorithm is re-run without her;
// in each iteration (residuals Q̄, selected user k) the contribution i would
// have needed to beat k's ratio is (c_i / c_k)·Σ_j min{Q̄_j, q_k^j}. The
// minimum over all iterations is her critical contribution q̄_i, the critical
// PoS is p̄_i = 1 - e^{-q̄_i}, and the execution-contingent reward pays
//     any task completed: (1 - p̄_i)·α + c_i,   none completed: -p̄_i·α + c_i,
// giving expected utility (e^{-q̄_i} - e^{-Σ_j q_i^j})·α (Theorem 4).
//
// REPRODUCTION FINDING (see DESIGN.md §4 and tests/mt_reward_test.cpp): the
// paper's iteration-minimum UNDERSTATES the true win threshold — the
// without-i run keeps iterating past the point where the with-i run would
// have stopped, and those extra iterations have lower ratio bars. A loser
// whose total contribution exceeds that understated q̄ profits from inflating
// her declaration, breaking incentive compatibility. We therefore default to
// the Myerson-style rule: binary search (valid by Lemma 2's monotonicity)
// for the minimum total declared contribution with which the user actually
// wins, exactly as the single-task mechanism does. The paper-literal rule
// stays available for comparison.
//
// When the without-i run stalls (i is pivotal for feasibility) she would be
// selected eventually at any positive declaration, so her critical
// contribution is 0 under both rules.
//
// Probe cost: naively every rule re-runs the greedy cover dozens of times
// per winner. The default path instead needs ONE recorded without-i run per
// winner against the shared MultiTaskView (exclusion overlay, no O(n·t)
// instance copy) and answers each bisection probe by REPLAYING that log:
// the with-i run tracks the without-i run round for round until i first
// tops the argmax, so "does i win at declaration q" reduces to comparing
// i's ratio against each recorded round's winner at that round's residuals
// — O(rounds · |S_i|) per probe, bit-identical to a full re-solve (see
// DESIGN.md §8).
//
// Nor is that without-i run solved from scratch when the caller hands over
// its winner-determination run (RewardOptions::winner_determination, as the
// mechanism does). Up to the step that picked i, the without-i run IS that
// run: i was never the argmax before, so removing her changes no pick and
// no residual. The without-i log is therefore the winner-determination
// run's steps before i's pick, read in place, joined to a greedy run
// resumed from that state (solve_greedy with a prefix), bit-identical to
// the cold solve. Without the run, the prefix is empty: the same code, cold.
//
// RewardOptions::masked_resolves = false restores the legacy
// copied-instance full-re-solve probes, kept bit-identical as the
// equivalence oracle (asserted by tests/mt_lazy_equivalence_test.cpp).
#pragma once

#include "auction/instance.hpp"
#include "auction/multi_task/greedy.hpp"
#include "auction/multi_task/view.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::multi_task {

/// The rule enum lives in auction/types.hpp so the unified MechanismConfig
/// can carry it; this alias keeps the historical qualified name working.
using CriticalBidRule = auction::CriticalBidRule;

struct RewardOptions {
  double alpha = 10.0;  ///< reward scaling factor α (paper Table II)
  CriticalBidRule rule = CriticalBidRule::kBinarySearch;
  int binary_search_iterations = 48;  ///< ~1e-14 relative precision on q̄
  /// Cooperative wall-clock budget; polled once per bisection step and
  /// threaded into the greedy re-runs.
  common::Deadline deadline = {};
  /// Winner-determination algorithm used by the greedy probe re-runs.
  auction::GreedyAlgorithm algorithm = auction::GreedyAlgorithm::kLazy;
  /// Solve the probes through view overlays instead of materialized
  /// instance copies (instance-based entry points only; the view-based
  /// overloads are always masked). Both paths are bit-identical.
  bool masked_resolves = true;
  /// When non-null, accumulates probe / bisection / deadline-poll counts
  /// (and the probe solves' greedy rounds). The caller owns the block; under
  /// parallel rewards each worker slot must get its own (the mechanism
  /// facade merges them in index order).
  obs::PhaseCounters* counters = nullptr;
  /// The caller's own winner-determination run: on the same view, with no
  /// overlay, recorded with GreedyOptions::record_residuals. When set, each
  /// view probe resumes the without-i run at the step that picked the winner
  /// instead of solving it cold; the critical bid is bit-identical either
  /// way. Read-only, so concurrent reward workers share it. The copied-
  /// instance oracle (masked_resolves = false) ignores it.
  const GreedyResult* winner_determination = nullptr;
};

/// Critical contribution q̄_i of `winner` under the selected rule. For
/// kBinarySearch the caller must pass an actual winner (the search brackets
/// her truthful declaration); kPaperIterationMin accepts any user. The
/// instance must be valid.
double critical_contribution(const MultiTaskInstance& instance, UserId winner,
                             const RewardOptions& options = {});

/// Same, against a prebuilt view — the amortized path the mechanism uses so
/// n winners share one CSR build instead of paying n·probes instance copies.
double critical_contribution(const MultiTaskView& view, UserId winner,
                             const RewardOptions& options = {});

/// Full reward for one winner.
WinnerReward compute_reward(const MultiTaskInstance& instance, UserId winner,
                            const RewardOptions& options);
WinnerReward compute_reward(const MultiTaskView& view, UserId winner,
                            const RewardOptions& options);

}  // namespace mcs::auction::multi_task
