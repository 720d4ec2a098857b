// Differential oracles of the mechanisms: the paper-literal single-task
// mechanism (Algorithms 1–3 as written) and the multi-task reference
// configuration, behind one run_mechanism entry per instance family. The
// production fast paths — the columns DP kernel, the reused-frontier probe
// context, the lazy greedy and the masked re-solves — are pinned
// bit-identical to these (DESIGN.md §8). No production target links this
// library; only the tests, the benches and the bench-side harness do.
//
// Oracles do not degrade: every entry requires an unlimited time budget.
#pragma once

#include "auction/instance.hpp"
#include "auction/single_task/reward.hpp"
#include "auction/types.hpp"

namespace mcs::oracle {

/// Algorithm 2 over the pooled-state Algorithm 1 sweep
/// (oracle::solve_min_knapsack). Reads instance.bids directly, with the
/// production scan's rules: an instance that is_feasible() rejects is
/// infeasible before any subproblem runs; users sort by (cost, id); a later
/// subproblem replaces the best on an equal scaled value (`<=`); and a
/// knife-edge instance whose subproblems all come back uncovered is
/// infeasible.
auction::Allocation solve_fptas(const auction::SingleTaskInstance& instance, double epsilon);

/// Algorithm 3 by bisection, re-solving a fresh copy of the instance with
/// the probed declaration written in on every probe: oracle::solve_fptas for
/// WinnerRule::kFptas, single_task::solve_min_greedy for kMinGreedy. Reads
/// options.alpha, epsilon, binary_search_iterations and winner_rule; counts
/// probes and bisection steps into options.counters when it is set. The
/// options' deadline must be unlimited.
double critical_contribution(const auction::SingleTaskInstance& instance,
                             auction::UserId winner,
                             const auction::single_task::RewardOptions& options);

/// The full reward for one winner, around oracle::critical_contribution.
auction::WinnerReward compute_reward(const auction::SingleTaskInstance& instance,
                                     auction::UserId winner,
                                     const auction::single_task::RewardOptions& options);

/// The single-task mechanism: oracle::solve_fptas, then the oracle critical
/// bid of every winner (fanned out like the production facade's). Records
/// no telemetry.
auction::MechanismOutcome run_mechanism(const auction::SingleTaskInstance& instance,
                                        const auction::MechanismConfig& config = {});

/// The multi-task mechanism under its reference configuration: the
/// paper-literal full-rescan greedy (GreedyAlgorithm::kReferenceScan) and
/// copied-instance critical-bid re-solves (masked_rewards off), run through
/// the production facade. Every other field of `config` passes through.
auction::MechanismOutcome run_mechanism(const auction::MultiTaskInstance& instance,
                                        const auction::MechanismConfig& config = {});

}  // namespace mcs::oracle
