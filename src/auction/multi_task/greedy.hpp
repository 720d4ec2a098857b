// Algorithm 4 of the paper: greedy winner determination for the multi-task
// single-minded setting. The residual requirements Q̄_j define a submodular
// coverage function; the algorithm repeatedly selects the user maximizing the
// contribution-cost ratio
//     ( Σ_{j∈S_i} min{q_i^j, Q̄_j} ) / c_i
// and deducts her contributions, until every requirement is met. Guarantees
// (Theorems 4-6, Lemma 2): H(γ)-approximation, monotone in declared
// contributions.
//
// Two interchangeable argmax strategies (GreedyAlgorithm, see
// auction/types.hpp): the paper-literal O(n²t) full rescan per round
// (kReferenceScan) and the CELF-style lazy max-heap of stale ratios (kLazy,
// the default). Because residuals only shrink and costs are constant, every
// stale heap ratio is an upper bound on the user's current ratio, so a
// popped entry whose recomputed ratio still tops the heap is the true
// argmax; the heap orders equal ratios by ascending user id, preserving the
// reference's lowest-id tie-break exactly. The two paths are bit-identical
// (same winners, same steps, same tie-breaks) — an invariant asserted by
// tests/mt_lazy_equivalence_test.cpp and tests/perf_smoke_test.cpp.
//
// The iteration log (who was picked, at what ratio) is exposed because the
// reward scheme (Algorithm 5) replays it. The solve_greedy overloads on
// MultiTaskView run the same algorithms against the flat CSR layout through
// an exclusion/override overlay — the allocation-free probe path of the
// reward scheme — and report winners under ORIGINAL user ids.
//
// A view run can also resume from a prefix of an earlier run's picks: the
// residuals after those picks are rebuilt with the loop's own update, the
// picks are blocked, and the argmax continues. Both pickers return the exact
// argmax with the lowest-id tie-break from any state, so a resumed run's
// remaining steps are the cold run's, double for double. The reward scheme
// resumes each winner's without-i run from the winner-determination run at
// the step that picked her (reward.hpp; DESIGN.md §8).
#pragma once

#include <span>
#include <vector>

#include "auction/instance.hpp"
#include "auction/multi_task/view.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::multi_task {

/// The algorithm enum lives in auction/types.hpp so the unified
/// MechanismConfig can carry it; this alias keeps call sites short.
using GreedyAlgorithm = auction::GreedyAlgorithm;

/// One iteration of the greedy loop.
struct GreedyStep {
  UserId selected = 0;
  /// The selected user's effective (residual-capped) total contribution at
  /// the start of the iteration: Σ_j min{q_i^j, Q̄_j}.
  double effective_contribution = 0.0;
  /// Her contribution-cost ratio at that point.
  double ratio = 0.0;
  /// Residual requirements Q̄ at the start of the iteration. Populated only
  /// under GreedyOptions::record_residuals — the copy is O(t) per step. The
  /// binary-search reward rule's replay probes read them: the mechanism's
  /// winner-determination run and each resumed without-i run record them.
  std::vector<double> residual_before;
};

struct GreedyOptions {
  /// Cooperative wall-clock budget, polled once per greedy iteration.
  common::Deadline deadline = {};
  /// Keep the selected prefix when the loop stalls (infeasible) or the
  /// deadline expires: the result's allocation stays infeasible but carries
  /// the partial winner set, its cost, and the iteration log, and
  /// `uncovered_tasks` lists the unmet requirements. When false (the
  /// default) a stall returns an empty result and an expiry throws
  /// common::DeadlineExceeded — the paper-exact contract.
  bool keep_partial = false;
  /// Argmax strategy; kLazy and kReferenceScan produce identical results.
  GreedyAlgorithm algorithm = GreedyAlgorithm::kLazy;
  /// Snapshot the residual vector into every GreedyStep, at O(t) per step.
  /// The mechanism turns it on for its winner-determination run, whose
  /// steps the reward probes replay; off, the loop copies nothing.
  bool record_residuals = false;
  /// When non-null, accumulates rounds (greedy picks), deadline polls, and
  /// gain re-evaluations inside the argmax (lazy-heap stale recomputes for
  /// kLazy, full candidate scans for kReferenceScan — the counter is
  /// algorithm-dependent by design: it measures the CELF saving). The caller
  /// owns the block and must not share it across concurrent solves.
  obs::PhaseCounters* counters = nullptr;
};

struct GreedyResult {
  Allocation allocation;
  std::vector<GreedyStep> steps;  ///< selection order; empty when infeasible
  /// Tasks whose requirement is unmet, ascending; populated only under
  /// GreedyOptions::keep_partial (empty on full coverage).
  std::vector<TaskIndex> uncovered_tasks;
  /// True when the deadline (not a stall) ended a keep_partial run.
  bool timed_out = false;
};

/// Runs Algorithm 4. Returns an infeasible Allocation when the loop stalls
/// with unmet requirements (no remaining user adds positive contribution).
/// Ties on the ratio break toward the lower user id. The instance must be
/// valid (it is validated on entry).
GreedyResult solve_greedy(const MultiTaskInstance& instance);
GreedyResult solve_greedy(const MultiTaskInstance& instance, const GreedyOptions& options);

/// Runs Algorithm 4 against a prebuilt CSR view through an overlay, without
/// copying or validating anything. Winner ids, steps, and costs refer to the
/// ORIGINAL instance ids (an excluded user simply never appears), and are
/// bit-identical to solving the equivalent materialized copy.
GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options = {});

/// The same run resumed after `prefix`, the first steps of a run on the same
/// view with no overlay. Those picks are applied to the requirements in
/// order with the loop's own max(0, Q̄ - q) update and blocked, and the
/// argmax continues from there. Exact when the overlay changes none of the
/// prefix's rounds, as excluding a user picked later does: the allocation
/// and the steps after the prefix are bit-identical to the cold run's.
/// `steps` holds only the steps after the prefix; the allocation includes
/// the prefix's picks. Telemetry counts only the resumed rounds. An empty
/// prefix is the cold run.
GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options, std::span<const GreedyStep> prefix);

}  // namespace mcs::auction::multi_task
