// Algorithm 2 of the paper: the FPTAS winner-determination algorithm for the
// single-task setting. Users are sorted by cost; for each prefix length k the
// costs are scaled by μ_k = ε·c_k/k, the scaled minimum knapsack is solved
// exactly by Algorithm 1, and the best feasible solution across the n
// subproblems (compared in the scaled domain, as in the paper) is returned.
//
// Guarantees (paper Theorems 1-3, Lemma 1):
//   * (1+ε)-approximation of the optimal social cost,
//   * monotone in each user's declared PoS — the property the critical-bid
//     reward scheme (Algorithm 3) relies on,
//   * O(n^4/ε) time.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/columns.hpp"
#include "auction/instance.hpp"
#include "auction/single_task/dp_knapsack.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction::single_task {

/// Runs the FPTAS winner determination. `epsilon` > 0 is the approximation
/// parameter. Returns an infeasible Allocation when even the full user set
/// cannot meet the requirement. The instance must be valid (validate()).
/// The subproblem scan and the DP sweeps poll `deadline` cooperatively and
/// throw common::DeadlineExceeded when it expires (the mechanism facade may
/// then retry on the Min-Greedy degraded ladder). `counters`, when non-null,
/// accumulates rounds (subproblem scans) and scan-level deadline polls (the
/// DP's inner polls are uncounted to keep the hot loop branch-free).
/// oracle::solve_fptas is the same scan over the paper-literal Algorithm 1
/// sweep; the two return bit-identical allocations.
Allocation solve_fptas(const SingleTaskInstance& instance, double epsilon,
                       const common::Deadline& deadline = {},
                       obs::PhaseCounters* counters = nullptr);

/// Column-routed overload: reads every per-user cost and contribution from
/// `columns` (one BidColumns::from_single_task snapshot of `instance`)
/// instead of striding the nested bids. The snapshot carries the identical
/// doubles the struct accessors would compute, so the allocation is
/// bit-identical; the mechanism facade builds the columns once per run and
/// shares them between winner determination and every reward search.
Allocation solve_fptas(const SingleTaskInstance& instance, const BidColumns& columns,
                       double epsilon, const common::Deadline& deadline = {},
                       obs::PhaseCounters* counters = nullptr);

/// Reusable probe state of the single-task critical-bid fast path. The
/// bisection of Algorithm 3 asks "does winner
/// i still win when declaring q?" ~50 times per winner, and each full-solve
/// answer re-runs every FPTAS subproblem from scratch even though only i's
/// declaration changed. This context factors the solve into its
/// probe-invariant parts, computed once per winner:
///
///   * the (cost, id) sort order, the winner's slot m in it, and the other
///     users' contributions — costs never change during a search;
///   * per-subproblem scaling μ_k and scaled costs;
///   * subproblems k <= m (prefixes that exclude the winner): solved once,
///     their scaled values are probe-independent and the winner is never in
///     them;
///   * subproblems k > m: one Algorithm 1 Pareto frontier over the OTHER
///     k-1 items. Without-winner subsets never fold the winner's
///     contribution, so the frontier's floating-point values are exactly
///     the ones a full re-solve computes; a probe then only has to compare
///     the cheapest without-winner cover against the cheapest
///     "frontier state + probed contribution" cover (binary search).
///
/// Bit-identity contract: every probe answer equals what solve_fptas would
/// return on an instance with the declaration written in. Comparisons whose
/// outcome could be flipped by floating-point reassociation (the probed
/// contribution joins the fold at slot m instead of at the end) are
/// certified with an error band; when the certificate cannot decide a
/// subproblem — or an exact scaled-cost tie makes membership
/// order-dependent — only THAT subproblem is re-solved exactly with the
/// real Algorithm 1 DP on the oracle's own item list, which reproduces the
/// oracle's values and tie-breaking state order for 1/n-th the cost of a
/// full solve. A genuine full solve remains only for probes above the
/// build-time declaration, where the pruned tables are not conservative.
class FptasProbeContext {
 public:
  /// Builds the reusable tables for probing `winner`'s declarations in
  /// [0, her current declaration]. Cost is comparable to one solve_fptas
  /// run (frontiers are only built for subproblems that can cover the
  /// requirement at the declared contribution; lower declarations only
  /// shrink that set). `counters` (borrowed, may be null) accumulates the
  /// build's rounds and deadline polls plus per-probe dp_reuse_hits /
  /// dp_reuse_fallbacks; the caller counts probes. Polls `deadline` once
  /// per subproblem, like solve_fptas.
  FptasProbeContext(const SingleTaskInstance& instance, UserId winner, double epsilon,
                    common::Deadline deadline = {}, obs::PhaseCounters* counters = nullptr);

  /// Column-routed overload: the build reads costs and contributions from
  /// `columns` (a snapshot of `instance`, borrowed only for the build)
  /// instead of the nested bids — same doubles, bit-identical tables.
  FptasProbeContext(const SingleTaskInstance& instance, const BidColumns& columns,
                    UserId winner, double epsilon, common::Deadline deadline = {},
                    obs::PhaseCounters* counters = nullptr);

  /// Whether the winner is selected when declaring contribution
  /// `declared_q`. Applies the same q → PoS → q round trip as a probe that
  /// writes the declaration into the instance, so the answer is
  /// bit-identical to solve_fptas on the modified instance — purely from the reused
  /// frontiers (dp_reuse_hits) or, when the reassociation certificate
  /// cannot decide a subproblem, with that subproblem re-solved exactly
  /// (dp_reuse_fallbacks). `declared_q` must be in [0, the declaration the
  /// context was built with]; anything larger is answered by a genuine
  /// full solve (also counted as a fallback).
  bool wins(double declared_q);

 private:
  /// Per-subproblem reusable state; entry k of subproblems_ (1-based like
  /// the FPTAS scan) is one of three shapes: filtered out / constant
  /// (k <= m, winner not in the prefix) / frontier-backed (k > m).
  struct Subproblem {
    double mu = 0.0;
    // k <= m: probe-independent result, solved at build time.
    bool constant_feasible = false;
    double constant_scaled_value = 0.0;
    // k > m: without-winner frontier and the winner's scaled cost.
    bool prepared = false;
    std::int64_t scaled_cost_winner = 0;
    /// Min scaled cost of a without-winner cover; kNoCover when none.
    std::int64_t cover_without_winner = 0;
    /// Reassociation error band for "state contribution + probed q"
    /// feasibility tests (the only reassociated comparison of a probe).
    double band = 0.0;
    std::vector<FrontierEntry> frontier;
  };

  /// Inclusive bounds on the oracle's minimum with-winner scaled cost for
  /// one subproblem at one probed contribution; kNoCover = no cover.
  struct CoverBounds {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };

  /// Oracle-exact resolution of one subproblem at one probed contribution:
  /// re-runs the real Algorithm 1 DP on the subproblem's own item list (the
  /// probed winner included, in the oracle's order), so the returned cover
  /// cost, scaled value, and membership — INCLUDING the DP's tie-breaking
  /// state order — are bit-identical to the full solve's. O(one DP) instead
  /// of the full solve's one-DP-per-subproblem; used when the certificate
  /// cannot decide a comparison.
  struct ExactSubproblem {
    bool feasible = false;
    std::int64_t cover = 0;
    bool winner_selected = false;
  };
  ExactSubproblem solve_subproblem_exact(std::size_t k, double probe_q) const;

  CoverBounds with_winner_cover_bounds(const Subproblem& sub, double probe_q) const;
  bool fallback_wins(double declared_q);

  SingleTaskInstance scratch_;  ///< fallback probes write the declaration here
  UserId winner_;
  double epsilon_;
  common::Deadline deadline_;
  obs::PhaseCounters* counters_;
  double requirement_ = 0.0;
  double declared_roundtrip_ = 0.0;  ///< build-time declaration after q→PoS→q

  // is_feasible() replay state (id-order sequential sum).
  double id_prefix_before_winner_ = 0.0;
  std::vector<double> id_contributions_after_winner_;

  // FPTAS scan replay state (sorted-order).
  std::size_t position_ = 0;  ///< winner's slot m in the (cost, id) order
  std::vector<double> sorted_costs_;  ///< costs in (cost, id) order
  std::vector<double> sorted_contributions_;  ///< slot m unused (probe fills it)
  double prefix_at_position_ = 0.0;  ///< sequential sum of slots [0, m)
  std::vector<Subproblem> subproblems_;  ///< index k in [1, n]
};

}  // namespace mcs::auction::single_task
