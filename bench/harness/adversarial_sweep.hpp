// The adversarial sweep: drives the attack harness of sim/adversary.hpp
// across its axes — ε-DP report noising, correlated cell failures, and
// coalition / Sybil probes — and measures what survives. Every auction runs
// through the production mechanism and, with check_fast_paths, through
// oracle::run_mechanism too, counting any divergence: hostile-shaped inputs
// are exactly what the differential suites' samplers never generate. See
// DESIGN.md §14 and the EXPERIMENTS.md "Adversarial & privacy sweep"
// chapter.
//
// Bench-side: bench/adversarial_sweep records it, and perf_smoke_test and
// sim_adversary_test run its quick configuration in-process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/privacy.hpp"

namespace mcs::harness {

struct SweepConfig {
  std::uint64_t seed = 20260808ULL;
  std::size_t instances = 6;   ///< instances per axis point
  std::size_t users = 14;
  std::size_t tasks = 5;
  std::size_t misreport_trials = 3;  ///< strategic deviations per user
  std::vector<double> epsilons = {0.25, 0.5, 1.0, 2.0, 4.0};
  sim::PrivacyMechanism mechanism = sim::PrivacyMechanism::kLaplace;
  std::vector<double> event_probs = {0.0, 0.2, 0.4, 0.7};
  std::size_t failure_rounds = 40;
  std::vector<std::size_t> coalition_sizes = {2, 3};
  std::vector<double> shade_grid = {0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5};
  std::vector<std::size_t> sybil_clones = {2, 3};
  double alpha = 10.0;
  /// Run every auction through the production mechanism (the default
  /// configuration: every fast path on) AND oracle::run_mechanism, and count
  /// divergences — must stay 0.
  bool check_fast_paths = true;
  /// OPT of the truthful instance, from the exact solvers (single_task::
  /// solve_exact and multi_task::solve_exact).
  bool compute_opt = true;
  /// SP/IR slack: the critical-bid bisection's precision envelope (the same
  /// 1e-5 st_property_test allows), NOT a strategic-gain threshold.
  double tolerance = 1e-5;

  void validate() const;
};

/// One ε grid point of the privacy axis, per mechanism family.
struct PrivacyPoint {
  double epsilon = 0.0;  ///< 0 encodes the disabled (truthful) baseline
  std::size_t sp_probes = 0;
  std::size_t sp_violations = 0;   ///< a deviation beat the noised-truthful play
  std::size_t ir_winners = 0;
  std::size_t ir_violations = 0;   ///< a winner's true expected utility < 0
  double sp_violation_rate = 0.0;
  double ir_violation_rate = 0.0;
  double mean_sp_gain = 0.0;  ///< over violating probes; 0 when none
  double max_sp_gain = 0.0;
  /// Max over probes of (deviated utility - clean-truthful envelope). The
  /// envelope argument for a noised SP mechanism: a deviation routed through
  /// the same noise can never beat reporting one's true type un-noised. For
  /// the single-task FPTAS this holds exactly (the property fuzz asserts
  /// <= tolerance). For multi-task, per-task noise REDISTRIBUTES a user's
  /// contribution across tasks — a direction change the greedy cover's
  /// truthfulness argument does not cover — so noised rows can measure a
  /// genuinely positive excess (see DESIGN.md §14). The ε = 0 baseline rows
  /// stay <= tolerance in both families.
  double max_envelope_excess = 0.0;
  double approx_ratio_vs_opt = 0.0;       ///< mean, noised winners at true costs / OPT(truth)
  double cost_ratio_vs_truthful = 0.0;    ///< mean, noised run / truthful run
  double coverage_rate = 0.0;  ///< fraction of tasks truly covered by noised winners
  std::size_t infeasible_noised = 0;
};

struct FailurePoint {
  double event_prob = 0.0;
  std::size_t rounds = 0;
  std::size_t events = 0;  ///< realized weather events in the schedule
  double mean_coverage = 0.0;         ///< mean per-task achieved/required (capped at 1)
  double requirement_hit_rate = 0.0;  ///< fraction of tasks still meeting T post-event
};

struct CollusionPoint {
  std::string kind;  ///< "coalition" or "sybil"
  std::size_t size = 0;
  std::size_t probes = 0;
  double profitable_rate = 0.0;
  double mean_gain = 0.0;  ///< over profitable probes; 0 when none
  double max_gain = 0.0;
};

struct SweepResult {
  std::vector<PrivacyPoint> single_task;
  std::vector<PrivacyPoint> multi_task;
  std::vector<FailurePoint> failures;
  std::vector<CollusionPoint> collusion;
  /// Hostile-input differential: auctions where the production mechanism
  /// and oracle::run_mechanism disagreed anywhere in the outcome. Must be 0.
  std::size_t fast_oracle_mismatches = 0;
  std::size_t auctions_run = 0;
  /// ε-disabled truthful baseline violations. Theorems 1/4 say exactly 0.
  std::size_t truthful_sp_violations = 0;
  std::size_t truthful_ir_violations = 0;
};

SweepResult run_adversarial_sweep(const SweepConfig& config);

/// The tiny configuration perf_smoke_test runs in-process every ctest pass
/// and bench/adversarial_sweep --quick reuses — seconds, not minutes.
SweepConfig quick_sweep_config();

}  // namespace mcs::harness
