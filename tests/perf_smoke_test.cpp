// Fast perf-smoke gate (seconds, not minutes): runs both scaling suites'
// shapes at tiny sizes and asserts each optimized path — the multi-task one
// (lazy greedy + masked re-solves + parallel rewards) and the single-task
// one (critical-bid probe context + columns DP kernel) — agrees with
// oracle::run_mechanism (full-rescan winner determination + copied-instance
// probes; the paper-literal FPTAS with full-solve probes) END TO END —
// the same invariant bench/perf_mechanisms measures at n up to 400, wired
// into every preset's ctest run so a correctness regression in the hot path
// can never hide behind a green unit suite. Carries the `parallel` label so
// the tsan and asan-ubsan presets (which filter on that label) include it.
// No timing assertions: sanitizer builds are legitimately slow.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <utility>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "bench_shapes.hpp"
#include "harness/adversarial_sweep.hpp"
#include "obs/telemetry.hpp"
#include "oracle/mechanism.hpp"
#include "test_util.hpp"

namespace mcs::auction::multi_task {
namespace {

TEST(PerfSmoke, LazyAndReferenceMechanismsAgreeAcrossTinyScalingSweep) {
  const auction::MechanismConfig lazy;  // defaults: kLazy + masked + parallel rewards
  std::size_t feasible = 0;
  for (const std::size_t n : {10, 20, 40}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const auto instance = bench_shapes::scaling_instance(n, /*tasks=*/6, seed, 0.6);
      const auto start = std::chrono::steady_clock::now();
      const auto optimized = run_mechanism(instance, lazy);
      const std::chrono::duration<double> lazy_elapsed =
          std::chrono::steady_clock::now() - start;
      const auto baseline = oracle::run_mechanism(instance, lazy);
      test::expect_identical_outcome(optimized, baseline);
      feasible += optimized.allocation.feasible ? 1 : 0;
      std::cout << "[perf-smoke] n=" << n << " seed=" << seed << " winners="
                << optimized.allocation.winners.size() << " lazy_ms="
                << lazy_elapsed.count() * 1e3 << "\n";
    }
  }
  // The reward (critical-bid) phase only runs on feasible covers; the sweep
  // must exercise it, not just winner determination.
  EXPECT_GT(feasible, 0u);
}

TEST(PerfSmoke, SingleTaskFastPathsAgreeWithOracleAcrossTinyScalingSweep) {
  // The single-task counterpart of the gate above: on the exact shape
  // bench/perf_mechanisms and bench/memory_scaling measure at n up to 400,
  // the production mechanism — critical-bid probe context over the columns
  // DP kernel — must agree with oracle::run_mechanism (the paper-literal
  // FPTAS over the scalar kernel, full-solve probes) END TO END — winners,
  // total cost, critical bids, rewards, degradation flags — at tiny n, every
  // ctest run, under every preset. No mechanism-level wiring can route
  // around the pinned kernel or probe context. Also checks the fast path's
  // probe accounting: each probe is a reuse hit or a counted fallback, never
  // unaccounted.
  auction::MechanismConfig fast;
  fast.single_task.epsilon = 0.5;
  std::size_t feasible = 0;
  for (const std::size_t n : {10, 20, 40}) {
    for (const std::uint64_t seed : {21ull, 22ull, 31ull, 32ull}) {
      const auto instance = bench_shapes::single_task_scaling_instance(n, seed);
      const obs::ScopedTelemetry telemetry(true);
      const auto start = std::chrono::steady_clock::now();
      const auto optimized = single_task::run_mechanism(instance, fast);
      const std::chrono::duration<double> fast_elapsed =
          std::chrono::steady_clock::now() - start;
      const auto baseline = oracle::run_mechanism(instance, fast);
      test::expect_identical_outcome(optimized, baseline);
      feasible += optimized.allocation.feasible ? 1 : 0;
      if (optimized.allocation.feasible) {
        const auto& rewards = optimized.telemetry.rewards;
        EXPECT_EQ(rewards.dp_reuse_hits + rewards.dp_reuse_fallbacks, rewards.probes)
            << "n=" << n << " seed=" << seed;
        EXPECT_EQ(baseline.telemetry.rewards.dp_reuse_hits +
                      baseline.telemetry.rewards.dp_reuse_fallbacks,
                  0u)
            << "n=" << n << " seed=" << seed;
      }
      std::cout << "[perf-smoke] single-task n=" << n << " seed=" << seed << " winners="
                << optimized.allocation.winners.size() << " fast_ms="
                << fast_elapsed.count() * 1e3 << "\n";
    }
  }
  // The reward (critical-bid) phase only runs on feasible covers; the sweep
  // must exercise it, not just winner determination.
  EXPECT_GT(feasible, 0u);
}

TEST(PerfSmoke, DisabledTelemetryIsFreeAndEnabledTelemetryOnlyAddsFields) {
  // The mcs::obs determinism contract, gated like the lazy-vs-reference
  // invariant above: with telemetry off the mechanism outcome is
  // bit-identical to the enabled run (only the telemetry fields differ), and
  // the disabled path must not be measurably slower than the enabled one —
  // best-of-5 each, with a generous noise floor, because sanitizer builds
  // and loaded CI machines are legitimately slow.
  const auto instance = bench_shapes::scaling_instance(40, 6, 5, 0.6);
  const auction::MechanismConfig config;
  auto best_of_5 = [&] {
    double best = std::numeric_limits<double>::infinity();
    MechanismOutcome outcome;
    for (int repeat = 0; repeat < 5; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      outcome = run_mechanism(instance, config);
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count());
    }
    return std::pair{best, outcome};
  };
  obs::ScopedTelemetry off(false);
  const auto [disabled_seconds, plain] = best_of_5();
  EXPECT_FALSE(plain.telemetry.enabled);
  double enabled_seconds = 0.0;
  {
    const obs::ScopedTelemetry on(true);
    const auto [seconds, instrumented] = best_of_5();
    enabled_seconds = seconds;
    EXPECT_TRUE(instrumented.telemetry.enabled);
    test::expect_identical_outcome(instrumented, plain);
  }
  EXPECT_LE(disabled_seconds, enabled_seconds * 2.0 + 5e-3)
      << "disabled " << disabled_seconds * 1e3 << " ms vs enabled " << enabled_seconds * 1e3
      << " ms";
  std::cout << "[perf-smoke] telemetry disabled_ms=" << disabled_seconds * 1e3
            << " enabled_ms=" << enabled_seconds * 1e3 << "\n";
}

TEST(PerfSmoke, QuickAdversarialSweepStaysCleanOnTheoremAxes) {
  // The bench/adversarial_sweep --quick smoke, in-process: the attack
  // harness's tiny sweep must (a) keep every hostile-input auction
  // bit-identical between production and oracle::run_mechanism, and (b) report
  // zero SP/IR violations on the ε-disabled truthful baseline — the
  // Theorem 1/4 pins under hostile shapes. Noised rows may degrade (that is
  // the measurement); the theorem axes may not.
  const auto start = std::chrono::steady_clock::now();
  const auto result = harness::run_adversarial_sweep(harness::quick_sweep_config());
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.fast_oracle_mismatches, 0u);
  EXPECT_EQ(result.truthful_sp_violations, 0u);
  EXPECT_EQ(result.truthful_ir_violations, 0u);
  EXPECT_GT(result.auctions_run, 0u);
  std::cout << "[perf-smoke] adversarial quick sweep auctions=" << result.auctions_run
            << " elapsed_ms=" << elapsed.count() * 1e3 << "\n";
}

TEST(PerfSmoke, RewardProbesResumeFromTheWinnerDeterminationRun) {
  // The warm-start gate: the mechanism resumes each winner's without-i run
  // at the step that picked her, so its reward phase runs exactly her
  // selection position fewer greedy rounds than a cold compute_reward call.
  // The counts are deterministic, so the identity is exact; a refactor that
  // stops handing the winner-determination run to the rewards fails here.
  const obs::ScopedTelemetry telemetry(true);
  std::size_t feasible = 0;
  for (const auto rule : {CriticalBidRule::kBinarySearch, CriticalBidRule::kPaperIterationMin}) {
    auction::MechanismConfig config;
    config.multi_task.critical_bid_rule = rule;
    for (const std::size_t n : {10, 20, 40}) {
      for (const std::uint64_t seed : {1ull, 2ull}) {
        const auto instance = bench_shapes::scaling_instance(n, /*tasks=*/6, seed, 0.6);
        const auto outcome = run_mechanism(instance, config);
        if (!outcome.allocation.feasible) {
          continue;
        }
        ++feasible;
        const auto view = MultiTaskView::from_instance(instance);
        const auto selection = solve_greedy(view, ViewOverlay::none()).steps;
        std::uint64_t positions = 0;
        std::uint64_t cold_rounds = 0;
        for (std::size_t k = 0; k < selection.size(); ++k) {
          positions += k;
          obs::PhaseCounters block;
          const RewardOptions cold{.rule = rule, .counters = &block};
          compute_reward(view, selection[k].selected, cold);
          cold_rounds += block.rounds;
        }
        EXPECT_EQ(outcome.telemetry.rewards.rounds + positions, cold_rounds)
            << "n=" << n << " seed=" << seed;
      }
    }
  }
  EXPECT_GT(feasible, 0u);
}

TEST(PerfSmoke, BothCriticalBidRulesSurviveTheSweep) {
  auction::MechanismConfig lazy;
  lazy.multi_task.critical_bid_rule = CriticalBidRule::kPaperIterationMin;
  const auto instance = bench_shapes::scaling_instance(20, 6, 3, 0.6);
  test::expect_identical_outcome(run_mechanism(instance, lazy),
                                 oracle::run_mechanism(instance, lazy));
}

}  // namespace
}  // namespace mcs::auction::multi_task
