// Adversarial & privacy sweep (EXPERIMENTS.md chapter, ROADMAP item 2):
// drives harness::run_adversarial_sweep across its four attack axes and appends
// the machine-readable record to bench/results/adversarial_sweep.json.
//
//   1. ε-DP report noising — SP-violation rate, IR-violation rate,
//      approximation ratio vs the exact solvers' OPT, coverage, and the
//      clean-envelope excess per ε grid point, both mechanism families,
//      every auction run through BOTH the production mechanism and
//      oracle::run_mechanism (divergences counted, must be 0).
//   2. Correlated cell failures — weather-event schedules vs achieved
//      coverage, plus the SERVICE leg: the same sim::make_attack_schedule
//      composed through schedule_fail_at + ShardMap::shard_of into a
//      FaultInjector kShardRun fail_at list, so each weather event kills
//      the owning shard; kPoisonRound vs kDegradedMerge compared on
//      identical schedules.
//   3. Sybil / coalition probes — identity-splitting and joint-shading
//      profitable rates and gains per coalition size / clone count.
//   4. Reputation feedback — the platform::ReputationTracker +
//      platform::reputation_weight prior closed through
//      sim::run_reputation_feedback: over-claimers' winner-rate early vs
//      late, final weights, and the tracker's flagged list.
//
// Usage: adversarial_sweep [--quick] [--seed SEED] [--out FILE]
// --quick runs harness::quick_sweep_config() (the same configuration
// tests/perf_smoke_test.cpp gates in-process) plus scaled-down service and
// reputation legs — a smoke mode, seconds not minutes. The JSON record also
// goes to stdout and, when MCS_BENCH_JSON names a file, appends there (the
// bench/results convention).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "harness/adversarial_sweep.hpp"
#include "platform/reputation.hpp"
#include "service/service.hpp"
#include "sim/adversary.hpp"

namespace {

using namespace mcs;

struct Options {
  bool quick = false;
  std::uint64_t seed = 20260808ULL;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (flag == "--quick") {
      options.quick = true;
    } else if (flag == "--seed" && k + 1 < argc) {
      options.seed = std::stoull(argv[++k]);
    } else if (flag == "--out" && k + 1 < argc) {
      options.out = argv[++k];
    } else {
      std::cerr << "usage: adversarial_sweep [--quick] [--seed SEED] [--out FILE]\n";
      std::exit(2);
    }
  }
  return options;
}

// -------------------------------------------------------------------------
// Service leg: weather schedule → shard blast radius, both merge policies
// -------------------------------------------------------------------------

struct ServiceLegResult {
  std::size_t users = 0;
  std::size_t tasks = 0;
  std::size_t rounds = 0;
  std::size_t shards = 0;
  double event_prob = 0.0;
  std::size_t events = 0;
  double survival_poison = 0.0;
  double survival_degraded = 0.0;
  double mean_coverage_poison = 0.0;
  double mean_coverage_degraded = 0.0;
};

/// Hostile rounds through the sharded service under the harness's own
/// weather schedule: sim::make_attack_schedule draws the struck cells,
/// sim::schedule_fail_at + ShardMap::shard_of turns them into kShardRun
/// fail_at coordinates, and both merge policies replay the identical
/// schedule. Rotating hostile shapes per round keeps the partition/merge
/// path on exactly the inputs the differential suites call hostile.
ServiceLegResult run_service_leg(const Options& options) {
  ServiceLegResult result;
  result.users = options.quick ? 60 : 240;
  result.tasks = options.quick ? 8 : 16;
  result.rounds = options.quick ? 4 : 12;
  result.shards = 4;
  result.event_prob = 0.5;

  sim::AttackConfig attack;
  attack.seed = options.seed ^ 0x73657276ULL;  // decorrelate from the core sweep
  attack.cell_failures.event_prob = result.event_prob;
  for (std::size_t j = 0; j < result.tasks; ++j) {
    attack.cell_failures.cells.push_back(static_cast<geo::CellId>(j));
  }
  const auto schedule = sim::make_attack_schedule(attack, result.rounds);
  const service::ShardMap shard_map(result.shards);
  const auto fail_at = sim::schedule_fail_at(
      schedule, [&shard_map](geo::CellId cell) { return shard_map.shard_of(cell); });
  result.events = fail_at.size();

  std::vector<service::GeoRound> rounds;
  rounds.reserve(result.rounds);
  for (std::size_t r = 0; r < result.rounds; ++r) {
    service::GeoRound round;
    round.instance = sim::hostile_multi_task(
        result.users, result.tasks, sim::kHostileShapes[r % sim::kHostileShapes.size()],
        attack.seed + 100 + r);
    for (std::size_t j = 0; j < result.tasks; ++j) {
      round.task_cells.push_back(static_cast<geo::CellId>(j));
    }
    rounds.push_back(std::move(round));
  }

  for (const auto policy :
       {service::MergePolicy::kPoisonRound, service::MergePolicy::kDegradedMerge}) {
    service::ServiceConfig config;
    config.shards = shard_map;
    config.queue_capacity = result.rounds;
    config.merge_policy = policy;
    auto injector = std::make_shared<common::FaultInjector>(attack.seed + 1);
    common::FailPointSpec shard_faults;
    shard_faults.fail_at = fail_at;
    injector->configure(common::FailPoint::kShardRun, shard_faults);
    config.fault_injector = injector;

    service::CampaignService campaign_service(config);
    for (const auto& round : rounds) {
      campaign_service.submit_round(round);
    }
    double coverage_sum = 0.0;
    std::size_t usable = 0;
    for (std::size_t r = 0; r < result.rounds; ++r) {
      const auto outcome = campaign_service.wait_outcome(r);
      if (outcome.ok()) {
        ++usable;
        coverage_sum +=
            static_cast<double>(result.tasks - outcome.outcome.uncovered_tasks.size()) /
            static_cast<double>(result.tasks);
      }
    }
    const double coverage = coverage_sum / static_cast<double>(result.rounds);
    const double survival = static_cast<double>(usable) / static_cast<double>(result.rounds);
    if (policy == service::MergePolicy::kPoisonRound) {
      result.mean_coverage_poison = coverage;
      result.survival_poison = survival;
    } else {
      result.mean_coverage_degraded = coverage;
      result.survival_degraded = survival;
    }
  }
  std::cerr << "service leg: " << result.events << "/" << result.rounds
            << " rounds weather-struck; coverage poison " << result.mean_coverage_poison
            << " vs degraded " << result.mean_coverage_degraded << "\n";
  return result;
}

// -------------------------------------------------------------------------
// Reputation leg: tracker-backed prior closed through the feedback loop
// -------------------------------------------------------------------------

struct ReputationLegResult {
  std::size_t users = 0;
  std::size_t tasks = 0;
  std::size_t rounds = 0;
  std::size_t overclaimers = 0;
  double inflation = 0.0;
  double overclaimer_win_rate_early = 0.0;  ///< first half of the rounds
  double overclaimer_win_rate_late = 0.0;   ///< second half
  double mean_overclaimer_weight = 0.0;     ///< final prior weights
  double mean_honest_weight = 0.0;
  std::size_t flagged = 0;  ///< tracker's z-test flags among the over-claimers
};

/// Users 0..k-1 inflate their declared contributions `inflation`-fold; the
/// ReputationTracker observes each settled round and
/// platform::reputation_weight discounts the next round's declarations. The
/// measurement: over-claimers' winner rate early vs late, and where their
/// prior weights end up.
ReputationLegResult run_reputation_leg(const Options& options) {
  ReputationLegResult result;
  result.users = options.quick ? 10 : 14;
  result.tasks = 4;
  result.rounds = options.quick ? 8 : 24;
  result.overclaimers = 2;
  result.inflation = 4.0;

  const auto truth = sim::hostile_multi_task(result.users, result.tasks,
                                             sim::HostileShape::kRandom,
                                             options.seed ^ 0x72657075ULL);
  auto declared = truth;
  for (std::size_t u = 0; u < result.overclaimers; ++u) {
    const auto user = static_cast<auction::UserId>(u);
    declared = declared.with_declared_total_contribution(
        user, result.inflation * truth.users[u].total_contribution());
  }

  platform::ReputationTracker tracker;
  sim::FeedbackConfig config;
  config.rounds = result.rounds;
  config.seed = options.seed ^ 0x6c6f6f70ULL;
  config.mechanism.alpha = 10.0;
  const auto rounds = sim::run_reputation_feedback(
      truth, declared, config,
      [&tracker](auction::UserId user) {
        return platform::reputation_weight(
            tracker.record_of(static_cast<trace::TaxiId>(user)));
      },
      [&tracker](auction::UserId user, double declared_any, bool succeeded) {
        tracker.record(static_cast<trace::TaxiId>(user), declared_any, succeeded);
      });

  std::size_t early_wins = 0;
  std::size_t late_wins = 0;
  const std::size_t half = rounds.size() / 2;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::size_t wins = 0;
    for (const auto winner : rounds[r].winners) {
      wins += static_cast<std::size_t>(winner) < result.overclaimers ? 1 : 0;
    }
    (r < half ? early_wins : late_wins) += wins;
  }
  const double slots = static_cast<double>(result.overclaimers);
  result.overclaimer_win_rate_early =
      static_cast<double>(early_wins) / (slots * static_cast<double>(half));
  result.overclaimer_win_rate_late =
      static_cast<double>(late_wins) /
      (slots * static_cast<double>(rounds.size() - half));

  double overclaimer_weight = 0.0;
  double honest_weight = 0.0;
  for (std::size_t u = 0; u < result.users; ++u) {
    const double w =
        platform::reputation_weight(tracker.record_of(static_cast<trace::TaxiId>(u)));
    (u < result.overclaimers ? overclaimer_weight : honest_weight) += w;
  }
  result.mean_overclaimer_weight = overclaimer_weight / slots;
  result.mean_honest_weight =
      honest_weight / static_cast<double>(result.users - result.overclaimers);
  for (const auto taxi : tracker.flagged_overclaimers(/*z_threshold=*/1.5,
                                                      /*min_rounds=*/3)) {
    result.flagged += static_cast<std::size_t>(taxi) < result.overclaimers ? 1 : 0;
  }
  std::cerr << "reputation leg: over-claimer win rate " << result.overclaimer_win_rate_early
            << " (early) -> " << result.overclaimer_win_rate_late << " (late), weights "
            << result.mean_overclaimer_weight << " vs honest " << result.mean_honest_weight
            << ", flagged " << result.flagged << "/" << result.overclaimers << "\n";
  return result;
}

// -------------------------------------------------------------------------
// JSON emission
// -------------------------------------------------------------------------

void emit_privacy_points(std::ostringstream& json,
                         const std::vector<harness::PrivacyPoint>& points) {
  json << "[";
  for (std::size_t k = 0; k < points.size(); ++k) {
    const auto& p = points[k];
    json << (k > 0 ? "," : "") << "{\"epsilon\":" << p.epsilon
         << ",\"sp_probes\":" << p.sp_probes << ",\"sp_violations\":" << p.sp_violations
         << ",\"sp_violation_rate\":" << p.sp_violation_rate
         << ",\"ir_winners\":" << p.ir_winners << ",\"ir_violations\":" << p.ir_violations
         << ",\"ir_violation_rate\":" << p.ir_violation_rate
         << ",\"mean_sp_gain\":" << p.mean_sp_gain << ",\"max_sp_gain\":" << p.max_sp_gain
         << ",\"max_envelope_excess\":" << p.max_envelope_excess
         << ",\"approx_ratio_vs_opt\":" << p.approx_ratio_vs_opt
         << ",\"cost_ratio_vs_truthful\":" << p.cost_ratio_vs_truthful
         << ",\"coverage_rate\":" << p.coverage_rate
         << ",\"infeasible_noised\":" << p.infeasible_noised << "}";
  }
  json << "]";
}

int run(const Options& options) {
  auto config = options.quick ? harness::quick_sweep_config() : harness::SweepConfig{};
  config.seed = options.seed;
  std::cerr << "adversarial sweep: " << (options.quick ? "quick" : "full") << " seed "
            << options.seed << "\n";

  const auto start = std::chrono::steady_clock::now();
  const auto sweep = harness::run_adversarial_sweep(config);
  const std::chrono::duration<double> core_elapsed =
      std::chrono::steady_clock::now() - start;
  std::cerr << "core sweep: " << sweep.auctions_run << " auctions in "
            << core_elapsed.count() << " s, fast/oracle mismatches "
            << sweep.fast_oracle_mismatches << ", truthful SP violations "
            << sweep.truthful_sp_violations << ", truthful IR violations "
            << sweep.truthful_ir_violations << "\n";

  const auto service_leg = run_service_leg(options);
  const auto reputation_leg = run_reputation_leg(options);

  std::ostringstream json;
  json << "{\"bench\":\"adversarial_sweep\",\"mode\":\""
       << (options.quick ? "quick" : "full") << "\",\"seed\":" << options.seed
       << ",\"instances\":" << config.instances << ",\"users\":" << config.users
       << ",\"tasks\":" << config.tasks << ",\"alpha\":" << config.alpha
       << ",\"privacy_mechanism\":\""
       << (config.mechanism == sim::PrivacyMechanism::kLaplace ? "laplace"
                                                               : "randomized_response")
       << "\",\"auctions_run\":" << sweep.auctions_run
       << ",\"fast_oracle_mismatches\":" << sweep.fast_oracle_mismatches
       << ",\"truthful_sp_violations\":" << sweep.truthful_sp_violations
       << ",\"truthful_ir_violations\":" << sweep.truthful_ir_violations
       << ",\"core_elapsed_seconds\":" << core_elapsed.count();
  json << ",\"single_task\":";
  emit_privacy_points(json, sweep.single_task);
  json << ",\"multi_task\":";
  emit_privacy_points(json, sweep.multi_task);
  json << ",\"cell_failures\":[";
  for (std::size_t k = 0; k < sweep.failures.size(); ++k) {
    const auto& f = sweep.failures[k];
    json << (k > 0 ? "," : "") << "{\"event_prob\":" << f.event_prob
         << ",\"rounds\":" << f.rounds << ",\"events\":" << f.events
         << ",\"mean_coverage\":" << f.mean_coverage
         << ",\"requirement_hit_rate\":" << f.requirement_hit_rate << "}";
  }
  json << "],\"collusion\":[";
  for (std::size_t k = 0; k < sweep.collusion.size(); ++k) {
    const auto& c = sweep.collusion[k];
    json << (k > 0 ? "," : "") << "{\"kind\":\"" << c.kind << "\",\"size\":" << c.size
         << ",\"probes\":" << c.probes << ",\"profitable_rate\":" << c.profitable_rate
         << ",\"mean_gain\":" << c.mean_gain << ",\"max_gain\":" << c.max_gain << "}";
  }
  json << "],\"service\":{\"users\":" << service_leg.users
       << ",\"tasks\":" << service_leg.tasks << ",\"rounds\":" << service_leg.rounds
       << ",\"shards\":" << service_leg.shards << ",\"event_prob\":" << service_leg.event_prob
       << ",\"rounds_struck\":" << service_leg.events
       << ",\"survival_poison\":" << service_leg.survival_poison
       << ",\"survival_degraded\":" << service_leg.survival_degraded
       << ",\"mean_coverage_poison\":" << service_leg.mean_coverage_poison
       << ",\"mean_coverage_degraded\":" << service_leg.mean_coverage_degraded << "}";
  json << ",\"reputation\":{\"users\":" << reputation_leg.users
       << ",\"tasks\":" << reputation_leg.tasks << ",\"rounds\":" << reputation_leg.rounds
       << ",\"overclaimers\":" << reputation_leg.overclaimers
       << ",\"inflation\":" << reputation_leg.inflation
       << ",\"overclaimer_win_rate_early\":" << reputation_leg.overclaimer_win_rate_early
       << ",\"overclaimer_win_rate_late\":" << reputation_leg.overclaimer_win_rate_late
       << ",\"mean_overclaimer_weight\":" << reputation_leg.mean_overclaimer_weight
       << ",\"mean_honest_weight\":" << reputation_leg.mean_honest_weight
       << ",\"flagged\":" << reputation_leg.flagged << "}";
  json << ",\"replay\":\"same seed => same schedules, noise, and outcomes, bit for bit\"}";

  std::cout << json.str() << "\n";
  for (const std::string& path : {options.out, [] {
         const char* env = std::getenv("MCS_BENCH_JSON");
         return std::string(env != nullptr ? env : "");
       }()}) {
    if (path.empty()) {
      continue;
    }
    std::ofstream out(path, std::ios::app);
    out << json.str() << "\n";
  }
  // The theorem axes are hard gates even in bench mode: a nonzero count here
  // means the harness found a real divergence, not a measurement.
  return (sweep.fast_oracle_mismatches == 0 && sweep.truthful_sp_violations == 0 &&
          sweep.truthful_ir_violations == 0)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_options(argc, argv)); }
