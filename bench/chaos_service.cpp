// Chaos harness for the campaign service (ISSUE-7): drives 100k-user rounds
// through service::CampaignService under seeded fault schedules and records
// survival rates and recovery latency into bench/results/chaos_service.json.
//
// Three sweeps, all replayable bit-for-bit from their seeds, after one
// untimed warm-up pass over the rounds:
//
//   1. Shard-fault ladder — the same kShardRun failure probability under
//      {kPoisonRound/no-retry, kPoisonRound/retry=3, kDegradedMerge/retry=3},
//      same injector seed throughout, so the scenario deltas isolate each
//      recovery rung: retries turn transiently-dead rounds back into clean
//      ones, and degraded merge converts the remaining poisoned rounds into
//      partial coverage. Survival = rounds with a usable outcome (ok or
//      degraded); coverage = mean covered-task fraction with failed rounds
//      counting 0. Each scenario runs twice, on a fresh service and a fresh
//      injector with the same seed; the harness exits 1, naming the round,
//      unless the second run replays the first bit for bit.
//
//   2. Watchdog — one injected stall far past the watchdog budget: the
//      stalled round's recovery latency (detect + abandon + publish) is
//      bounded by watchdog_seconds while the rounds behind it keep flowing.
//
//   3. Correlated cell failures (EXPERIMENTS.md) — sim::draw_cell_failure
//      picks a weather-struck cell per round; the owning shard is killed via
//      a fail_at schedule (cell → shard is ShardMap's modulo, so a weather
//      event IS the per-shard blast-radius scenario). Identical event
//      schedules under both merge policies compare coverage head to head.
//
// Usage: chaos_service [--users N] [--tasks T] [--rounds R] [--shards S]
//                      [--fail-prob P] [--seed SEED] [--out FILE]
// The JSON record also goes to stdout and, when MCS_BENCH_JSON names a file,
// to that file (the bench/results convention).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "service/service.hpp"
#include "sim/failures.hpp"

namespace {

using namespace mcs;

struct Options {
  std::size_t users = 100000;
  std::size_t tasks = 128;
  std::size_t rounds = 10;
  std::size_t shards = 8;
  double fail_prob = 0.08;
  std::uint64_t seed = 20260808;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const std::string value = argv[k + 1];
    if (flag == "--users") {
      options.users = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--tasks") {
      options.tasks = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--rounds") {
      options.rounds = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--shards") {
      options.shards = static_cast<std::size_t>(std::stoull(value));
    } else if (flag == "--fail-prob") {
      options.fail_prob = std::stod(value);
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--out") {
      options.out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  return options;
}

/// Residue-pure round mod `shards` (task j in cell j, every user's task set
/// inside one residue class), so no user straddles shards and every shard
/// owns tasks — a first attempt's kShardRun hit is its shard id (attempt a
/// of shard s is hit a·shards + s). Same workload shape as
/// bench/service_load.
service::GeoRound make_round(std::size_t users, std::size_t tasks, std::size_t shards,
                             std::uint64_t seed) {
  service::GeoRound round;
  round.instance.requirement_pos.assign(tasks, 0.35);
  round.task_cells.reserve(tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  common::Rng rng(seed);
  round.instance.users.reserve(users);
  for (std::size_t i = 0; i < users; ++i) {
    auction::MultiTaskUserBid bid;
    bid.cost = rng.uniform(5.0, 25.0);
    const auto group =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(shards) - 1));
    for (std::size_t j = group; j < tasks; j += shards) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        bid.tasks.push_back(static_cast<auction::TaskIndex>(j));
        bid.pos.push_back(rng.uniform(0.1, 0.5));
      }
    }
    if (bid.tasks.empty()) {
      bid.tasks.push_back(static_cast<auction::TaskIndex>(group));
      bid.pos.push_back(rng.uniform(0.1, 0.5));
    }
    round.instance.users.push_back(std::move(bid));
  }
  return round;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Covered-task fraction of one settled round: failed/timed-out rounds cover
/// nothing, usable rounds cover everything minus their uncovered list.
double coverage_of(const service::RoundOutcome& outcome, std::size_t tasks) {
  if (!outcome.ok()) {
    return 0.0;
  }
  return static_cast<double>(tasks - outcome.outcome.uncovered_tasks.size()) /
         static_cast<double>(tasks);
}

/// One settled round's observable result: what a same-seed rerun must
/// reproduce bit for bit.
struct RoundDigest {
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  std::string error;
  std::size_t winners = 0;
  std::vector<auction::TaskIndex> uncovered;
  std::size_t shard_retries = 0;

  bool operator==(const RoundDigest&) const = default;
};

struct ScenarioResult {
  std::string name;
  std::vector<RoundDigest> digests;  ///< per round, in round order
  std::size_t rounds_ok = 0;
  std::size_t rounds_degraded = 0;
  std::size_t rounds_failed = 0;
  std::size_t shard_retries = 0;
  double survival_rate = 0.0;
  double mean_coverage = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

ScenarioResult run_scenario(const std::string& name, const Options& options,
                            const std::vector<service::GeoRound>& rounds,
                            service::MergePolicy policy, std::size_t max_attempts) {
  service::ServiceConfig config;
  config.shards = service::ShardMap(options.shards);
  config.queue_capacity = options.rounds;
  config.merge_policy = policy;
  config.retry.max_attempts = max_attempts;
  config.retry.initial_backoff_seconds = 0.001;
  auto injector = std::make_shared<common::FaultInjector>(options.seed);
  common::FailPointSpec shard_faults;
  shard_faults.fail_prob = options.fail_prob;
  injector->configure(common::FailPoint::kShardRun, shard_faults);
  config.fault_injector = injector;

  service::CampaignService campaign_service(config);
  for (const auto& round : rounds) {
    campaign_service.submit_round(round);
  }
  ScenarioResult result;
  result.name = name;
  std::vector<double> latencies;
  double coverage_sum = 0.0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto outcome = campaign_service.wait_outcome(r);
    switch (outcome.status) {
      case auction::AuctionStatus::kOk:
        ++result.rounds_ok;
        break;
      case auction::AuctionStatus::kDegraded:
        ++result.rounds_degraded;
        break;
      default:
        ++result.rounds_failed;
        break;
    }
    coverage_sum += coverage_of(outcome, options.tasks);
    latencies.push_back(outcome.latency_seconds);
    result.digests.push_back(RoundDigest{outcome.status, outcome.error,
                                         outcome.outcome.allocation.winners.size(),
                                         outcome.outcome.uncovered_tasks, outcome.shard_retries});
  }
  result.shard_retries = static_cast<std::size_t>(campaign_service.stats().shard_retries);
  result.survival_rate =
      static_cast<double>(result.rounds_ok + result.rounds_degraded) /
      static_cast<double>(rounds.size());
  result.mean_coverage = coverage_sum / static_cast<double>(rounds.size());
  result.p50_latency_ms = percentile(latencies, 0.50) * 1e3;
  result.p99_latency_ms = percentile(latencies, 0.99) * 1e3;
  std::cerr << name << ": survival " << result.survival_rate << ", coverage "
            << result.mean_coverage << ", retries " << result.shard_retries << ", p50 "
            << result.p50_latency_ms << " ms\n";
  return result;
}

/// Runs `rounds` once on a fault-free service and discards the outcomes, so
/// the first ladder scenario is not the process's first work. On 4 vCPUs,
/// without it the first scenario's p50 read ~2.5x its same-seed rerun in the
/// same process; one warm-up round left that gap (99 vs 37 ms), and a pass
/// over all the rounds closes it (38.7 vs 40.0 ms).
void warm_up(const Options& options, const std::vector<service::GeoRound>& rounds) {
  service::ServiceConfig config;
  config.shards = service::ShardMap(options.shards);
  config.queue_capacity = options.rounds;
  service::CampaignService campaign_service(config);
  for (const auto& round : rounds) {
    campaign_service.submit_round(round);
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    campaign_service.wait_outcome(r);
  }
}

/// Exits 1, naming the first differing round, unless `replay` (the same
/// scenario rerun on a fresh service and a fresh same-seed injector)
/// reproduces `first` bit for bit.
void check_replay(const ScenarioResult& first, const ScenarioResult& replay) {
  for (std::size_t r = 0; r < first.digests.size(); ++r) {
    const RoundDigest& a = first.digests[r];
    const RoundDigest& b = replay.digests[r];
    if (!(a == b)) {
      std::cerr << first.name << ": round " << r << " did not replay bit for bit (status "
                << auction::to_string(a.status) << " vs " << auction::to_string(b.status)
                << ", winners " << a.winners << " vs " << b.winners << ", uncovered "
                << a.uncovered.size() << " vs " << b.uncovered.size() << ", shard_retries "
                << a.shard_retries << " vs " << b.shard_retries << ", error '" << a.error
                << "' vs '" << b.error << "')\n";
      std::exit(1);
    }
  }
  std::cerr << first.name << ": same-seed rerun replayed all " << first.digests.size()
            << " rounds bit for bit\n";
}

struct WatchdogResult {
  double watchdog_seconds = 0.0;
  double stalled_recovery_ms = 0.0;  ///< latency of the abandoned round
  double healthy_p50_ms = 0.0;       ///< the rounds behind it keep flowing
  std::size_t watchdog_fires = 0;
};

WatchdogResult run_watchdog(const Options& options,
                            const std::vector<service::GeoRound>& rounds) {
  service::ServiceConfig config;
  config.shards = service::ShardMap(options.shards);
  config.queue_capacity = options.rounds;
  config.watchdog_seconds = 0.5;
  auto injector = std::make_shared<common::FaultInjector>(options.seed + 1);
  common::FailPointSpec stall;
  stall.stall_at = {{1, 0}};  // round 1's first shard wedges...
  stall.stall_seconds = 2.0;  // ...for 4x the watchdog budget
  injector->configure(common::FailPoint::kShardRun, stall);
  config.fault_injector = injector;

  WatchdogResult result;
  result.watchdog_seconds = config.watchdog_seconds;
  service::CampaignService campaign_service(config);
  for (const auto& round : rounds) {
    campaign_service.submit_round(round);
  }
  std::vector<double> healthy;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto outcome = campaign_service.wait_outcome(r);
    if (r == 1) {
      if (outcome.status != auction::AuctionStatus::kTimedOut) {
        std::cerr << "expected the stalled round to time out, got " << outcome.error << "\n";
        std::exit(1);
      }
      result.stalled_recovery_ms = outcome.latency_seconds * 1e3;
    } else {
      healthy.push_back(outcome.latency_seconds);
    }
  }
  result.healthy_p50_ms = percentile(healthy, 0.50) * 1e3;
  result.watchdog_fires = static_cast<std::size_t>(campaign_service.stats().watchdog_fires);
  std::cerr << "watchdog: stalled round recovered in " << result.stalled_recovery_ms
            << " ms (budget " << result.watchdog_seconds * 1e3 << " ms), healthy p50 "
            << result.healthy_p50_ms << " ms\n";
  return result;
}

struct CellFailureResult {
  std::size_t users = 0;
  std::size_t tasks = 0;
  std::size_t rounds = 0;
  double event_prob = 0.0;
  std::size_t events = 0;
  double mean_coverage_poison = 0.0;
  double mean_coverage_degraded = 0.0;
  double survival_poison = 0.0;
  double survival_degraded = 0.0;
};

/// The EXPERIMENTS.md comparison: per-round weather events (drawn once,
/// replayed under both policies) kill the shard owning the struck cell.
CellFailureResult run_cell_failures(const Options& options) {
  CellFailureResult result;
  result.users = std::max<std::size_t>(options.users / 5, 1000);
  result.tasks = 64;
  result.rounds = 20;
  result.event_prob = 0.35;

  const service::ShardMap shard_map(options.shards);
  sim::CellFailureModel model;
  model.event_prob = result.event_prob;
  for (std::size_t j = 0; j < result.tasks; ++j) {
    model.cells.push_back(static_cast<geo::CellId>(j));
  }
  // One event schedule for both policies: the drawn cell's owning shard dies
  // on its (only) attempt that round — a first attempt's hit is its shard
  // id, and retries are off.
  common::Rng event_rng(options.seed + 2);
  common::FailPointSpec shard_faults;
  std::size_t events = 0;
  for (std::size_t r = 0; r < result.rounds; ++r) {
    const auto event = sim::draw_cell_failure(model, event_rng);
    if (event.occurred) {
      ++events;
      shard_faults.fail_at.push_back(
          {static_cast<std::uint64_t>(r),
           static_cast<std::uint64_t>(shard_map.shard_of(event.cell))});
    }
  }
  result.events = events;

  std::vector<service::GeoRound> rounds;
  rounds.reserve(result.rounds);
  for (std::size_t r = 0; r < result.rounds; ++r) {
    rounds.push_back(
        make_round(result.users, result.tasks, options.shards, options.seed + 100 + r));
  }

  for (const auto policy :
       {service::MergePolicy::kPoisonRound, service::MergePolicy::kDegradedMerge}) {
    service::ServiceConfig config;
    config.shards = shard_map;
    config.queue_capacity = result.rounds;
    config.merge_policy = policy;
    auto injector = std::make_shared<common::FaultInjector>(options.seed + 3);
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
      coverage_sum += coverage_of(outcome, result.tasks);
      usable += outcome.ok() ? 1 : 0;
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
  std::cerr << "cell failures: " << events << "/" << result.rounds
            << " rounds struck; coverage poison " << result.mean_coverage_poison
            << " vs degraded " << result.mean_coverage_degraded << "\n";
  return result;
}

int run(const Options& options) {
  std::cerr << "generating " << options.rounds << " rounds of " << options.users << " users x "
            << options.tasks << " tasks over " << options.shards << " shards\n";
  std::vector<service::GeoRound> rounds;
  rounds.reserve(options.rounds);
  for (std::size_t r = 0; r < options.rounds; ++r) {
    rounds.push_back(make_round(options.users, options.tasks, options.shards, 1000 + r));
  }

  struct Ladder {
    const char* name;
    service::MergePolicy policy;
    std::size_t max_attempts;
  };
  warm_up(options, rounds);
  std::vector<ScenarioResult> scenarios;
  for (const Ladder& rung : {Ladder{"poison_no_retry", service::MergePolicy::kPoisonRound, 1},
                             Ladder{"poison_retry3", service::MergePolicy::kPoisonRound, 3},
                             Ladder{"degraded_retry3", service::MergePolicy::kDegradedMerge, 3}}) {
    scenarios.push_back(run_scenario(rung.name, options, rounds, rung.policy, rung.max_attempts));
    check_replay(scenarios.back(),
                 run_scenario(rung.name, options, rounds, rung.policy, rung.max_attempts));
  }
  const auto watchdog = run_watchdog(options, rounds);
  const auto cell_failures = run_cell_failures(options);

  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::ostringstream json;
  json << "{\"bench\":\"chaos_service\",\"users\":" << options.users
       << ",\"tasks\":" << options.tasks << ",\"rounds\":" << options.rounds
       << ",\"shards\":" << options.shards << ",\"shard_fail_prob\":" << options.fail_prob
       << ",\"injector_seed\":" << options.seed << ",\"available_cores\":" << cores
       << ",\"scenarios\":[";
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    const auto& s = scenarios[k];
    json << (k > 0 ? "," : "") << "{\"name\":\"" << s.name << "\",\"rounds_ok\":" << s.rounds_ok
         << ",\"rounds_degraded\":" << s.rounds_degraded
         << ",\"rounds_failed\":" << s.rounds_failed << ",\"shard_retries\":" << s.shard_retries
         << ",\"survival_rate\":" << s.survival_rate
         << ",\"mean_coverage\":" << s.mean_coverage
         << ",\"p50_latency_ms\":" << s.p50_latency_ms
         << ",\"p99_latency_ms\":" << s.p99_latency_ms << "}";
  }
  json << "],\"watchdog\":{\"budget_ms\":" << watchdog.watchdog_seconds * 1e3
       << ",\"stalled_recovery_ms\":" << watchdog.stalled_recovery_ms
       << ",\"healthy_p50_ms\":" << watchdog.healthy_p50_ms
       << ",\"fires\":" << watchdog.watchdog_fires << "}";
  json << ",\"cell_failure\":{\"users\":" << cell_failures.users
       << ",\"tasks\":" << cell_failures.tasks << ",\"rounds\":" << cell_failures.rounds
       << ",\"event_prob\":" << cell_failures.event_prob
       << ",\"rounds_struck\":" << cell_failures.events
       << ",\"survival_poison\":" << cell_failures.survival_poison
       << ",\"survival_degraded\":" << cell_failures.survival_degraded
       << ",\"mean_coverage_poison\":" << cell_failures.mean_coverage_poison
       << ",\"mean_coverage_degraded\":" << cell_failures.mean_coverage_degraded << "}";
  json << ",\"replay\":\"same seed => same per-round statuses, bit for bit (each scenario "
          "rerun and checked)\"}";

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
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_options(argc, argv)); }
