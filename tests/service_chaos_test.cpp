// Chaos hardening of the campaign service under deterministic fault
// injection: seeded fault schedules replay bit-for-bit, retries make
// transient faults invisible, kDegradedMerge salvages rounds a dead shard
// would otherwise poison, the watchdog unwedges a stalled round, failing
// sinks are quarantined, a failed journal append quarantines journaling
// while the on-disk prefix stays replayable, and a queue-handoff fault
// fails the round loudly instead of dropping it.
#include "service/service.hpp"

#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace mcs::service {
namespace {

using common::FailPoint;
using common::FailPointSpec;
using common::FaultInjector;

// Straddler-free celled round: user i bids on exactly task i % t, tasks
// pinned to cells 0..t-1, so a 4-shard service has 4 live slices and a
// first attempt's kShardRun hit is its slice index (attempt a of slice s
// is hit a·4 + s). With n/t >= 3 users per task at PoS >= 0.35 every task
// clears its 0.5 requirement (1 - 0.65^3 ≈ 0.73), so a fault-free round —
// and every surviving shard of a degraded one — is feasible by
// construction.
GeoRound chaos_round(std::size_t n, std::size_t t, std::uint64_t seed) {
  GeoRound round;
  common::Rng rng(seed);
  round.instance.requirement_pos.assign(t, 0.5);
  round.instance.users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auction::MultiTaskUserBid bid;
    bid.cost = rng.uniform(1.0, 10.0);
    bid.tasks = {static_cast<auction::TaskIndex>(i % t)};
    bid.pos = {rng.uniform(0.35, 0.6)};
    round.instance.users.push_back(std::move(bid));
  }
  for (std::size_t j = 0; j < t; ++j) {
    round.task_cells.push_back(static_cast<geo::CellId>(j));
  }
  return round;
}

std::shared_ptr<FaultInjector> shard_fault_injector(std::uint64_t seed,
                                                    const FailPointSpec& spec) {
  auto injector = std::make_shared<FaultInjector>(seed);
  injector->configure(FailPoint::kShardRun, spec);
  return injector;
}

struct RoundDigest {
  auction::AuctionStatus status;
  std::string error;
  std::size_t winners;
  std::size_t uncovered;
  std::size_t shard_retries;
};

std::vector<RoundDigest> run_chaos_campaign(const ServiceConfig& config,
                                            std::size_t rounds) {
  CampaignService service{config};
  for (std::uint64_t k = 0; k < rounds; ++k) {
    service.submit_round(chaos_round(24, 8, 1000 + k));
  }
  std::vector<RoundDigest> digests;
  for (std::uint64_t k = 0; k < rounds; ++k) {
    const auto outcome = service.wait_outcome(k);
    digests.push_back({outcome.status, outcome.error, outcome.outcome.allocation.winners.size(),
                       outcome.outcome.uncovered_tasks.size(), outcome.shard_retries});
    // Exactly-once delivery holds under chaos too.
    EXPECT_THROW(service.wait_outcome(k), common::PreconditionError);
  }
  return digests;
}

// ---------------------------------------------------------------------------
// The smoke contract: a seeded chaos run completes every round, never drops
// one, and the same seed replays the same per-round statuses bit-for-bit.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, SeededScheduleReplaysBitForBit) {
  constexpr std::size_t kRounds = 10;
  ServiceConfig config;
  config.shards = ShardMap(4);
  config.merge_policy = MergePolicy::kDegradedMerge;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_seconds = 0.0;  // keep the test fast

  FailPointSpec shard_faults;
  shard_faults.fail_prob = 0.35;

  config.fault_injector = shard_fault_injector(20260808, shard_faults);
  const auto first = run_chaos_campaign(config, kRounds);
  ASSERT_EQ(first.size(), kRounds);

  config.fault_injector = shard_fault_injector(20260808, shard_faults);
  const auto replay = run_chaos_campaign(config, kRounds);

  std::size_t clean = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    EXPECT_EQ(first[k].status, replay[k].status) << "round " << k;
    EXPECT_EQ(first[k].error, replay[k].error) << "round " << k;
    EXPECT_EQ(first[k].winners, replay[k].winners) << "round " << k;
    EXPECT_EQ(first[k].uncovered, replay[k].uncovered) << "round " << k;
    EXPECT_EQ(first[k].shard_retries, replay[k].shard_retries) << "round " << k;
    // Every round resolves to one of the ladder's terminal statuses.
    EXPECT_TRUE(first[k].status == auction::AuctionStatus::kOk ||
                first[k].status == auction::AuctionStatus::kDegraded ||
                first[k].status == auction::AuctionStatus::kTimedOut ||
                first[k].status == auction::AuctionStatus::kFailed);
    clean += first[k].status == auction::AuctionStatus::kOk ? 1 : 0;
  }
  // At p=0.35 per attempt with one retry, a 10-round campaign has some
  // injected chaos and some survivors — a schedule that is all-clean or
  // all-dead would mean the injector is not actually wired through.
  EXPECT_LT(clean, kRounds);
  EXPECT_GT(clean, 0u);
}

TEST(ServiceChaos, DifferentSeedsProduceDifferentSchedules) {
  ServiceConfig config;
  config.shards = ShardMap(4);
  config.merge_policy = MergePolicy::kDegradedMerge;
  config.retry.initial_backoff_seconds = 0.0;

  FailPointSpec shard_faults;
  shard_faults.fail_prob = 0.5;

  config.fault_injector = shard_fault_injector(1, shard_faults);
  const auto a = run_chaos_campaign(config, 8);
  config.fault_injector = shard_fault_injector(2, shard_faults);
  const auto b = run_chaos_campaign(config, 8);
  bool differ = false;
  for (std::size_t k = 0; k < a.size() && !differ; ++k) {
    differ = a[k].status != b[k].status || a[k].error != b[k].error;
  }
  EXPECT_TRUE(differ);
}

// ---------------------------------------------------------------------------
// Order-free fault coordinates: attempt a of slot s in an S-slot round is
// kShardRun hit a·S + s, so no coordinate depends on which sibling failed
// first and a parallel retry replays bit for bit at any worker count.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, RetryCoordinatesDependOnlyOnAttemptAndSlot) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ServiceConfig config;
    config.shards = ShardMap(4);
    config.workers = workers;
    config.retry.max_attempts = 2;
    config.retry.initial_backoff_seconds = 0.0;
    FailPointSpec faults;
    // Hit 0 is slot 0's first attempt and hit 4 = 1·4 + 0 its retry, so
    // slot 0 dies on both attempts while slots 1–3 never fail.
    faults.fail_at = {{0, 0}, {0, 4}};
    config.fault_injector = shard_fault_injector(7, faults);
    CampaignService service{config};
    const auto outcome = service.wait_outcome(service.submit_round(chaos_round(24, 8, 7)));
    EXPECT_EQ(outcome.status, auction::AuctionStatus::kFailed) << "workers " << workers;
    EXPECT_NE(outcome.error.find("shard 0: " + common::injected_fault_message(
                                                   FailPoint::kShardRun, 0, 4)),
              std::string::npos)
        << "workers " << workers << ": " << outcome.error;
    EXPECT_EQ(outcome.shard_retries, 1u) << "workers " << workers;
  }
}

TEST(ServiceChaos, SeededScheduleReplaysAcrossWorkerCounts) {
  constexpr std::size_t kRounds = 10;
  ServiceConfig config;
  config.shards = ShardMap(4);
  config.merge_policy = MergePolicy::kDegradedMerge;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_seconds = 0.0;
  FailPointSpec shard_faults;
  shard_faults.fail_prob = 0.35;

  config.workers = 1;
  config.fault_injector = shard_fault_injector(20260808, shard_faults);
  const auto serial = run_chaos_campaign(config, kRounds);
  config.workers = 4;
  config.fault_injector = shard_fault_injector(20260808, shard_faults);
  const auto parallel = run_chaos_campaign(config, kRounds);

  ASSERT_EQ(serial.size(), kRounds);
  ASSERT_EQ(parallel.size(), kRounds);
  for (std::size_t k = 0; k < kRounds; ++k) {
    EXPECT_EQ(serial[k].status, parallel[k].status) << "round " << k;
    EXPECT_EQ(serial[k].error, parallel[k].error) << "round " << k;
    EXPECT_EQ(serial[k].winners, parallel[k].winners) << "round " << k;
    EXPECT_EQ(serial[k].uncovered, parallel[k].uncovered) << "round " << k;
    EXPECT_EQ(serial[k].shard_retries, parallel[k].shard_retries) << "round " << k;
  }
}

// ---------------------------------------------------------------------------
// Retry: a transient injected fault plus one retry is invisible in the
// outcome — bit-identical to the fault-free run, visible only in telemetry.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, RetryMakesATransientFaultInvisible) {
  ServiceConfig config;
  config.shards = ShardMap(4);
  CampaignService clean_service{config};
  const auto clean = clean_service.wait_outcome(clean_service.submit_round(chaos_round(24, 8, 7)));
  ASSERT_TRUE(clean.ok());

  ServiceConfig faulty = config;
  faulty.retry.max_attempts = 3;
  faulty.retry.initial_backoff_seconds = 0.0;
  FailPointSpec transient;
  transient.fail_at = {{0, 1}};  // round 0, first attempt of slice 1 only
  faulty.fault_injector = shard_fault_injector(3, transient);
  CampaignService service{faulty};
  const auto healed = service.wait_outcome(service.submit_round(chaos_round(24, 8, 7)));

  EXPECT_EQ(healed.status, clean.status);
  EXPECT_TRUE(healed.error.empty());
  EXPECT_EQ(healed.shard_retries, 1u);
  EXPECT_EQ(service.stats().shard_retries, 1u);
  test::expect_identical_outcome(healed.outcome, clean.outcome);
}

// ---------------------------------------------------------------------------
// Merge policy under a persistently dead shard: poison vs salvage.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, DeadShardPoisonsOrDegradesByPolicy) {
  FailPointSpec dead_shard;
  dead_shard.fail_at = {{0, 1}};  // round 0, slice 1; no retries => permanent

  ServiceConfig config;
  config.shards = ShardMap(4);

  config.merge_policy = MergePolicy::kPoisonRound;
  config.fault_injector = shard_fault_injector(4, dead_shard);
  CampaignService poisoned{config};
  const auto poison = poisoned.wait_outcome(poisoned.submit_round(chaos_round(24, 8, 9)));
  EXPECT_EQ(poison.status, auction::AuctionStatus::kFailed);
  EXPECT_NE(poison.error.find("shard 1: " + common::injected_fault_message(
                                                FailPoint::kShardRun, 0, 1)),
            std::string::npos)
      << poison.error;
  EXPECT_TRUE(poison.outcome.allocation.winners.empty());

  config.merge_policy = MergePolicy::kDegradedMerge;
  config.fault_injector = shard_fault_injector(4, dead_shard);
  CampaignService degraded{config};
  const auto salvage = degraded.wait_outcome(degraded.submit_round(chaos_round(24, 8, 9)));
  EXPECT_EQ(salvage.status, auction::AuctionStatus::kDegraded);
  EXPECT_TRUE(salvage.outcome.degraded);
  EXPECT_FALSE(salvage.outcome.allocation.feasible);
  EXPECT_NE(salvage.error.find("shard 1:"), std::string::npos);
  // Shard 1 of an 8-task round over ShardMap(4) owns cells {1, 5}: exactly
  // those tasks are uncovered, and the survivors still field winners.
  EXPECT_FALSE(salvage.outcome.allocation.winners.empty());
  EXPECT_EQ(salvage.outcome.uncovered_tasks, (std::vector<auction::TaskIndex>{1, 5}));
  EXPECT_EQ(degraded.stats().degraded, 1u);
}

// ---------------------------------------------------------------------------
// Watchdog: a wedged round is abandoned as kTimedOut and the dispatcher
// keeps serving the rounds behind it.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, WatchdogUnwedgesAStalledRound) {
  ServiceConfig config;
  config.shards = ShardMap(4);
  config.watchdog_seconds = 0.75;  // generous margins for sanitizer builds
  FailPointSpec stall;
  stall.stall_at = {{0, 0}};  // round 0, slice 0 stalls well past the watchdog
  stall.stall_seconds = 3.0;
  config.fault_injector = shard_fault_injector(5, stall);

  CampaignService service{config};
  const auto stalled_id = service.submit_round(chaos_round(24, 8, 11));
  const auto healthy_id = service.submit_round(chaos_round(24, 8, 12));

  const auto stalled = service.wait_outcome(stalled_id);
  EXPECT_EQ(stalled.status, auction::AuctionStatus::kTimedOut);
  EXPECT_NE(stalled.error.find("watchdog"), std::string::npos) << stalled.error;
  EXPECT_GE(stalled.latency_seconds, config.watchdog_seconds);

  const auto healthy = service.wait_outcome(healthy_id);
  EXPECT_TRUE(healthy.ok()) << healthy.error;
  EXPECT_EQ(service.stats().watchdog_fires, 1u);
  // Destruction joins the abandoned runner (bounded by the injected stall).
}

// ---------------------------------------------------------------------------
// Sink quarantine: repeated sink failures isolate the sink, not the round.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, RepeatOffenderSinkIsQuarantined) {
  ServiceConfig config;
  config.sink_quarantine_failures = 2;
  CampaignService service{config};
  std::size_t broken_calls = 0;
  service.stream_telemetry([&](const RoundTelemetry&) {
    ++broken_calls;
    throw std::runtime_error("dashboard on fire");
  });
  std::size_t healthy_calls = 0;
  service.stream_telemetry([&](const RoundTelemetry&) { ++healthy_calls; });

  std::vector<RoundId> ids;
  for (std::uint64_t k = 0; k < 4; ++k) {
    ids.push_back(service.submit_round(chaos_round(24, 8, 20 + k)));
  }
  service.drain();

  // Two strikes, then the broken sink stops being invoked; the healthy sink
  // and the rounds themselves never miss a beat.
  EXPECT_EQ(broken_calls, 2u);
  EXPECT_EQ(healthy_calls, 4u);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto outcome = service.poll_outcome(ids[k]);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->ok()) << outcome->error;
    if (k < 2) {
      ASSERT_EQ(outcome->sink_errors.size(), 1u) << "round " << k;
      EXPECT_NE(outcome->sink_errors.front().find("dashboard on fire"), std::string::npos);
    } else {
      EXPECT_TRUE(outcome->sink_errors.empty()) << "round " << k;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.sink_failures, 2u);
  EXPECT_EQ(stats.sinks_quarantined, 1u);
}

TEST(ServiceChaos, SlowSinkCountsAsAFailure) {
  ServiceConfig config;
  config.sink_quarantine_failures = 1;
  config.sink_slow_seconds = 0.01;
  CampaignService service{config};
  std::size_t slow_calls = 0;
  service.stream_telemetry([&](const RoundTelemetry&) {
    ++slow_calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  service.submit_round(chaos_round(24, 8, 30));
  service.submit_round(chaos_round(24, 8, 31));
  service.drain();
  EXPECT_EQ(slow_calls, 1u);  // quarantined after the first slow delivery
  const auto first = service.poll_outcome(0);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->sink_errors.size(), 1u);
  EXPECT_NE(first->sink_errors.front().find("time budget"), std::string::npos);
  EXPECT_EQ(service.stats().sinks_quarantined, 1u);
}

// ---------------------------------------------------------------------------
// Journal append fault: the round stands, journaling quarantines, and the
// on-disk journal stays a valid replayable prefix.
// ---------------------------------------------------------------------------

class ChaosJournalFixture : public ::testing::Test {
 protected:
  ChaosJournalFixture() {
    journal_path_ =
        std::filesystem::temp_directory_path() /
        ("mcs_chaos_journal_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".journal");
    std::filesystem::remove(journal_path_);
  }
  ~ChaosJournalFixture() override { std::filesystem::remove(journal_path_); }

  std::filesystem::path journal_path_;
};

TEST_F(ChaosJournalFixture, FailedAppendQuarantinesJournalingButKeepsThePrefix) {
  ServiceConfig config;
  config.journal_path = journal_path_;
  auto injector = std::make_shared<FaultInjector>(6);
  FailPointSpec append_fault;
  append_fault.fail_at = {{1, 0}};  // round 1's append fails
  injector->configure(FailPoint::kJournalAppend, append_fault);
  config.fault_injector = injector;
  {
    CampaignService service{config};
    for (std::uint64_t k = 0; k < 3; ++k) {
      service.submit_round(chaos_round(24, 8, 40 + k));
    }
    const auto journaled = service.wait_outcome(0);
    EXPECT_TRUE(journaled.ok());
    EXPECT_TRUE(journaled.journal_error.empty());
    const auto dropped = service.wait_outcome(1);
    EXPECT_TRUE(dropped.ok());  // the outcome stands; only durability is lost
    EXPECT_NE(dropped.journal_error.find("journal append failed"), std::string::npos)
        << dropped.journal_error;
    // One failure quarantines journaling for the lifetime: round 2 is not
    // appended either (a skipped block would break round contiguity).
    EXPECT_FALSE(service.wait_outcome(2).journal_error.empty());
    EXPECT_EQ(service.stats().journal_append_failures, 2u);
  }

  // The file is a valid one-round prefix; a restart replays it and
  // recomputes the rest.
  ServiceConfig resume = config;
  resume.fault_injector = nullptr;
  CampaignService resumed{resume};
  EXPECT_EQ(resumed.journaled_rounds(), 1u);
}

// ---------------------------------------------------------------------------
// Queue handoff fault: the round fails loudly — it is never silently
// dropped, and the ids around it are unaffected.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, QueueHandoffFaultFailsTheRoundLoudly) {
  ServiceConfig config;
  auto injector = std::make_shared<FaultInjector>(8);
  FailPointSpec handoff;
  handoff.fail_at = {{1, 0}};  // round 1 dies at the queue handoff
  injector->configure(FailPoint::kQueueHandoff, handoff);
  config.fault_injector = injector;
  CampaignService service{config};
  for (std::uint64_t k = 0; k < 3; ++k) {
    service.submit_round(chaos_round(24, 8, 50 + k));
  }
  EXPECT_TRUE(service.wait_outcome(0).ok());
  const auto dropped = service.wait_outcome(1);
  EXPECT_EQ(dropped.status, auction::AuctionStatus::kFailed);
  EXPECT_EQ(dropped.error,
            common::injected_fault_message(FailPoint::kQueueHandoff, 1, 0));
  EXPECT_TRUE(service.wait_outcome(2).ok());
}

}  // namespace
}  // namespace mcs::service
