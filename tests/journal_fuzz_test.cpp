// Crash-recovery fuzz for BOTH journal formats (mcs-journal-v1 and
// mcs-service-journal-v1, the latter with round blocks alone and with round
// and epoch blocks interleaved). The durability contract under corruption:
//   * truncation at ANY byte offset is a torn tail — parsing never throws,
//     yields a prefix of the intact journal's records, and reports a
//     valid_bytes that reparses idempotently;
//   * a flipped byte either lands in the dropped tail (parse succeeds with a
//     valid prefix) or is corruption before the last complete block (parse
//     throws PreconditionError) — never a silent wrong record set.
// The mutation drivers are fuzz_drivers.hpp's, shared with input_fuzz_test.
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "fuzz_drivers.hpp"
#include "platform/journal.hpp"
#include "service/journal.hpp"

namespace {

// ---------------------------------------------------------------------------
// Corpus builders: a handful of complete blocks in each format, exercising
// the optional directives (error lines, rewards, uncovered tasks).
// ---------------------------------------------------------------------------

std::string platform_journal_text() {
  std::string text = "mcs-journal-v1\nconfig seed=77 tasks=6 alpha=10\n";
  for (std::size_t round = 0; round < 4; ++round) {
    mcs::platform::JournalEntry entry;
    entry.report.round = round;
    entry.report.held = round != 2;
    entry.report.winners = round;
    entry.report.social_cost = 1.5 * static_cast<double>(round);
    entry.report.payout = 2.25 * static_cast<double>(round);
    entry.report.tasks_posted = 6;
    entry.report.tasks_completed = round + 1;
    entry.report.mean_required_pos = 0.6;
    entry.report.mean_achieved_pos = 0.7;
    for (std::size_t w = 0; w < round; ++w) {
      entry.report.winning_taxis.push_back(static_cast<mcs::trace::TaxiId>(10 * round + w));
    }
    if (round == 2) {
      entry.report.error = "engine: deadline exceeded";
    }
    entry.positions = {5, 17, 23};
    entry.rng_state = {round + 1, round + 2, round + 3, round + 4};
    entry.reputation.push_back(
        {static_cast<mcs::trace::TaxiId>(round), {}});
    text += mcs::platform::to_text(entry);
  }
  return text;
}

std::string service_journal_text() {
  std::string text =
      "mcs-service-journal-v1\nconfig shards=4 policy=0 alpha=10\n";
  for (std::size_t round = 0; round < 4; ++round) {
    mcs::service::ServiceJournalRecord record;
    record.round = round;
    record.users = 100 + round;
    record.tasks = 12;
    record.shards_run = 4;
    record.straddlers = round;
    switch (round) {
      case 0:
        record.status = mcs::auction::AuctionStatus::kOk;
        record.outcome.allocation.feasible = true;
        record.outcome.allocation.winners = {1, 5, 9};
        record.outcome.allocation.total_cost = 37.25;
        for (mcs::auction::UserId user : record.outcome.allocation.winners) {
          mcs::auction::WinnerReward reward;
          reward.user = user;
          reward.critical_contribution = 0.5;
          reward.reward = {0.4, 12.5, 10.0};
          record.outcome.rewards.push_back(reward);
        }
        break;
      case 1:
        record.status = mcs::auction::AuctionStatus::kDegraded;
        record.outcome.degraded = true;
        record.outcome.allocation.winners = {2};
        record.outcome.allocation.total_cost = 4.0;
        record.outcome.uncovered_tasks = {3, 7};
        record.error = "shard 1: boom; shard 3: deadline";
        break;
      case 2:
        record.status = mcs::auction::AuctionStatus::kFailed;
        record.error = "shard 0: injected fault at shard-run (stream 2, hit 0)";
        break;
      default:
        record.status = mcs::auction::AuctionStatus::kTimedOut;
        record.error = "watchdog: round still running after 0.5s";
        break;
    }
    text += mcs::service::to_text(record);
  }
  return text;
}

// Rounds and online epochs interleaved (round 0, epoch 0, round 1, ...), with
// an error line in one block of each kind: both id sequences share the
// framing and its torn-tail rule.
std::string service_epoch_journal_text() {
  using mcs::auction::AuctionStatus;
  using mcs::auction::online::ArrivalPhase;
  std::string text = "mcs-service-journal-v1\nconfig shards=4 policy=0 alpha=10 online=1\n";
  for (std::size_t k = 0; k < 3; ++k) {
    mcs::service::ServiceJournalRecord round;
    round.round = k;
    round.users = 50 + k;
    round.tasks = 6;
    round.shards_run = 4;
    round.straddlers = k;
    if (k == 1) {
      round.status = AuctionStatus::kFailed;
      round.error = "shard 2: injected fault\nat shard-run";
    } else {
      round.outcome.allocation.feasible = true;
      round.outcome.allocation.winners = {static_cast<mcs::auction::UserId>(k),
                                          static_cast<mcs::auction::UserId>(k + 7)};
      round.outcome.allocation.total_cost = 3.5 + static_cast<double>(k);
      for (mcs::auction::UserId user : round.outcome.allocation.winners) {
        mcs::auction::WinnerReward reward;
        reward.user = user;
        reward.critical_contribution = 0.25 * static_cast<double>(k + 1);
        reward.reward = {0.3, 1.5, 10.0};
        round.outcome.rewards.push_back(reward);
      }
    }
    text += mcs::service::to_text(round);

    mcs::service::ServiceEpochRecord epoch;
    epoch.epoch = k;
    for (std::size_t j = 0; j < 3; ++j) {
      epoch.arrivals.push_back({static_cast<mcs::auction::UserId>(j),
                                {1.0 + static_cast<double>(j), 0.3 + 0.2 * static_cast<double>(j)}});
      mcs::auction::online::ArrivalDecision decision;
      decision.arrival = j;
      decision.user = static_cast<mcs::auction::UserId>(j);
      decision.phase = j == 0 ? ArrivalPhase::kSample : ArrivalPhase::kAccept;
      decision.stage = j == 0 ? 0 : 1;
      decision.accepted = j == 1;
      decision.threshold = j == 0 ? std::numeric_limits<double>::infinity() : 0.4;
      if (decision.accepted) {
        decision.critical_contribution = 0.36;
        decision.reward = {0.3, 2.0, 10.0};
      }
      decision.budget_remaining = j == 0 ? 50.0 : 40.0;
      epoch.outcome.decisions.push_back(decision);
    }
    epoch.outcome.sample_size = 1;
    epoch.outcome.threshold_updates = k;
    epoch.outcome.total_cost = 2.0;
    epoch.outcome.worst_case_payout = 9.0;
    epoch.outcome.achieved_contribution = 0.36;
    epoch.outcome.achieved_pos = 0.3;
    epoch.outcome.requirement_met = k != 2;
    epoch.outcome.winners = {1};
    epoch.outcome.accepted = 1;
    if (k == 2) {
      epoch.status = AuctionStatus::kFailed;
      epoch.error = "online: stage\r\nrelearn failed";
    }
    text += mcs::service::to_text(epoch);
  }
  return text;
}

// ---------------------------------------------------------------------------
// Format adaptors so one fuzz driver covers both journals.
// ---------------------------------------------------------------------------

struct PlatformFormat {
  static constexpr const char* kName = "mcs-journal-v1";
  struct Parsed {
    std::vector<std::size_t> rounds;
    std::vector<std::size_t> epochs;  ///< always empty: the format has none
    std::size_t valid_bytes = 0;
  };
  static Parsed parse(const std::string& text) {
    const auto replay = mcs::platform::parse_journal(text);
    Parsed parsed;
    parsed.valid_bytes = replay.valid_bytes;
    for (const auto& entry : replay.entries) {
      parsed.rounds.push_back(entry.report.round);
    }
    return parsed;
  }
};

struct ServiceFormat {
  static constexpr const char* kName = "mcs-service-journal-v1";
  struct Parsed {
    std::vector<std::size_t> rounds;
    std::vector<std::size_t> epochs;
    std::size_t valid_bytes = 0;
  };
  static Parsed parse(const std::string& text) {
    const auto replay = mcs::service::parse_service_journal(text);
    Parsed parsed;
    parsed.valid_bytes = replay.valid_bytes;
    for (const auto& record : replay.records) {
      parsed.rounds.push_back(static_cast<std::size_t>(record.round));
    }
    for (const auto& record : replay.epochs) {
      parsed.epochs.push_back(static_cast<std::size_t>(record.epoch));
    }
    return parsed;
  }
};

// Rounds and epochs each come back contiguous from 0, and no longer than
// the intact journal's.
template <typename Format>
void expect_contiguous_prefix(const typename Format::Parsed& parsed,
                              const typename Format::Parsed& full, const std::string& label) {
  ASSERT_LE(parsed.rounds.size(), full.rounds.size()) << label;
  for (std::size_t k = 0; k < parsed.rounds.size(); ++k) {
    EXPECT_EQ(parsed.rounds[k], k) << label;
  }
  ASSERT_LE(parsed.epochs.size(), full.epochs.size()) << label;
  for (std::size_t k = 0; k < parsed.epochs.size(); ++k) {
    EXPECT_EQ(parsed.epochs[k], k) << label;
  }
}

// Truncation at every byte offset: a crash mid-append must read back as the
// longest complete prefix, never as an error and never as extra records.
template <typename Format>
void fuzz_truncation(const std::string& intact, std::size_t blocks = 4) {
  const auto full = Format::parse(intact);
  ASSERT_EQ(full.rounds.size() + full.epochs.size(), blocks) << Format::kName;
  ASSERT_EQ(full.valid_bytes, intact.size()) << Format::kName;

  std::size_t previous_records = 0;
  mcs::test::for_each_truncation(intact, Format::kName, [&](const std::string& prefix,
                                                            const std::string& label) {
    typename Format::Parsed parsed;
    ASSERT_NO_THROW(parsed = Format::parse(prefix)) << label;
    expect_contiguous_prefix<Format>(parsed, full, label);
    EXPECT_LE(parsed.valid_bytes, prefix.size()) << label;
    // More bytes can only reveal more complete blocks, never fewer.
    EXPECT_GE(parsed.rounds.size() + parsed.epochs.size(), previous_records) << label;
    previous_records = parsed.rounds.size() + parsed.epochs.size();

    // Recovery truncates the file to valid_bytes; that prefix must reparse
    // to exactly the same records with nothing further to drop.
    const auto reparsed = Format::parse(intact.substr(0, parsed.valid_bytes));
    EXPECT_EQ(reparsed.rounds, parsed.rounds) << label;
    EXPECT_EQ(reparsed.epochs, parsed.epochs) << label;
    EXPECT_EQ(reparsed.valid_bytes, parsed.valid_bytes) << label;
  });
  EXPECT_EQ(previous_records, blocks) << Format::kName;
}

// Single-byte corruption anywhere: the parser must either throw (corruption
// detected) or return a self-consistent valid prefix (the damage landed in
// text that torn-tail recovery drops, or in a value field it faithfully
// carries — e.g. an error message byte). It must never crash, hang, or
// return a non-contiguous record set.
template <typename Format>
void fuzz_byte_flips(const std::string& intact) {
  const auto full = Format::parse(intact);
  mcs::test::for_each_byte_flip(intact, Format::kName, 20260808, [&](const std::string& mutated,
                                                                     const std::string& label) {
    try {
      const auto parsed = Format::parse(mutated);
      expect_contiguous_prefix<Format>(parsed, full, label);
      EXPECT_LE(parsed.valid_bytes, mutated.size()) << label;
      const auto reparsed = Format::parse(mutated.substr(0, parsed.valid_bytes));
      EXPECT_EQ(reparsed.rounds, parsed.rounds) << label;
      EXPECT_EQ(reparsed.epochs, parsed.epochs) << label;
      EXPECT_EQ(reparsed.valid_bytes, parsed.valid_bytes) << label;
    } catch (const mcs::common::PreconditionError&) {
      // Detected corruption before the last complete block — the contract's
      // loud path.
    }
  });
}

TEST(JournalFuzz, PlatformTruncationAlwaysRecoversAPrefix) {
  fuzz_truncation<PlatformFormat>(platform_journal_text());
}

TEST(JournalFuzz, ServiceTruncationAlwaysRecoversAPrefix) {
  fuzz_truncation<ServiceFormat>(service_journal_text());
}

TEST(JournalFuzz, PlatformByteFlipsNeverYieldSilentBadRecords) {
  fuzz_byte_flips<PlatformFormat>(platform_journal_text());
}

TEST(JournalFuzz, ServiceByteFlipsNeverYieldSilentBadRecords) {
  fuzz_byte_flips<ServiceFormat>(service_journal_text());
}

TEST(JournalFuzz, ServiceEpochTruncationAlwaysRecoversAPrefix) {
  fuzz_truncation<ServiceFormat>(service_epoch_journal_text(), 6);
}

TEST(JournalFuzz, ServiceEpochByteFlipsNeverYieldSilentBadRecords) {
  fuzz_byte_flips<ServiceFormat>(service_epoch_journal_text());
}

}  // namespace
