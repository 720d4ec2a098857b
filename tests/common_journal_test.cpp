// The journal substrate (common/journal.hpp) and the bytes both journal
// formats write.
//
// The golden tests compare the encoders' output with literal text. A
// parse ∘ to_text round trip cannot see a moved byte, but journals already
// on disk must keep loading and the `config` fingerprint is compared as a
// string on every restart, so the bytes themselves are the contract. The
// remaining tests pin the substrate: format_double, the line scanner, the
// framing with its torn-tail rule, the writer and the resume step.
#include "common/journal.hpp"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/text.hpp"
#include "platform/journal.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"

namespace {

namespace journal = mcs::common::journal;
namespace text = mcs::common::text;
using mcs::common::PreconditionError;

// ---------------------------------------------------------------------------
// Golden inputs: every optional line of each record kind is present.
// ---------------------------------------------------------------------------

mcs::platform::JournalEntry golden_platform_entry() {
  mcs::platform::JournalEntry entry;
  entry.report.round = 3;
  entry.report.held = true;
  entry.report.degraded = true;
  entry.report.winners = 2;
  entry.report.social_cost = 0.1 + 0.2;
  entry.report.payout = 12.25;
  entry.report.tasks_posted = 8;
  entry.report.tasks_completed = 5;
  entry.report.mean_required_pos = 0.6;
  entry.report.mean_achieved_pos = 2.0 / 3.0;
  entry.report.winning_taxis = {14, 37};
  entry.report.error = "engine: deadline\nexceeded\r\nafter 0.5s";
  auto& telemetry = entry.report.telemetry;
  telemetry.enabled = true;
  telemetry.winner_determination_seconds = 0.001234;
  telemetry.rewards_seconds = 1e-7;
  telemetry.degraded_events = 1;
  telemetry.winner_determination = {5, 6, 7, 8, 0};
  telemetry.rewards = {9, 10, 11, 12, 48};
  entry.positions = {50, 102, -1};
  entry.rng_state = {123, 456, 18446744073709551615ULL, 1011};
  entry.reputation.push_back({14, {3, 2.1, 0.63, 2}});
  entry.reputation.push_back({37, {1, 0.9, 0.09, 0}});
  return entry;
}

mcs::service::ServiceJournalRecord golden_service_round() {
  mcs::service::ServiceJournalRecord record;
  record.round = 2;
  record.status = mcs::auction::AuctionStatus::kDegraded;
  record.users = 100;
  record.tasks = 12;
  record.shards_run = 4;
  record.straddlers = 3;
  record.outcome.allocation.feasible = true;
  record.outcome.degraded = true;
  record.outcome.allocation.winners = {1, 5, 9};
  record.outcome.allocation.total_cost = 37.25;
  record.outcome.uncovered_tasks = {3, 7};
  const double critical[] = {0.51, 1.0 / 3.0, 5e-324};
  for (std::size_t k = 0; k < 3; ++k) {
    mcs::auction::WinnerReward reward;
    reward.user = record.outcome.allocation.winners[k];
    reward.critical_contribution = critical[k];
    reward.reward = {0.4, 12.5 + static_cast<double>(k), 10.0};
    record.outcome.rewards.push_back(reward);
  }
  record.error = "shard 1: boom\nshard 3: deadline";
  return record;
}

mcs::service::ServiceEpochRecord golden_service_epoch() {
  mcs::service::ServiceEpochRecord record;
  record.epoch = 1;
  record.status = mcs::auction::AuctionStatus::kOk;
  record.arrivals = {{0, {3.5, 0.25}}, {1, {1.75, 0.9}}};
  record.outcome.sample_size = 1;
  record.outcome.threshold_updates = 1;
  mcs::auction::online::ArrivalDecision sample;
  sample.arrival = 0;
  sample.user = 0;
  sample.phase = mcs::auction::online::ArrivalPhase::kSample;
  sample.threshold = std::numeric_limits<double>::infinity();
  sample.budget_remaining = 50.0;
  mcs::auction::online::ArrivalDecision accept;
  accept.arrival = 1;
  accept.user = 1;
  accept.phase = mcs::auction::online::ArrivalPhase::kAccept;
  accept.stage = 1;
  accept.accepted = true;
  accept.threshold = 0.082;
  accept.critical_contribution = 0.41;
  accept.reward = {0.33, 5.0, 10.0};
  accept.budget_remaining = 33.2;
  record.outcome.decisions = {sample, accept};
  record.outcome.total_cost = 1.75;
  record.outcome.worst_case_payout = 16.8;
  record.outcome.achieved_contribution = 2.3025850929940455;
  record.outcome.achieved_pos = 0.9;
  record.outcome.requirement_met = true;
  record.outcome.winners = {1};
  record.outcome.accepted = 1;
  return record;
}

mcs::service::ServiceConfig golden_service_config() {
  mcs::service::ServiceConfig config;
  config.shards = mcs::service::ShardMap(4);
  config.mechanism.alpha = 12.5;
  config.merge_policy = mcs::service::MergePolicy::kDegradedMerge;
  config.online.enabled = true;
  config.online.mechanism.budget = 1000.0;
  config.online.mechanism.alpha = 0.1 + 0.2;
  config.online.mechanism.stages = 4;
  config.online.requirement_pos = 0.95;
  return config;
}

mcs::platform::CampaignConfig golden_campaign_config() {
  mcs::platform::CampaignConfig config;
  config.rounds = 1;
  config.num_tasks = 6;
  config.num_bidders = 30;
  config.pos_requirement = 0.6;
  config.seed = 77;
  config.shards = 2;
  return config;
}

// The encoders' output for the inputs above.

constexpr const char* kPlatformEntry =
    "begin round 3\n"
    "held 1\n"
    "degraded 1\n"
    "winners 2\n"
    "social_cost 0.30000000000000004\n"
    "payout 12.25\n"
    "tasks_posted 8\n"
    "tasks_completed 5\n"
    "mean_required_pos 0.59999999999999998\n"
    "mean_achieved_pos 0.66666666666666663\n"
    "winning_taxis 2 14 37\n"
    "telemetry 0.0012340000000000001 9.9999999999999995e-08 1 5 6 7 8 0 9 10 11 12 48\n"
    "error engine: deadline exceeded  after 0.5s\n"
    "positions 3 50 102 -1\n"
    "rng 123 456 18446744073709551615 1011\n"
    "reputation 2\n"
    "rep 14 3 2.1000000000000001 0.63 2\n"
    "rep 37 1 0.90000000000000002 0.089999999999999997 0\n"
    "end round 3\n";

constexpr const char* kServiceRound =
    "begin round 2\n"
    "status degraded\n"
    "users 100\n"
    "tasks 12\n"
    "shards_run 4\n"
    "straddlers 3\n"
    "feasible 1\n"
    "degraded 1\n"
    "winners 3 1 5 9\n"
    "total_cost 37.25\n"
    "uncovered 2 3 7\n"
    "rewards 3\n"
    "reward 1 0.51000000000000001 0.40000000000000002 12.5 10\n"
    "reward 5 0.33333333333333331 0.40000000000000002 13.5 10\n"
    "reward 9 4.9406564584124654e-324 0.40000000000000002 14.5 10\n"
    "error shard 1: boom shard 3: deadline\n"
    "end round 2\n";

constexpr const char* kServiceEpoch =
    "begin epoch 1\n"
    "status ok\n"
    "arrivals 2\n"
    "arrival 0 3.5 0.25\n"
    "arrival 1 1.75 0.90000000000000002\n"
    "sample 1\n"
    "updates 1\n"
    "decisions 2\n"
    "decision 0 0 sample 0 0 inf 0 0 0 0 50\n"
    "decision 1 1 accept 1 1 0.082000000000000003 0.40999999999999998 "
    "0.33000000000000002 5 10 33.200000000000003\n"
    "totals 1.75 16.800000000000001 2.3025850929940455 0.90000000000000002 1\n"
    "winners 1 1\n"
    "end epoch 1\n";

constexpr const char* kServiceFingerprint =
    "shards=4 shard_policy=0 alpha=12.5 auction_seconds=0 degrade=1 "
    "epsilon=0.10000000000000001 bisect_iters=48 rule=0 partial=0 merge=1 online=1 "
    "budget=1000 online_alpha=0.30000000000000004 phi=0.25 stages=4 "
    "req=0.94999999999999996";

constexpr const char* kCampaignFingerprint =
    "seed=77 tasks=6 bidders=30 pos=0.59999999999999998 cap=0.90000000000000002 alpha=10 "
    "rule=0 policy=0 zipf=1 avail=1 exec=1 budget=inf auction_seconds=0 shards=2";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

class JournalFileFixture : public ::testing::Test {
 protected:
  JournalFileFixture() {
    path_ = std::filesystem::temp_directory_path() /
            ("mcs_common_journal_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".journal");
    std::filesystem::remove(path_);
  }
  ~JournalFileFixture() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

TEST(JournalGolden, PlatformEntryWithTelemetryAndError) {
  EXPECT_EQ(mcs::platform::to_text(golden_platform_entry()), kPlatformEntry);
  // Every line parses back into a record that encodes to the same bytes.
  const auto parsed =
      mcs::platform::journal_from_text(std::string("mcs-journal-v1\n") + kPlatformEntry);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(mcs::platform::to_text(parsed[0]), kPlatformEntry);
}

TEST(JournalGolden, ServiceRoundWithRewardsUncoveredAndError) {
  EXPECT_EQ(mcs::service::to_text(golden_service_round()), kServiceRound);
}

TEST(JournalGolden, ServiceEpochWithInfiniteThreshold) {
  EXPECT_EQ(mcs::service::to_text(golden_service_epoch()), kServiceEpoch);
}

TEST(JournalGolden, ServiceFingerprintWithOnlineIngestionAndDegradedMerge) {
  EXPECT_EQ(mcs::service::service_config_fingerprint(golden_service_config()),
            kServiceFingerprint);
}

TEST(JournalGolden, CampaignFingerprint) {
  EXPECT_EQ(mcs::platform::config_fingerprint(golden_campaign_config()), kCampaignFingerprint);
}

TEST_F(JournalFileFixture, ServiceWriterEmitsHeaderConfigAndBlocks) {
  {
    mcs::service::ServiceJournalWriter writer(path_, kServiceFingerprint);
    writer.append(golden_service_round());
    writer.append(golden_service_epoch());
  }
  const std::string expected = std::string("mcs-service-journal-v1\nconfig ") +
                               kServiceFingerprint + "\n" + kServiceRound + kServiceEpoch;
  EXPECT_EQ(read_file(path_), expected);
  // Both blocks parse back into records that encode to the same bytes (the
  // ids are out of sequence for a replay, so parse them one at a time).
  const std::string head = std::string("mcs-service-journal-v1\nconfig ") + kServiceFingerprint +
                           "\n";
  auto round = golden_service_round();
  round.round = 0;
  const auto rounds = mcs::service::parse_service_journal(head + mcs::service::to_text(round));
  ASSERT_EQ(rounds.records.size(), 1u);
  EXPECT_EQ(mcs::service::to_text(rounds.records[0]), mcs::service::to_text(round));
  auto epoch = golden_service_epoch();
  epoch.epoch = 0;
  const auto epochs = mcs::service::parse_service_journal(head + mcs::service::to_text(epoch));
  ASSERT_EQ(epochs.epochs.size(), 1u);
  EXPECT_EQ(mcs::service::to_text(epochs.epochs[0]), mcs::service::to_text(epoch));
}

TEST_F(JournalFileFixture, CampaignWriterEmitsHeaderAndConfig) {
  mcs::trace::CityConfig city_config;
  city_config.num_taxis = 40;
  city_config.num_days = 6;
  city_config.trips_per_day = 20;
  const mcs::trace::CityModel city(city_config);
  const auto dataset = mcs::trace::generate_trace(city);
  const mcs::mobility::FleetModel fleet(dataset, city.grid(), mcs::mobility::MarkovLearner(1.0));
  auto config = golden_campaign_config();
  config.journal_path = path_;
  mcs::platform::Platform platform(city, fleet, config);
  platform.run_campaign();

  const std::string text = read_file(path_);
  const std::string head =
      std::string("mcs-journal-v1\nconfig ") + kCampaignFingerprint + "\nbegin round 0\n";
  EXPECT_EQ(text.substr(0, head.size()), head);
  const auto replayed = mcs::platform::parse_journal(text);
  ASSERT_EQ(replayed.entries.size(), 1u);
  EXPECT_EQ(head.substr(0, head.size() - 14) + mcs::platform::to_text(replayed.entries[0]), text);
}

// ---------------------------------------------------------------------------
// The substrate
// ---------------------------------------------------------------------------

constexpr journal::Format kTestFormat{"test-journal-v1", "test journal", true};

std::string snprintf_17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

TEST(JournalSubstrate, FormatDoubleIsPrintf17g) {
  const double cases[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          DBL_MAX,
                          -DBL_MAX,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          0.1 + 0.2};
  for (const double value : cases) {
    EXPECT_EQ(text::format_double(value), snprintf_17g(value)) << value;
  }
  EXPECT_EQ(text::format_double(-0.0), "-0");
  EXPECT_EQ(text::format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(text::format_double(0.1 + 0.2), "0.30000000000000004");
}

TEST(JournalSubstrate, FlattenNewlinesReplacesEveryLineBreak) {
  EXPECT_EQ(journal::flatten_newlines("a\nb\r\nc\r"), "a b  c ");
}

TEST(JournalSubstrate, ScannerSplitsMeaningfulLines) {
  const std::string text =
      "# comment\n"
      "\n"
      "  \t\n"
      "config a=1 # not a comment\r\n"
      "begin\tround  7   # trailing comment\n"
      "\v\f\n"
      "error   raw # text\n"
      "end round 7";
  const auto lines = mcs::common::text::scan_lines(text);
  ASSERT_EQ(lines.size(), 4u);

  EXPECT_EQ(lines[0].number, 4u);
  EXPECT_EQ(lines[0].tokens, std::vector<std::string_view>{"config"});
  EXPECT_EQ(lines[0].raw_text, "a=1 # not a comment");
  EXPECT_TRUE(lines[0].terminated);
  EXPECT_EQ(lines[0].end_offset, text.find("begin"));

  EXPECT_EQ(lines[1].number, 5u);
  EXPECT_EQ(lines[1].tokens, (std::vector<std::string_view>{"begin", "round", "7"}));
  EXPECT_TRUE(lines[1].raw_text.empty());

  EXPECT_EQ(lines[2].number, 7u);
  EXPECT_EQ(lines[2].keyword(), "error");
  EXPECT_EQ(lines[2].raw_text, "raw # text");

  EXPECT_EQ(lines[3].number, 8u);
  EXPECT_EQ(lines[3].tokens, (std::vector<std::string_view>{"end", "round", "7"}));
  EXPECT_FALSE(lines[3].terminated);
  EXPECT_EQ(lines[3].end_offset, text.size());
}

/// Decodes blocks whose body is `value <x>` lines into `values`, one vector
/// per block; a `bad` line fails the block.
struct ValueDecoder {
  std::vector<std::vector<double>> values;

  journal::Frame parse(const std::string& text) {
    values.clear();
    return journal::parse(kTestFormat, text, [this](journal::BlockReader& block) {
      std::vector<double> body;
      while (!block.at_end()) {
        const auto& line = block.expect("value");
        body.push_back(block.to_double(line, 1));
      }
      values.push_back(std::move(body));
    });
  }
};

std::string block(const std::string& kind, int id, const std::string& body = "value 1\n") {
  return "begin " + kind + " " + std::to_string(id) + "\n" + body + "end " + kind + " " +
         std::to_string(id) + "\n";
}

const std::string kHead = "test-journal-v1\nconfig fp\n";

TEST(JournalSubstrate, HeaderAndConfigFraming) {
  ValueDecoder decoder;
  // Empty, comment-only and torn-header journals hold nothing.
  for (const std::string& text : {std::string(""), std::string("# only\n"), std::string("test-jo")}) {
    const auto frame = decoder.parse(text);
    EXPECT_EQ(frame.valid_bytes, 0u) << text;
    EXPECT_EQ(frame.blocks, 0u) << text;
  }
  // A terminated foreign first line is another file, never a torn write.
  try {
    decoder.parse("test-jo\n");
    FAIL() << "a foreign header must throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), "test journal, line 1: missing test-journal-v1 header");
  }
  // The config line is optional and counts once terminated.
  const auto bare = decoder.parse("test-journal-v1\n" + block("round", 0));
  EXPECT_TRUE(bare.config.empty());
  EXPECT_EQ(bare.blocks, 1u);
  const auto torn_config = decoder.parse("test-journal-v1\nconfig f");
  EXPECT_TRUE(torn_config.config.empty());
  EXPECT_EQ(torn_config.valid_bytes, std::string("test-journal-v1\n").size());
  const auto config = decoder.parse(kHead);
  EXPECT_EQ(config.config, "fp");
  EXPECT_EQ(config.valid_bytes, kHead.size());
}

TEST(JournalSubstrate, BlockCountsOnlyOnceItsEndLineIsTerminated) {
  ValueDecoder decoder;
  const std::string valid = kHead + block("round", 0, "value 0.5\nvalue -2\n");
  for (const std::string& tail : {std::string("begin round 1\nvalue 3\n"),
                                  std::string("begin round 1\nend round 1"),
                                  std::string("begin round 1\nvalue 3\nend rou")}) {
    const auto frame = decoder.parse(valid + tail);
    EXPECT_EQ(frame.blocks, 1u) << tail;
    EXPECT_EQ(frame.valid_bytes, valid.size()) << tail;
    ASSERT_EQ(decoder.values.size(), 1u) << tail;
    EXPECT_EQ(decoder.values[0], (std::vector<double>{0.5, -2.0}));
  }
}

TEST(JournalSubstrate, CorruptLastCompleteBlockIsATornTail) {
  ValueDecoder decoder;
  const std::string valid = kHead + block("round", 0);
  // No `end` line follows the corrupt block: dropped, with any torn block
  // after it that never reached its `end` line.
  for (const std::string& tail : {block("round", 1, "value x\n"),
                                  block("round", 1, "bad 1\n") + "begin round 2\nvalue 1\n",
                                  block("round", 1) .substr(0, 20) + "\nend round 1\n"}) {
    const auto frame = decoder.parse(valid + tail);
    EXPECT_EQ(frame.blocks, 1u) << tail;
    EXPECT_EQ(frame.valid_bytes, valid.size()) << tail;
    EXPECT_EQ(decoder.values.size(), 1u) << tail;
  }
}

TEST(JournalSubstrate, CorruptBlockBeforeALaterEndLineThrows) {
  ValueDecoder decoder;
  const std::string corrupt = kHead + block("round", 0, "value x\n");
  // A complete block after it, and even a torn block whose `end` line lacks
  // its newline: both mean the corrupt block is not the torn tail.
  for (const std::string& tail :
       {block("round", 1), std::string("begin round 1\nvalue 1\nend round 1")}) {
    try {
      decoder.parse(corrupt + tail);
      FAIL() << "corruption before a later end line must throw: " << tail;
    } catch (const PreconditionError& e) {
      EXPECT_EQ(std::string(e.what()), "test journal, line 4: malformed number 'x'");
    }
  }
}

TEST(JournalSubstrate, BeginAndEndLinesMustMatch) {
  ValueDecoder decoder;
  for (const std::string& bad :
       {std::string("begin round 0\nvalue 1\nend round 1\n"),
        std::string("begin round 0\nvalue 1\nend epoch 0\n"),
        std::string("begin round\nvalue 1\nend round 0\n"),
        std::string("start round 0\nvalue 1\nend round 0\n"),
        std::string("begin round 0\nbegin round 1\nend round 1\n")}) {
    // As the last block it is a torn tail; with a block after it, corruption.
    EXPECT_EQ(decoder.parse(kHead + bad).blocks, 0u) << bad;
    EXPECT_THROW(decoder.parse(kHead + bad + block("round", 9)), PreconditionError) << bad;
  }
}

TEST(JournalSubstrate, SequentialIdsRunPerKindAndAreNeverATornTail) {
  ValueDecoder decoder;
  const auto frame = decoder.parse(kHead + block("round", 0) + block("epoch", 0) +
                                   block("round", 1) + block("epoch", 1));
  EXPECT_EQ(frame.blocks, 4u);
  // A lone out-of-sequence block parses fine, but is never dropped as a
  // torn tail.
  try {
    decoder.parse(kHead + block("round", 0) + block("epoch", 1));
    FAIL() << "an out-of-sequence block must throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), "test journal, line 8: journal epochs are not contiguous from 0");
  }
  // A format without sequential ids accepts any id order.
  constexpr journal::Format unordered{"test-journal-v1", "test journal"};
  EXPECT_EQ(journal::parse(unordered, kHead + block("round", 4) + block("round", 2),
                           [](journal::BlockReader& b) {
                             while (!b.at_end()) {
                               b.next();
                             }
                           })
                .blocks,
            2u);
}

TEST(JournalSubstrate, BlockReaderParsesTokens) {
  const std::string text = kHead +
                           "begin round 0\n"
                           "flag 1\n"
                           "ids 3 -1 0 2147483647\n"
                           "count 18446744073709551615 extra\n"
                           "end round 0\n";
  journal::parse(kTestFormat, text, [](journal::BlockReader& block) {
    EXPECT_EQ(block.kind(), "round");
    EXPECT_EQ(block.id(), 0u);
    EXPECT_TRUE(block.flag(block.expect("flag")));
    EXPECT_EQ(block.ids(block.expect("ids")), (std::vector<std::int32_t>{-1, 0, 2147483647}));
    EXPECT_EQ(block.expect_count("count"), 18446744073709551615ULL);
    block.expect_end();
  });
  const std::string bad = kHead +
                          "begin round 0\n"
                          "ids 2 1 2147483648\n"
                          "end round 0\n" +
                          block("round", 1);
  try {
    journal::parse(kTestFormat, bad, [](journal::BlockReader& block) {
      block.ids(block.expect("ids"));
    });
    FAIL() << "an id outside int32 must throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), "test journal, line 4: malformed id '2147483648'");
  }
}

TEST_F(JournalFileFixture, ReadOfAMissingFileIsEmpty) {
  EXPECT_EQ(journal::read(kTestFormat, path_), "");
}

TEST_F(JournalFileFixture, WriterStartsAnEmptyFileAndAppendsAfterAnExistingOne) {
  {
    journal::Writer writer(kTestFormat, path_, "fp");
    writer.append(block("round", 0), 0);
  }
  {
    journal::Writer writer(kTestFormat, path_, "ignored: the file is not empty");
    writer.append(block("round", 1), 1);
  }
  EXPECT_EQ(read_file(path_), kHead + block("round", 0) + block("round", 1));
}

TEST_F(JournalFileFixture, ResumeTruncatesTheTornTail) {
  const std::string valid = kHead + block("round", 0);
  write_file(path_, valid + "begin round 1\nval");
  ValueDecoder decoder;
  {
    auto writer = journal::resume(kTestFormat, path_, decoder.parse(read_file(path_)), "fp");
    writer.append(block("round", 1), 1);
  }
  EXPECT_EQ(read_file(path_), valid + block("round", 1));
}

TEST_F(JournalFileFixture, ResumeStartsAfreshWithoutACompleteConfigLine) {
  ValueDecoder decoder;
  // A torn config line, a bare header and a torn header: none holds a block,
  // and each resumes into a file with its header and config line.
  for (const std::string& prefix : {std::string("test-journal-v1\nconfig f"),
                                    std::string("test-journal-v1\n"), std::string("test-jo")}) {
    write_file(path_, prefix);
    {
      auto writer = journal::resume(kTestFormat, path_, decoder.parse(read_file(path_)), "fp");
      writer.append(block("round", 0), 0);
    }
    EXPECT_EQ(read_file(path_), kHead + block("round", 0)) << prefix;
    const auto frame = decoder.parse(read_file(path_));
    EXPECT_EQ(frame.config, "fp");
    EXPECT_EQ(frame.blocks, 1u);
  }
}

TEST_F(JournalFileFixture, ResumeChecksTheFingerprint) {
  ValueDecoder decoder;
  write_file(path_, kHead + block("round", 0));
  EXPECT_THROW(journal::resume(kTestFormat, path_, decoder.parse(read_file(path_)), "other"),
               PreconditionError);
  // Blocks without a config line cannot be checked, so they are refused.
  write_file(path_, "test-journal-v1\n" + block("round", 0));
  EXPECT_THROW(journal::resume(kTestFormat, path_, decoder.parse(read_file(path_)), "fp"),
               PreconditionError);
  // Neither refusal touched the file.
  EXPECT_EQ(read_file(path_), "test-journal-v1\n" + block("round", 0));
}

}  // namespace
