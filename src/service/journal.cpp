#include "service/journal.hpp"

#include <sstream>

namespace mcs::service {

namespace {

using common::journal::BlockReader;
using common::journal::flatten_newlines;
using common::text::format_double;
using common::journal::Line;

auction::AuctionStatus parse_status(BlockReader& block) {
  const Line& line = block.expect("status");
  if (line.tokens.size() != 2) {
    block.fail(line, "expected 'status <value>'");
  }
  for (const auto status :
       {auction::AuctionStatus::kOk, auction::AuctionStatus::kDegraded,
        auction::AuctionStatus::kTimedOut, auction::AuctionStatus::kFailed}) {
    if (line.tokens[1] == auction::to_string(status)) {
      return status;
    }
  }
  block.fail(line, "unknown status '" + std::string(line.tokens[1]) + "'");
}

/// The optional `error <raw text>` line that closes both record kinds.
std::string parse_error(BlockReader& block) {
  if (block.at_end() || block.peek().keyword() != "error") {
    return {};
  }
  return std::string(block.next().raw_text);
}

/// Parses one `round` block's body.
ServiceJournalRecord parse_round(BlockReader& block) {
  ServiceJournalRecord record;
  record.round = block.id();
  record.status = parse_status(block);
  record.users = block.expect_count("users");
  record.tasks = block.expect_count("tasks");
  record.shards_run = block.expect_count("shards_run");
  record.straddlers = block.expect_count("straddlers");
  record.outcome.allocation.feasible = block.flag(block.expect("feasible"));
  record.outcome.degraded = block.flag(block.expect("degraded"));
  record.outcome.allocation.winners = block.ids(block.expect("winners"));
  record.outcome.allocation.total_cost = block.value(block.expect("total_cost"));
  record.outcome.uncovered_tasks = block.ids(block.expect("uncovered"));
  const std::uint64_t reward_count = block.expect_count("rewards");
  for (std::uint64_t k = 0; k < reward_count; ++k) {
    const Line& line = block.expect("reward");
    if (line.tokens.size() != 6) {
      block.fail(line, "expected 'reward <user> <q> <p> <cost> <alpha>'");
    }
    auction::WinnerReward reward;
    reward.user = block.to_i32(line, 1);
    reward.critical_contribution = block.to_double(line, 2);
    reward.reward.critical_pos = block.to_double(line, 3);
    reward.reward.cost = block.to_double(line, 4);
    reward.reward.alpha = block.to_double(line, 5);
    record.outcome.rewards.push_back(reward);
  }
  record.error = parse_error(block);
  block.expect_end();
  return record;
}

/// Parses one `epoch` block's body.
ServiceEpochRecord parse_epoch(BlockReader& block) {
  ServiceEpochRecord record;
  record.epoch = block.id();
  record.status = parse_status(block);
  const std::uint64_t arrival_count = block.expect_count("arrivals");
  for (std::uint64_t k = 0; k < arrival_count; ++k) {
    const Line& line = block.expect("arrival");
    if (line.tokens.size() != 4) {
      block.fail(line, "expected 'arrival <user> <cost> <pos>'");
    }
    auction::online::Arrival arrival;
    arrival.user = block.to_i32(line, 1);
    arrival.bid.cost = block.to_double(line, 2);
    arrival.bid.pos = block.to_double(line, 3);
    record.arrivals.push_back(arrival);
  }
  record.outcome.sample_size = block.expect_count("sample");
  record.outcome.threshold_updates = block.expect_count("updates");
  const std::uint64_t decision_count = block.expect_count("decisions");
  for (std::uint64_t k = 0; k < decision_count; ++k) {
    const Line& line = block.expect("decision");
    if (line.tokens.size() != 12) {
      block.fail(line,
                 "expected 'decision <arrival> <user> sample|accept <stage> 0|1 "
                 "<threshold> <qbar> <pbar> <cost> <alpha> <remaining>'");
    }
    auction::online::ArrivalDecision decision;
    decision.arrival = block.to_u64(line, 1);
    decision.user = block.to_i32(line, 2);
    if (line.tokens[3] == "sample") {
      decision.phase = auction::online::ArrivalPhase::kSample;
    } else if (line.tokens[3] == "accept") {
      decision.phase = auction::online::ArrivalPhase::kAccept;
    } else {
      block.fail(line, "unknown arrival phase '" + std::string(line.tokens[3]) + "'");
    }
    decision.stage = block.to_u64(line, 4);
    if (line.tokens[5] != "0" && line.tokens[5] != "1") {
      block.fail(line, "expected accepted flag 0|1");
    }
    decision.accepted = line.tokens[5] == "1";
    decision.threshold = block.to_double(line, 6);
    decision.critical_contribution = block.to_double(line, 7);
    decision.reward.critical_pos = block.to_double(line, 8);
    decision.reward.cost = block.to_double(line, 9);
    decision.reward.alpha = block.to_double(line, 10);
    decision.budget_remaining = block.to_double(line, 11);
    record.outcome.decisions.push_back(decision);
  }
  {
    const Line& line = block.expect("totals");
    if (line.tokens.size() != 6) {
      block.fail(line, "expected 'totals <cost> <worst_case> <q> <pos> 0|1'");
    }
    record.outcome.total_cost = block.to_double(line, 1);
    record.outcome.worst_case_payout = block.to_double(line, 2);
    record.outcome.achieved_contribution = block.to_double(line, 3);
    record.outcome.achieved_pos = block.to_double(line, 4);
    if (line.tokens[5] != "0" && line.tokens[5] != "1") {
      block.fail(line, "expected requirement-met flag 0|1");
    }
    record.outcome.requirement_met = line.tokens[5] == "1";
  }
  record.outcome.winners = block.ids(block.expect("winners"));
  record.outcome.accepted = record.outcome.winners.size();
  record.error = parse_error(block);
  block.expect_end();
  return record;
}

}  // namespace

std::string to_text(const ServiceJournalRecord& record) {
  std::ostringstream out;
  out << "begin round " << record.round << "\n";
  out << "status " << auction::to_string(record.status) << "\n";
  out << "users " << record.users << "\n";
  out << "tasks " << record.tasks << "\n";
  out << "shards_run " << record.shards_run << "\n";
  out << "straddlers " << record.straddlers << "\n";
  out << "feasible " << (record.outcome.allocation.feasible ? 1 : 0) << "\n";
  out << "degraded " << (record.outcome.degraded ? 1 : 0) << "\n";
  out << "winners " << record.outcome.allocation.winners.size();
  for (auction::UserId winner : record.outcome.allocation.winners) {
    out << ' ' << winner;
  }
  out << "\n";
  out << "total_cost " << format_double(record.outcome.allocation.total_cost) << "\n";
  out << "uncovered " << record.outcome.uncovered_tasks.size();
  for (auction::TaskIndex task : record.outcome.uncovered_tasks) {
    out << ' ' << task;
  }
  out << "\n";
  out << "rewards " << record.outcome.rewards.size() << "\n";
  for (const auto& reward : record.outcome.rewards) {
    out << "reward " << reward.user << ' ' << format_double(reward.critical_contribution) << ' '
        << format_double(reward.reward.critical_pos) << ' ' << format_double(reward.reward.cost)
        << ' ' << format_double(reward.reward.alpha) << "\n";
  }
  if (!record.error.empty()) {
    out << "error " << flatten_newlines(record.error) << "\n";
  }
  out << "end round " << record.round << "\n";
  return out.str();
}

std::string to_text(const ServiceEpochRecord& record) {
  std::ostringstream out;
  out << "begin epoch " << record.epoch << "\n";
  out << "status " << auction::to_string(record.status) << "\n";
  out << "arrivals " << record.arrivals.size() << "\n";
  for (const auto& arrival : record.arrivals) {
    out << "arrival " << arrival.user << ' ' << format_double(arrival.bid.cost) << ' '
        << format_double(arrival.bid.pos) << "\n";
  }
  out << "sample " << record.outcome.sample_size << "\n";
  out << "updates " << record.outcome.threshold_updates << "\n";
  out << "decisions " << record.outcome.decisions.size() << "\n";
  for (const auto& decision : record.outcome.decisions) {
    out << "decision " << decision.arrival << ' ' << decision.user << ' '
        << (decision.phase == auction::online::ArrivalPhase::kSample ? "sample" : "accept") << ' '
        << decision.stage << ' ' << (decision.accepted ? 1 : 0) << ' '
        << format_double(decision.threshold) << ' '
        << format_double(decision.critical_contribution) << ' '
        << format_double(decision.reward.critical_pos) << ' '
        << format_double(decision.reward.cost) << ' ' << format_double(decision.reward.alpha)
        << ' ' << format_double(decision.budget_remaining) << "\n";
  }
  out << "totals " << format_double(record.outcome.total_cost) << ' '
      << format_double(record.outcome.worst_case_payout) << ' '
      << format_double(record.outcome.achieved_contribution) << ' '
      << format_double(record.outcome.achieved_pos) << ' '
      << (record.outcome.requirement_met ? 1 : 0) << "\n";
  out << "winners " << record.outcome.winners.size();
  for (auction::UserId winner : record.outcome.winners) {
    out << ' ' << winner;
  }
  out << "\n";
  if (!record.error.empty()) {
    out << "error " << flatten_newlines(record.error) << "\n";
  }
  out << "end epoch " << record.epoch << "\n";
  return out.str();
}

ReplayedServiceJournal parse_service_journal(const std::string& text) {
  ReplayedServiceJournal journal;
  static_cast<common::journal::Frame&>(journal) = common::journal::parse(
      kServiceJournalFormat, text, [&journal](BlockReader& block) {
        if (block.kind() == "round") {
          journal.records.push_back(parse_round(block));
        } else if (block.kind() == "epoch") {
          journal.epochs.push_back(parse_epoch(block));
        } else {
          block.fail(block.begin_line(), "expected 'begin round <n>' or 'begin epoch <n>'");
        }
      });
  return journal;
}

ReplayedServiceJournal load_service_journal(const std::filesystem::path& path) {
  return parse_service_journal(common::journal::read(kServiceJournalFormat, path));
}

ServiceJournalWriter::ServiceJournalWriter(const std::filesystem::path& path,
                                           const std::string& config_fingerprint)
    : Writer(kServiceJournalFormat, path, config_fingerprint) {}

void ServiceJournalWriter::append(const ServiceJournalRecord& record) {
  Writer::append(to_text(record), record.round);
}

void ServiceJournalWriter::append(const ServiceEpochRecord& record) {
  // Epochs share the kJournalAppend stream space with rounds (stream ==
  // epoch id): a chaos spec targeting stream N hits round N and epoch N
  // alike, which is what the injection tests want.
  Writer::append(to_text(record), record.epoch);
}

}  // namespace mcs::service
