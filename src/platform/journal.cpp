#include "platform/journal.hpp"

#include <sstream>
#include <string>

namespace mcs::platform {

namespace {

using common::journal::BlockReader;
using common::text::format_double;
using common::journal::Line;

std::size_t parse_size_directive(const BlockReader& block, const Line& line) {
  if (line.tokens.size() != 2) {
    block.fail(line, "expected '" + std::string(line.keyword()) + " <count>'");
  }
  return block.to_u64(line, 1);
}

/// Parses one complete `round` block's body.
JournalEntry parse_entry(BlockReader& block) {
  if (block.kind() != "round") {
    block.fail(block.begin_line(), "expected 'begin round <n>'");
  }
  JournalEntry entry;
  entry.report.round = block.id();

  bool have_rng = false;
  bool have_positions = false;
  std::size_t reputation_count = 0;
  bool have_reputation = false;
  while (!block.at_end()) {
    const auto& line = block.next();
    const std::string_view keyword = line.keyword();
    if (keyword == "held") {
      entry.report.held = block.flag(line);
    } else if (keyword == "degraded") {
      entry.report.degraded = block.flag(line);
    } else if (keyword == "winners") {
      entry.report.winners = parse_size_directive(block, line);
    } else if (keyword == "social_cost") {
      entry.report.social_cost = block.value(line);
    } else if (keyword == "payout") {
      entry.report.payout = block.value(line);
    } else if (keyword == "tasks_posted") {
      entry.report.tasks_posted = parse_size_directive(block, line);
    } else if (keyword == "tasks_completed") {
      entry.report.tasks_completed = parse_size_directive(block, line);
    } else if (keyword == "mean_required_pos") {
      entry.report.mean_required_pos = block.value(line);
    } else if (keyword == "mean_achieved_pos") {
      entry.report.mean_achieved_pos = block.value(line);
    } else if (keyword == "error") {
      entry.report.error = line.raw_text;
    } else if (keyword == "telemetry") {
      // Optional: blocks without this line (telemetry off, or written before
      // the record existed) leave the default disabled/all-zeros record.
      if (line.tokens.size() != 14) {
        block.fail(line,
                   "expected 'telemetry <wd_s> <rw_s> <degraded> <5 wd counters> <5 rw counters>'");
      }
      auto& t = entry.report.telemetry;
      t.enabled = true;
      t.winner_determination_seconds = block.to_double(line, 1);
      t.rewards_seconds = block.to_double(line, 2);
      t.degraded_events = block.to_u64(line, 3);
      std::size_t k = 4;
      for (obs::PhaseCounters* phase : {&t.winner_determination, &t.rewards}) {
        phase->probes = block.to_u64(line, k++);
        phase->deadline_polls = block.to_u64(line, k++);
        phase->rounds = block.to_u64(line, k++);
        phase->heap_reevaluations = block.to_u64(line, k++);
        phase->bisection_steps = block.to_u64(line, k++);
      }
    } else if (keyword == "winning_taxis") {
      entry.report.winning_taxis = block.ids(line);
    } else if (keyword == "positions") {
      entry.positions = block.ids(line);
      have_positions = true;
    } else if (keyword == "rng") {
      if (line.tokens.size() != 5) {
        block.fail(line, "expected 'rng <s0> <s1> <s2> <s3>'");
      }
      for (std::size_t k = 0; k < 4; ++k) {
        entry.rng_state[k] = block.to_u64(line, 1 + k);
      }
      have_rng = true;
    } else if (keyword == "reputation") {
      reputation_count = parse_size_directive(block, line);
      have_reputation = true;
    } else if (keyword == "rep") {
      if (line.tokens.size() != 6) {
        block.fail(line, "expected 'rep <taxi> <rounds> <expected> <variance> <realized>'");
      }
      ReputationRecord record;
      const trace::TaxiId taxi = block.to_i32(line, 1);
      record.rounds = block.to_u64(line, 2);
      record.expected_successes = block.to_double(line, 3);
      record.variance = block.to_double(line, 4);
      record.realized_successes = block.to_u64(line, 5);
      entry.reputation.emplace_back(taxi, record);
    } else {
      block.fail(line, "unknown directive '" + std::string(keyword) + "'");
    }
  }
  if (!have_positions || !have_rng || !have_reputation) {
    block.fail(block.begin_line(), "block is missing its positions/rng/reputation snapshot");
  }
  if (entry.reputation.size() != reputation_count) {
    block.fail(block.begin_line(), "reputation record count does not match the declared count");
  }
  return entry;
}

}  // namespace

std::string to_text(const JournalEntry& entry) {
  std::ostringstream out;
  out << "begin round " << entry.report.round << "\n";
  out << "held " << (entry.report.held ? 1 : 0) << "\n";
  out << "degraded " << (entry.report.degraded ? 1 : 0) << "\n";
  out << "winners " << entry.report.winners << "\n";
  out << "social_cost " << format_double(entry.report.social_cost) << "\n";
  out << "payout " << format_double(entry.report.payout) << "\n";
  out << "tasks_posted " << entry.report.tasks_posted << "\n";
  out << "tasks_completed " << entry.report.tasks_completed << "\n";
  out << "mean_required_pos " << format_double(entry.report.mean_required_pos) << "\n";
  out << "mean_achieved_pos " << format_double(entry.report.mean_achieved_pos) << "\n";
  out << "winning_taxis " << entry.report.winning_taxis.size();
  for (trace::TaxiId taxi : entry.report.winning_taxis) {
    out << ' ' << taxi;
  }
  out << "\n";
  if (entry.report.telemetry.enabled) {
    // Optional record (PR 4): journals written with telemetry off — and
    // every pre-telemetry journal — simply omit the line, and readers
    // default the record to disabled, so old journals stay loadable.
    const auto& t = entry.report.telemetry;
    out << "telemetry " << format_double(t.winner_determination_seconds) << ' '
        << format_double(t.rewards_seconds) << ' ' << t.degraded_events;
    for (const obs::PhaseCounters* phase : {&t.winner_determination, &t.rewards}) {
      out << ' ' << phase->probes << ' ' << phase->deadline_polls << ' ' << phase->rounds << ' '
          << phase->heap_reevaluations << ' ' << phase->bisection_steps;
    }
    out << "\n";
  }
  if (!entry.report.error.empty()) {
    out << "error " << common::journal::flatten_newlines(entry.report.error) << "\n";
  }
  out << "positions " << entry.positions.size();
  for (geo::CellId cell : entry.positions) {
    out << ' ' << cell;
  }
  out << "\n";
  out << "rng " << entry.rng_state[0] << ' ' << entry.rng_state[1] << ' ' << entry.rng_state[2]
      << ' ' << entry.rng_state[3] << "\n";
  out << "reputation " << entry.reputation.size() << "\n";
  for (const auto& [taxi, record] : entry.reputation) {
    out << "rep " << taxi << ' ' << record.rounds << ' '
        << format_double(record.expected_successes) << ' ' << format_double(record.variance)
        << ' ' << record.realized_successes << "\n";
  }
  out << "end round " << entry.report.round << "\n";
  return out.str();
}

std::string config_fingerprint(const CampaignConfig& config) {
  std::ostringstream out;
  out << "seed=" << config.seed                                              //
      << " tasks=" << config.num_tasks                                       //
      << " bidders=" << config.num_bidders                                   //
      << " pos=" << format_double(config.pos_requirement)                    //
      << " cap=" << format_double(config.requirement_cap_fraction)           //
      << " alpha=" << format_double(config.alpha)                            //
      << " rule=" << static_cast<int>(config.critical_bid_rule)              //
      << " policy=" << static_cast<int>(config.task_policy)                  //
      << " zipf=" << format_double(config.demand_zipf_exponent)              //
      << " avail=" << format_double(config.availability)                     //
      << " exec=" << static_cast<int>(config.execution)                      //
      << " budget=" << format_double(config.budget)                          //
      << " auction_seconds=" << format_double(config.auction_time_budget_seconds);
  if (config.shards != 1) {
    // Only non-default so every pre-sharding journal (implicitly shards=1)
    // keeps resuming: sharded rounds can differ once users straddle shards,
    // so splicing across shard counts must be refused.
    out << " shards=" << config.shards;
  }
  return out.str();
}

ReplayedJournal parse_journal(const std::string& text) {
  ReplayedJournal journal;
  static_cast<common::journal::Frame&>(journal) =
      common::journal::parse(kJournalFormat, text, [&journal](BlockReader& block) {
        journal.entries.push_back(parse_entry(block));
      });
  return journal;
}

std::vector<JournalEntry> journal_from_text(const std::string& text) {
  return parse_journal(text).entries;
}

ReplayedJournal load_journal(const std::filesystem::path& path) {
  return parse_journal(common::journal::read(kJournalFormat, path));
}

std::vector<JournalEntry> replay_journal(const std::filesystem::path& path) {
  return load_journal(path).entries;
}

}  // namespace mcs::platform
