// Append-only campaign journal (mcs-journal-v1): crash-safe checkpointing
// for multi-round campaigns. After every completed round the platform
// appends one self-contained block holding the round's report plus the full
// state needed to resume — fleet positions, the 256-bit RNG state, and the
// reputation ledger — so a killed campaign restarts from the last journaled
// round and replays to a state bit-identical to an uninterrupted run
// (doubles round-trip exactly).
//
// This header owns the record grammar and the fingerprint. The file framing
// (header, `config` line, `begin`/`end` blocks, comments, raw `config` and
// `error` text), the torn-tail rule and the resume step are the shared
// journal substrate's: see common/journal.hpp.
//
//     mcs-journal-v1
//     config seed=77 tasks=6 ...        # fingerprint of the journaling run
//     begin round 0
//     held 1
//     degraded 0
//     winners 2
//     social_cost 3.5
//     payout 12.25
//     tasks_posted 8
//     tasks_completed 5
//     mean_required_pos 0.6
//     mean_achieved_pos 0.71
//     winning_taxis 2 14 37          # count, then taxi ids
//     telemetry 0.01 0.2 0 ...       # optional; only when telemetry was on
//     error <raw text>               # only present when non-empty
//     positions 50 102 97 ...        # count, then one cell per fleet taxi
//     rng 123 456 789 1011           # xoshiro256** state words
//     reputation 2                   # count, then one `rep` line each
//     rep 14 3 2.1 0.63 2            # taxi rounds expected variance realized
//     end round 0
//
// The body lines may come in any order. Round ids are not checked for
// sequence here; resume requires them contiguous from 0.
//
// The `config` line fingerprints the campaign knobs that determine each
// round's outcome (seed, task/bidder counts, alpha, budget, ...). Resume
// refuses a journal whose fingerprint differs from the resuming campaign's:
// splicing rounds journaled under one configuration into a campaign run
// under another would silently void the bit-identical-resume guarantee. The
// round count is deliberately not part of the fingerprint — resuming with a
// larger `rounds` than the killed run is exactly how a campaign continues.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.hpp"
#include "platform/platform.hpp"

namespace mcs::platform {

/// The campaign journal's file format.
inline constexpr common::journal::Format kJournalFormat{"mcs-journal-v1", "campaign journal"};

/// One journaled round: the report plus the platform state snapshot taken
/// right after the round ran.
struct JournalEntry {
  RoundReport report;
  std::vector<geo::CellId> positions;  ///< indexed like FleetModel::taxis()
  std::array<std::uint64_t, 4> rng_state{};
  /// Full reputation ledger, ascending by taxi id.
  std::vector<std::pair<trace::TaxiId, ReputationRecord>> reputation;
};

/// Serializes one entry as a journal block (without the file header).
/// Newlines inside the error text are flattened to spaces.
std::string to_text(const JournalEntry& entry);

/// The campaign-config fingerprint written as the journal's `config` line.
/// Covers every knob that shapes a round's outcome; excludes `rounds` (see
/// the format notes above) and `journal_path` itself.
std::string config_fingerprint(const CampaignConfig& config);

/// A parsed journal: the frame (valid prefix, `config` fingerprint) plus the
/// complete entries.
struct ReplayedJournal : common::journal::Frame {
  std::vector<JournalEntry> entries;
};

/// Parses a full journal file's text. Throws PreconditionError (with the
/// offending line number) on a bad header or corruption before the last
/// complete block; an incomplete trailing block is silently dropped.
ReplayedJournal parse_journal(const std::string& text);

/// Convenience wrapper around parse_journal returning just the entries.
std::vector<JournalEntry> journal_from_text(const std::string& text);

/// Loads and parses a journal file. A missing file is an empty journal (the
/// campaign simply has not started); other I/O failures throw
/// std::runtime_error naming the path.
ReplayedJournal load_journal(const std::filesystem::path& path);

/// Convenience wrapper around load_journal returning just the entries.
std::vector<JournalEntry> replay_journal(const std::filesystem::path& path);

}  // namespace mcs::platform
