// Append-only round-outcome journal (mcs-service-journal-v1): the campaign
// service's durability story. After every COMPUTED round the service appends
// one self-contained block holding the round's merged outcome; a service
// restarted on the same journal serves those rounds straight from disk
// (RoundOutcome::replayed_from_journal) instead of recomputing them, so a
// crashed traffic stream resumes with every settled round bit-identical
// (doubles round-trip exactly).
//
// This header owns the record grammars and the fingerprint. The file framing
// (header, `config` line, `begin`/`end` blocks, comments, raw `config` and
// `error` text), the torn-tail rule and the resume step are the shared
// journal substrate's: see common/journal.hpp.
//
//     mcs-service-journal-v1
//     config shards=4 policy=0 alpha=10 ...   # fingerprint of the service
//     begin round 0
//     status ok                      # ok | degraded | timed-out | failed
//     users 100                      # sanity echo of the submitted round
//     tasks 12
//     shards_run 4
//     straddlers 3
//     feasible 1
//     degraded 0
//     winners 3 1 5 9                # count, then ascending global user ids
//     total_cost 37.25
//     uncovered 0                    # count, then ascending task indices
//     rewards 3                      # count, then one `reward` line each
//     reward 1 0.51 0.4 12.5 10      # user q̄ p̄ cost alpha
//     error <raw text>               # only present when non-empty
//     end round 0
//
// Services with online ingestion enabled additionally journal one block per
// flushed epoch — OPTIONAL blocks in the PR-4 telemetry-line sense, so
// journals without them (every pre-online journal) parse unchanged:
//
//     begin epoch 0
//     status ok
//     arrivals 2                     # count, then one `arrival` line each
//     arrival 0 3.5 0.25             # user cost pos (submission order)
//     sample 1
//     updates 1                      # stage-boundary threshold relearns
//     decisions 2                    # count, then one `decision` line each
//     decision 0 0 sample 0 0 inf 0 0 0 0 50
//     decision 1 1 accept 1 1 0.082 0.41 0.33 5 10 33.2
//     totals 5 16.8 0.51 0.4 0      # cost worst_case q pos requirement_met
//     winners 1 1
//     end epoch 0
//
// Body lines come in exactly the order shown. Round ids and epoch ids are
// each their own sequence, contiguous from 0 (the format's sequential ids),
// interleaved in whatever order the service settled them.
//
// The `config` line fingerprints every knob that shapes a round's outcome
// (shard map, mechanism config); replaying under a different configuration
// throws, since the journaled outcomes would not match what the service
// would compute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "auction/engine.hpp"
#include "auction/online/mechanism.hpp"
#include "common/journal.hpp"

namespace mcs::service {

/// The service journal's file format.
inline constexpr common::journal::Format kServiceJournalFormat{
    "mcs-service-journal-v1", "service journal", /*sequential_ids=*/true};

/// Round identifier assigned by the service, sequential from 0.
using RoundId = std::uint64_t;

/// Epoch identifier of the online ingestion path, sequential from 0 (its own
/// sequence, independent of round ids).
using EpochId = std::uint64_t;

/// One journaled round: the merged outcome plus the round-shape echo used to
/// detect a diverging resubmission. Telemetry is deliberately not journaled
/// — it describes the run that computed the outcome, not the outcome.
struct ServiceJournalRecord {
  RoundId round = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  std::size_t users = 0;  ///< submitted round's user count
  std::size_t tasks = 0;  ///< submitted round's task count
  std::size_t shards_run = 0;
  std::size_t straddlers = 0;
  auction::MechanismOutcome outcome;
  std::string error;
};

/// One journaled online epoch (the continuous-feed ingestion path): the
/// submitted arrivals (the epoch's shape echo, and what a replay is checked
/// against) plus the full per-arrival decision log, so a restarted service
/// serves the epoch bit-identically without re-running the mechanism. Epoch
/// blocks are OPTIONAL lines of mcs-service-journal-v1 in the PR-4 telemetry
/// sense: journals without them (every pre-online journal) parse unchanged.
struct ServiceEpochRecord {
  EpochId epoch = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  /// The submitted arrivals in submission order (user id == arrival index).
  std::vector<auction::online::Arrival> arrivals;
  auction::online::OnlineOutcome outcome;
  std::string error;
};

/// Serializes one record as a journal block (without the file header).
std::string to_text(const ServiceJournalRecord& record);
std::string to_text(const ServiceEpochRecord& record);

/// A parsed service journal: the frame (valid prefix, `config` fingerprint)
/// plus the complete records.
struct ReplayedServiceJournal : common::journal::Frame {
  std::vector<ServiceJournalRecord> records;  ///< ascending, contiguous from 0
  /// Online epochs, ascending and contiguous from 0 — their own sequence,
  /// interleaved with round blocks in file order. Empty for journals written
  /// before the online ingestion path existed.
  std::vector<ServiceEpochRecord> epochs;
};

/// Parses a full journal's text. Throws PreconditionError (with line number)
/// on a bad header or corruption before the last complete block; an
/// incomplete trailing block is silently dropped.
ReplayedServiceJournal parse_service_journal(const std::string& text);

/// Loads and parses a journal file. A missing file is an empty journal;
/// other I/O failures throw std::runtime_error naming the path.
ReplayedServiceJournal load_service_journal(const std::filesystem::path& path);

/// A journal writer that appends service records, creating the file (header
/// + `config` line) when absent or empty. Each append is flushed before
/// returning; set_fault_injector installs the kJournalAppend fail point,
/// whose stream is the round or epoch id.
class ServiceJournalWriter : public common::journal::Writer {
 public:
  explicit ServiceJournalWriter(const std::filesystem::path& path,
                                const std::string& config_fingerprint = {});

  void append(const ServiceJournalRecord& record);
  void append(const ServiceEpochRecord& record);
};

}  // namespace mcs::service
