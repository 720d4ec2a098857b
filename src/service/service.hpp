// The geo-sharded campaign service (ROADMAP item 1): the platform-facing API
// redesigned from "call run_campaign and block" to a long-running handle.
// A CampaignService accepts rounds as requests:
//
//     service::CampaignService service(config);
//     const auto id = service.submit_round({instance, task_cells});
//     ... submit more rounds, do other work ...
//     const auto outcome = service.wait_outcome(id);      // or poll_outcome
//
// Rounds flow through a bounded submission queue into a single dispatcher
// thread, which partitions each round by geo cell (service/shard.hpp), runs
// the per-shard mechanisms through one auction::Engine batch — the engine's
// thread pool is where the concurrency lives; the dispatcher only
// orchestrates — and merges the shard outcomes back into one round outcome.
// Rounds complete strictly in submission order, which keeps the journal
// append-only and the telemetry stream ordered.
//
// API shape:
//   * submit_round blocks while the queue is full (backpressure, bounded
//     memory); try_submit_round refuses instead. Both assign sequential
//     round ids starting at 0 (after any journal-replayed rounds).
//   * poll_outcome / wait_outcome each deliver a round's outcome exactly
//     once: a delivered outcome leaves the service's buffer, so a sustained
//     campaign does not accumulate completed rounds without bound.
//   * stream_telemetry registers a sink invoked on the dispatcher thread
//     after every round, in round order — the push-based view for dashboards
//     and the load generator. Sinks must not call back into the service.
//
// Determinism contract (inherits shard.hpp's): with shard_count == 1 the
// service is a pass-through — every outcome is bit-identical to
// Engine::run_one_isolated on the same instance and config. With
// shard_count > 1 outcomes are bit-identical to the flat run on
// straddler-free rounds under CriticalBidRule::kBinarySearch; the
// constructor refuses kPaperIterationMin at shard_count > 1 because that
// rule couples shards through the global iteration sequence (see shard.hpp).
//
// Durability: with a journal_path configured, every computed round is
// appended to an mcs-service-journal-v1 file (service/journal.hpp). A
// service restarted on that journal serves the journaled rounds from disk —
// resubmitting the same campaign replays settled rounds bit-identically
// without recomputation, then computation resumes at the first un-journaled
// round. A journal written under a different configuration is refused.
//
// Online ingestion (ROADMAP item 1, continuous feed): with
// ServiceConfig::online enabled the service additionally accepts single
// arrivals —
//
//     service.submit_arrival({cost, pos});        // returns {epoch, index}
//     const auto epoch = service.flush_epoch();   // seal the open epoch
//     const auto out = service.wait_epoch(*epoch);
//
// Arrivals fold into the OPEN epoch until flush_epoch (or the
// max_epoch_arrivals auto-flush) seals it; a sealed epoch travels the same
// bounded queue and dispatcher as a round and runs the online threshold
// mechanism (auction/online/mechanism.hpp) over its arrivals in submission
// order. Epoch ids are their own sequence from 0, interleaved with round
// ids. Computed epochs are journaled as optional `begin epoch N` blocks of
// the same mcs-service-journal-v1 file and replay on restart exactly like
// rounds (arrival-list echo check included). poll_epoch/wait_epoch deliver
// exactly once with the same fail-fast id rules as poll/wait_outcome.
//
// Fault model (DESIGN.md §12): the paper's execution uncertainty lives at
// the USER level (PoS < 1); this service additionally survives
// INFRASTRUCTURE faults. The escalation ladder, cheapest rung first:
//
//   1. cooperative deadlines — the mechanism polls its own Deadline and
//      degrades (engine kTimedOut/kDegraded slots);
//   2. per-shard retry with bounded exponential backoff — a failed shard
//      re-runs up to retry.max_attempts times before the merge sees it;
//   3. MergePolicy::kDegradedMerge — a shard dead after its retries costs
//      only its own tasks, not the round (kPoisonRound stays the default);
//   4. stuck-round watchdog — a round wedged past watchdog_seconds is
//      abandoned (its runner parks until destruction) and published as
//      kTimedOut, and the dispatcher keeps serving subsequent rounds.
//
// A throwing/slow telemetry sink is quarantined after N consecutive
// failures; a failed journal append quarantines journaling for the rest of
// the service lifetime (the on-disk journal stays a valid replayable
// prefix). Every recovery path is observable (service.shard_retries,
// service.rounds_degraded, service.sinks_quarantined,
// service.watchdog_fires) and every fault schedule is a pure function of
// the ServiceConfig::fault_injector seed, so chaos runs replay bit-for-bit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "auction/engine.hpp"
#include "auction/online/mechanism.hpp"
#include "common/deadline.hpp"
#include "common/fault_injection.hpp"
#include "obs/telemetry.hpp"
#include "service/journal.hpp"
#include "service/shard.hpp"

namespace mcs::service {

struct ServiceConfig {
  /// Cell → shard mapping. The default single shard is the pass-through
  /// configuration (no partitioning, bit-identical to the bare engine).
  ShardMap shards = ShardMap(1);
  /// Mechanism configuration applied to every shard of every round.
  auction::MechanismConfig mechanism;
  /// Bound on queued (submitted, not yet dispatched) rounds; submit_round
  /// blocks at the bound. Must be >= 1.
  std::size_t queue_capacity = 64;
  /// Engine worker threads; 0 shares the process-wide pool.
  std::size_t workers = 0;
  /// When non-empty, computed rounds are journaled here and a restart
  /// replays them (see the header comment's durability story).
  std::filesystem::path journal_path;

  /// What a shard that is still dead after its retries does to the round.
  /// kPoisonRound preserves PR-era bit-identity; kDegradedMerge salvages the
  /// surviving shards (see shard.hpp's MergePolicy contract).
  MergePolicy merge_policy = MergePolicy::kPoisonRound;

  /// Per-shard retry with bounded exponential backoff. Attempts are total
  /// (1 = no retry, today's behavior). Backoff sleeps are deadline-aware:
  /// with a watchdog configured, a retry never sleeps past the round's
  /// watchdog budget. Without a fault injector a deterministic mechanism
  /// failure fails identically on every attempt, so retries only change
  /// outcomes when the failure is injected (or genuinely transient).
  struct RetryPolicy {
    std::size_t max_attempts = 1;           ///< total attempts per shard, >= 1
    double initial_backoff_seconds = 0.005; ///< sleep before the first retry
    double backoff_multiplier = 2.0;        ///< growth per retry, >= 1
    double max_backoff_seconds = 0.1;       ///< backoff ceiling
  };
  RetryPolicy retry;

  /// Stuck-round watchdog: a round still running after this many seconds is
  /// abandoned and published as kTimedOut so the dispatcher keeps serving.
  /// 0 disables the watchdog — rounds then compute inline on the dispatcher
  /// thread, exactly the pre-watchdog code path. The abandoned runner parks
  /// until the service destructor (which waits for it), so the watchdog
  /// isolates the ROUND, not the engine's shared thread pool — cooperative
  /// mechanism deadlines remain the tool that protects the pool itself.
  double watchdog_seconds = 0.0;

  /// A telemetry sink failing (throwing, or exceeding sink_slow_seconds)
  /// this many CONSECUTIVE rounds is quarantined: skipped for the rest of
  /// the service lifetime (or until re-subscribed). 0 never quarantines;
  /// failures are still recorded on the round either way.
  std::size_t sink_quarantine_failures = 3;

  /// When positive, a sink call slower than this counts as a failure for
  /// quarantine purposes (a slow dashboard stalls every round: the
  /// dispatcher delivers sinks before outcomes become pollable).
  double sink_slow_seconds = 0.0;

  /// Deterministic fault injection (test/bench facility, never a production
  /// default). Null = disabled, costing one pointer test per fail point.
  /// Excluded from the journal fingerprint — a journal written under
  /// injection replays the outcomes the faults produced, which is the point
  /// of seed-replayable chaos runs.
  std::shared_ptr<common::FaultInjector> fault_injector;

  /// Continuous-feed online ingestion (see the header comment). Disabled by
  /// default — a service without it is byte-for-byte the round-only service,
  /// and its journal fingerprint is unchanged.
  struct OnlineIngest {
    bool enabled = false;
    /// Threshold-mechanism knobs applied to every epoch.
    auction::online::OnlineConfig mechanism;
    /// PoS requirement of each epoch's (single) task, in (0, 1).
    double requirement_pos = 0.9;
    /// An open epoch reaching this many arrivals is flushed automatically
    /// (bounded memory under a firehose). Must be >= 1.
    std::size_t max_epoch_arrivals = 4096;
  };
  OnlineIngest online;
};

/// Where a submitted arrival landed: its epoch and its arrival index (==
/// user id) within that epoch.
struct ArrivalTicket {
  EpochId epoch = 0;
  std::size_t index = 0;
};

/// The settled result of one flushed epoch, delivered exactly once.
struct EpochOutcome {
  EpochId epoch = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  /// The online mechanism's full decision log; default-constructed for
  /// kFailed.
  auction::online::OnlineOutcome outcome;
  std::string error;  ///< failure text; empty for kOk
  /// Dispatch-to-settle wall-clock seconds; ~0 for replayed epochs.
  double latency_seconds = 0.0;
  /// True when this outcome was served from the journal, not computed.
  bool replayed_from_journal = false;
  /// Non-empty when journaling this epoch failed (same quarantine story as
  /// rounds).
  std::string journal_error;

  bool ok() const { return status == auction::AuctionStatus::kOk; }
};

/// The settled result of one submitted round, delivered exactly once.
struct RoundOutcome {
  RoundId round = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  /// The merged mechanism outcome; default-constructed for
  /// kTimedOut/kFailed (same convention as auction::AuctionOutcome).
  auction::MechanismOutcome outcome;
  std::string error;  ///< failure text; empty for kOk/kDegraded
  std::size_t shards_run = 0;   ///< shards that owned at least one task
  std::size_t straddlers = 0;   ///< users restricted by the straddler protocol
  /// Dispatch-to-merge wall-clock seconds (compute only, not queue wait);
  /// ~0 for journal-replayed rounds; ~watchdog_seconds for abandoned rounds.
  double latency_seconds = 0.0;
  /// True when this outcome was served from the journal, not computed.
  bool replayed_from_journal = false;
  /// Extra shard attempts beyond each shard's first (0 without retries).
  std::size_t shard_retries = 0;
  /// Telemetry sinks that failed while delivering this round ("telemetry
  /// sink <id>: <error>"). The outcome itself is unaffected — a sink
  /// failure never poisons a round.
  std::vector<std::string> sink_errors;
  /// Non-empty when journaling this round failed; the round's outcome
  /// stands, but it (and every later round this lifetime) is not durable.
  std::string journal_error;

  /// True when `outcome` is meaningful (possibly degraded).
  bool ok() const {
    return status == auction::AuctionStatus::kOk || status == auction::AuctionStatus::kDegraded;
  }
};

/// What a telemetry sink sees after every round, in round order.
struct RoundTelemetry {
  RoundId round = 0;
  auction::AuctionStatus status = auction::AuctionStatus::kOk;
  std::size_t shards_run = 0;
  std::size_t straddlers = 0;
  std::size_t shard_retries = 0;
  double latency_seconds = 0.0;
  bool replayed_from_journal = false;
  /// The round's merged mechanism telemetry (all zeros while obs is off).
  obs::MechanismTelemetry mechanism;
};

/// One-line JSON object for a round's telemetry (stable keys; the
/// "mechanism" value is obs::to_json of the merged record).
std::string to_json(const RoundTelemetry& telemetry);

/// Monotonic counters over the service's lifetime (restarts reset them;
/// journal-replayed rounds count as completed AND replayed).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t replayed = 0;  ///< completed rounds served from the journal
  std::uint64_t failed = 0;    ///< completed rounds with status kFailed/kTimedOut
  std::uint64_t degraded = 0;  ///< completed rounds with status kDegraded
  std::uint64_t shard_retries = 0;    ///< extra shard attempts beyond the first
  std::uint64_t watchdog_fires = 0;   ///< rounds abandoned by the watchdog
  std::uint64_t sink_failures = 0;    ///< telemetry sink delivery failures
  std::uint64_t sinks_quarantined = 0;  ///< sinks isolated after repeat failure
  /// Rounds not durably journaled: the append failure that quarantined
  /// journaling plus every round skipped by the quarantine after it.
  std::uint64_t journal_append_failures = 0;
  std::uint64_t arrivals_submitted = 0;  ///< online arrivals accepted into epochs
  std::uint64_t epochs_flushed = 0;      ///< epochs sealed (manual or auto)
  std::uint64_t epochs_completed = 0;
  std::uint64_t epochs_replayed = 0;  ///< completed epochs served from the journal
  std::uint64_t epochs_failed = 0;    ///< completed epochs with status kFailed
};

/// Fingerprint of every ServiceConfig knob that shapes round outcomes (shard
/// map, mechanism) — what the journal's `config` line records. Thread/queue
/// knobs are deliberately excluded: outcomes are bit-identical across worker
/// and queue-capacity settings, so they may change between restarts.
std::string service_config_fingerprint(const ServiceConfig& config);

class CampaignService {
 public:
  /// Starts the dispatcher. Throws PreconditionError on an invalid
  /// configuration — including CriticalBidRule::kPaperIterationMin with
  /// shard_count > 1 (not shard-decomposable, see shard.hpp) — and when the
  /// configured journal was written under a different fingerprint.
  explicit CampaignService(const ServiceConfig& config);

  /// Drains every submitted round (completing, journaling, and streaming
  /// them), then stops the dispatcher. Undelivered outcomes are discarded —
  /// journaled rounds survive, in-memory ones do not.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  const ServiceConfig& config() const { return config_; }

  /// Number of journaled rounds found at startup: submissions with ids below
  /// this are served from the journal instead of computed.
  std::size_t journaled_rounds() const { return journaled_.size(); }

  /// Submits a round and returns its id, blocking while the queue is full.
  /// task_cells must align with the instance's tasks when shard_count > 1;
  /// a single-shard service ignores them (may be empty).
  RoundId submit_round(GeoRound round);

  /// Non-blocking submit: nullopt when the queue is full.
  std::optional<RoundId> try_submit_round(GeoRound round);

  /// Delivers a completed round's outcome, or nullopt while it is still
  /// queued/running. Throws PreconditionError for an id never submitted or
  /// already delivered.
  std::optional<RoundOutcome> poll_outcome(RoundId round);

  /// Blocks until the round completes and delivers its outcome. Same
  /// id-validity rules as poll_outcome.
  RoundOutcome wait_outcome(RoundId round);

  /// Blocks until every submitted round and flushed epoch has completed
  /// (outcomes may still be undelivered). Arrivals in the open epoch are NOT
  /// waited on — flush first.
  void drain();

  /// Number of journaled epochs found at startup: flushed epochs with ids
  /// below this are served from the journal instead of computed.
  std::size_t journaled_epochs() const { return journaled_epochs_.size(); }

  /// Appends one arrival to the open epoch (online ingestion must be
  /// enabled). Returns where it landed; the arrival's user id within its
  /// epoch is the returned index. Auto-flushes when the open epoch reaches
  /// max_epoch_arrivals, which may block while the queue is full.
  ArrivalTicket submit_arrival(auction::SingleTaskBid bid);

  /// Seals the open epoch and queues it for the dispatcher, blocking while
  /// the queue is full; nullopt when the open epoch is empty. Arrivals still
  /// open at destruction are discarded without an outcome.
  std::optional<EpochId> flush_epoch();

  /// Delivers a completed epoch's outcome, or nullopt while it is still
  /// queued/running. Throws PreconditionError for an id never flushed or
  /// already delivered.
  std::optional<EpochOutcome> poll_epoch(EpochId epoch);

  /// Blocks until the epoch settles and delivers its outcome. Same
  /// id-validity rules as poll_epoch.
  EpochOutcome wait_epoch(EpochId epoch);

  using TelemetrySink = std::function<void(const RoundTelemetry&)>;

  /// Registers a sink; returns the subscription id for unsubscribe. The sink
  /// runs on the dispatcher thread after each round completes, in round
  /// order, BEFORE the outcome becomes pollable (so wait_outcome/drain
  /// returning guarantees every sink saw the round), and must not call back
  /// into the service.
  std::size_t stream_telemetry(TelemetrySink sink);

  /// Removes a subscription. A sink already invoked for an in-flight round
  /// may still be mid-call when this returns.
  void unsubscribe(std::size_t subscription);

  ServiceStats stats() const;

 private:
  struct Request {
    RoundId round = 0;
    GeoRound payload;
    /// Epoch requests reuse the same queue: is_epoch selects which of the
    /// two id sequences (and payloads) is live.
    bool is_epoch = false;
    EpochId epoch = 0;
    std::vector<auction::online::Arrival> arrivals;
  };

  struct Subscription {
    std::size_t id = 0;
    TelemetrySink sink;
    std::size_t consecutive_failures = 0;
    bool quarantined = false;
  };

  void dispatcher_loop();
  /// Runs compute, guarded by the watchdog when configured: on expiry the
  /// runner thread is abandoned (parked in abandoned_, joined at
  /// destruction) and a synthetic kTimedOut outcome is returned.
  RoundOutcome run_guarded(Request request);
  RoundOutcome compute(const Request& request);
  /// Slot `index` of `run_slot` as one-slot engine batches, through the
  /// kShardRun fail point and the retry/backoff loop. `hit` is the round's
  /// running kShardRun hit counter (with no faults and no retries, hit ==
  /// shard slice index); `retries` accumulates extra attempts.
  auction::AuctionOutcome attempt_shard(const auction::Engine::SlotRunner& run_slot,
                                        std::size_t index, RoundId round,
                                        const common::Deadline& deadline, std::uint64_t& hit,
                                        std::size_t& retries) const;
  /// Appends a settled round's or epoch's block (`make_record()`, stream
  /// `id`) unless the id is replayed or already on disk (below `on_disk`),
  /// or journaling is quarantined; records why on outcome.journal_error.
  template <typename Outcome, typename MakeRecord>
  void journal(Outcome& outcome, std::uint64_t id, std::size_t on_disk, const char* kind,
               const MakeRecord& make_record);
  void publish(RoundOutcome outcome);
  /// Seals the open epoch under `lock` (which must hold mutex_); shared by
  /// flush_epoch and the submit_arrival auto-flush. May wait for queue
  /// space, releasing the lock while it does.
  std::optional<EpochId> flush_epoch_locked(std::unique_lock<std::mutex>& lock);
  EpochOutcome compute_epoch(const Request& request);
  void publish_epoch(EpochOutcome outcome);

  ServiceConfig config_;
  auction::Engine engine_;
  std::vector<ServiceJournalRecord> journaled_;  ///< rounds replayed at startup
  std::vector<ServiceEpochRecord> journaled_epochs_;  ///< epochs replayed at startup
  std::optional<common::journal::Writer> journal_;
  /// Cleared by the first failed append: a skipped block would break the
  /// journal's contiguous-from-0 invariant, so one failure quarantines
  /// journaling for the rest of this lifetime (the file stays a valid,
  /// replayable prefix). Dispatcher-thread only.
  bool journal_healthy_ = true;
  /// Last value reported into the service.online_budget_remaining_milli
  /// gauge (the registry is delta-only). Dispatcher-thread only.
  std::int64_t last_budget_remaining_milli_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable queue_space_;   ///< signaled when the queue shrinks
  std::condition_variable queue_ready_;   ///< signaled when work or stop arrives
  std::condition_variable round_done_;    ///< signaled when a round completes
  std::deque<Request> queue_;
  std::map<RoundId, RoundOutcome> completed_;  ///< undelivered outcomes
  RoundId next_round_ = 0;       ///< id the next submission gets
  RoundId next_completed_ = 0;   ///< lowest id not yet completed
  /// Online ingestion state (all guarded by mutex_; empty while disabled).
  std::vector<auction::online::Arrival> open_epoch_;
  std::map<EpochId, EpochOutcome> completed_epochs_;  ///< undelivered epochs
  EpochId next_epoch_ = 0;            ///< id the next flush gets
  EpochId next_epoch_completed_ = 0;  ///< lowest epoch id not yet completed
  ServiceStats stats_;
  bool stopping_ = false;

  std::mutex sinks_mutex_;
  std::vector<Subscription> sinks_;
  std::size_t next_subscription_ = 0;

  /// Watchdog-abandoned round runners: dispatcher-thread only, joined by the
  /// destructor after the dispatcher (teardown waits for wedged rounds —
  /// bounded by the longest injected stall).
  std::vector<std::thread> abandoned_;

  std::thread dispatcher_;  ///< last member: joins before the rest tears down
};

}  // namespace mcs::service
