#include "service/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <sstream>
#include <utility>

#include "auction/multi_task/mechanism.hpp"
#include "common/check.hpp"

namespace mcs::service {

namespace {

using common::journal::format_double;

/// The service's metrics, one per event, numbered in registration order (a
/// fresh registry gives metric k the id k). The first fifteen are
/// ServiceStats' fields in declaration order; the rest have no stats field.
enum Metric : obs::Registry::MetricId {
  kRoundsSubmitted, kRoundsCompleted, kRoundsReplayed, kRoundsFailed, kRoundsDegraded,
  kShardRetries, kWatchdogFires, kSinkFailures, kSinksQuarantined, kJournalAppendFailures,
  kArrivalsSubmitted, kEpochsFlushed, kEpochsCompleted, kEpochsReplayed, kEpochsFailed,
  kQueueDepth, kOnlineAccepts, kOnlineThresholdUpdates, kOnlineBudgetRemainingMilli,
  kMetricCount,
};

constexpr std::array<const char*, kMetricCount> kMetricNames = {
    "service.rounds_submitted", "service.rounds_completed", "service.rounds_replayed",
    "service.rounds_failed", "service.rounds_degraded", "service.shard_retries",
    "service.watchdog_fires", "service.sink_failures", "service.sinks_quarantined",
    "service.journal_append_failures", "service.arrivals_submitted", "service.epochs_flushed",
    "service.epochs_completed", "service.epochs_replayed", "service.epochs_failed",
    "service.queue_depth", "service.online_accepts", "service.online_threshold_updates",
    "service.online_budget_remaining_milli"};

}  // namespace

std::string to_json(const RoundTelemetry& telemetry) {
  std::ostringstream out;
  out << "{\"round\":" << telemetry.round                        //
      << ",\"status\":\"" << auction::to_string(telemetry.status) << '"'  //
      << ",\"shards_run\":" << telemetry.shards_run              //
      << ",\"straddlers\":" << telemetry.straddlers              //
      << ",\"shard_retries\":" << telemetry.shard_retries        //
      << ",\"latency_seconds\":" << format_double(telemetry.latency_seconds)
      << ",\"replayed\":" << (telemetry.replayed_from_journal ? 1 : 0)
      << ",\"mechanism\":" << obs::to_json(telemetry.mechanism) << '}';
  return out.str();
}

std::string service_config_fingerprint(const ServiceConfig& config) {
  // Only knobs that shape outcomes; see the declaration for what is excluded
  // (everything covered by a bit-identity contract, plus queue/thread sizes).
  const auto& m = config.mechanism;
  std::ostringstream out;
  out << "shards=" << config.shards.shard_count()                          //
      << " shard_policy=" << static_cast<int>(config.shards.policy())      //
      << " alpha=" << format_double(m.alpha)                               //
      << " auction_seconds=" << format_double(m.time_budget_seconds)       //
      << " degrade=" << (m.degrade_on_timeout ? 1 : 0)                     //
      << " epsilon=" << format_double(m.single_task.epsilon)               //
      << " bisect_iters=" << m.single_task.binary_search_iterations        //
      << " rule=" << static_cast<int>(m.multi_task.critical_bid_rule)      //
      << " partial=" << (m.multi_task.partial_coverage ? 1 : 0);
  if (config.merge_policy != MergePolicy::kPoisonRound) {
    // Only non-default so every pre-MergePolicy journal (implicitly
    // kPoisonRound) keeps resuming. Retry/watchdog/sink knobs and the fault
    // injector are deliberately excluded: without injection they never
    // change a round's outcome, and WITH injection the journaled outcomes
    // are exactly what the seeded faults produced — replayable by design.
    out << " merge=" << static_cast<int>(config.merge_policy);
  }
  if (config.online.enabled) {
    // Only when enabled, so every round-only journal keeps resuming; every
    // knob that shapes an epoch's outcome is covered. max_epoch_arrivals is
    // excluded — it shapes epoch BOUNDARIES, which the arrival echo check
    // already pins per epoch.
    out << " online=1 budget=" << format_double(config.online.mechanism.budget)  //
        << " online_alpha=" << format_double(config.online.mechanism.alpha)      //
        << " phi=" << format_double(config.online.mechanism.sample_fraction)     //
        << " stages=" << config.online.mechanism.stages                          //
        << " req=" << format_double(config.online.requirement_pos);
  }
  return out.str();
}

CampaignService::CampaignService(const ServiceConfig& config)
    : config_(config), engine_(auction::EngineOptions{.workers = config.workers}) {
  MCS_EXPECTS(config.queue_capacity >= 1, "service queue needs capacity >= 1");
  MCS_EXPECTS(config.retry.max_attempts >= 1, "shard retry needs max_attempts >= 1");
  MCS_EXPECTS(config.retry.initial_backoff_seconds >= 0.0 &&
                  config.retry.max_backoff_seconds >= 0.0,
              "shard retry backoffs must be non-negative");
  MCS_EXPECTS(config.retry.backoff_multiplier >= 1.0,
              "shard retry backoff_multiplier must be >= 1 (backoff never shrinks)");
  MCS_EXPECTS(config.watchdog_seconds >= 0.0, "watchdog_seconds must be non-negative (0 = off)");
  MCS_EXPECTS(config.sink_slow_seconds >= 0.0, "sink_slow_seconds must be non-negative (0 = off)");
  if (config.online.enabled) {
    // Fail at construction, not at the first flush: the same checks
    // run_online_mechanism makes per epoch.
    MCS_EXPECTS(config.online.requirement_pos > 0.0 && config.online.requirement_pos < 1.0,
                "online requirement_pos must be in (0, 1)");
    MCS_EXPECTS(config.online.max_epoch_arrivals >= 1, "online max_epoch_arrivals must be >= 1");
    MCS_EXPECTS(config.online.mechanism.budget > 0.0, "online budget must be positive");
    MCS_EXPECTS(config.online.mechanism.alpha > 0.0, "online alpha must be positive");
    MCS_EXPECTS(config.online.mechanism.sample_fraction > 0.0 &&
                    config.online.mechanism.sample_fraction < 1.0,
                "online sample_fraction must be in (0, 1)");
    MCS_EXPECTS(config.online.mechanism.stages >= 1 && config.online.mechanism.stages <= 32,
                "online stages must be in [1, 32]");
  }
  MCS_EXPECTS(config.shards.shard_count() == 1 ||
                  config.mechanism.multi_task.critical_bid_rule !=
                      auction::CriticalBidRule::kPaperIterationMin,
              "CriticalBidRule::kPaperIterationMin is not shard-decomposable (its minimum "
              "ranges over the GLOBAL without-i iteration sequence); use kBinarySearch or a "
              "single shard");
  for (const char* name : kMetricNames) {
    metrics_.metric(name);
  }
  if (!config_.journal_path.empty()) {
    auto replayed = load_service_journal(config_.journal_path);
    journal_.emplace(common::journal::resume(kServiceJournalFormat, config_.journal_path, replayed,
                                             service_config_fingerprint(config_)));
    journal_->set_fault_injector(config_.fault_injector);
    journaled_ = std::move(replayed.records);
    journaled_epochs_ = std::move(replayed.epochs);
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

CampaignService::~CampaignService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  dispatcher_.join();
  // Watchdog-abandoned runners finish (or sleep out their injected stalls)
  // here; their outcomes are discarded — the rounds already published as
  // kTimedOut. Joining after the dispatcher keeps abandoned_ single-owner.
  for (auto& runner : abandoned_) {
    runner.join();
  }
}

RoundId CampaignService::submit_round(GeoRound round) {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_space_.wait(lock, [this] { return queue_.size() < config_.queue_capacity; });
  return enqueue(lock, Request(std::move(round)));
}

std::optional<RoundId> CampaignService::try_submit_round(GeoRound round) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.size() >= config_.queue_capacity) {
    return std::nullopt;
  }
  return enqueue(lock, Request(std::move(round)));
}

std::uint64_t CampaignService::enqueue(std::unique_lock<std::mutex>& lock, Request request) {
  const std::uint64_t id = (request.is_epoch ? epochs_.next : rounds_.next)++;
  request.id = id;
  metrics_.add(request.is_epoch ? kEpochsFlushed : kRoundsSubmitted, 1);
  metrics_.add(kQueueDepth, 1);
  queue_.push_back(std::move(request));
  lock.unlock();
  queue_ready_.notify_one();
  return id;
}

template <typename Outcome>
std::optional<Outcome> CampaignService::take(Sequence<Outcome>& sequence, std::uint64_t id,
                                             const char* caller, bool block) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Fail fast on ids this service can never deliver — waiting on one would
  // otherwise block forever (poll would spin forever), so the id checks are
  // part of the exactly-once contract, not just hygiene. The message names
  // the id and the valid range so the caller's bug is diagnosable. The
  // never-submitted check runs BEFORE any wait for the same reason.
  const auto subject = [&] {
    return std::string(caller) + ": " + sequence.noun + " " + std::to_string(id);
  };
  MCS_EXPECTS(id < sequence.next, subject() + " was never " + sequence.verb + " (next " +
                                      sequence.noun + " id is " +
                                      std::to_string(sequence.next) + ")");
  if (block) {
    done_.wait(lock, [&] { return id < sequence.next_completed; });
  }
  const auto it = sequence.undelivered.find(id);
  if (it == sequence.undelivered.end()) {
    MCS_EXPECTS(id >= sequence.next_completed,
                subject() + "'s outcome was already delivered (outcomes deliver exactly once)");
    return std::nullopt;
  }
  Outcome outcome = std::move(it->second);
  sequence.undelivered.erase(it);
  return outcome;
}

template <typename Outcome>
void CampaignService::complete(Sequence<Outcome>& sequence, std::uint64_t id, Outcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCS_ENSURES(id == sequence.next_completed, "outcomes must complete in id order");
    sequence.undelivered.emplace(id, std::move(outcome));
    ++sequence.next_completed;
  }
  done_.notify_all();
}

std::optional<RoundOutcome> CampaignService::poll_outcome(RoundId round) {
  return take(rounds_, round, "poll_outcome", false);
}

RoundOutcome CampaignService::wait_outcome(RoundId round) {
  return *take(rounds_, round, "wait_outcome", true);
}

void CampaignService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] {
    return rounds_.next_completed == rounds_.next && epochs_.next_completed == epochs_.next;
  });
}

ArrivalTicket CampaignService::submit_arrival(auction::SingleTaskBid bid) {
  std::unique_lock<std::mutex> lock(mutex_);
  MCS_EXPECTS(config_.online.enabled, "submit_arrival: online ingestion is not enabled");
  // The same bid validation ArrivalStream would apply, surfaced at the
  // ingestion edge so a bad arrival cannot poison its whole epoch.
  MCS_EXPECTS(bid.cost > 0.0, "submit_arrival: arrival cost must be positive");
  MCS_EXPECTS(bid.pos >= 0.0 && bid.pos <= 1.0, "submit_arrival: arrival PoS must be in [0, 1]");
  const ArrivalTicket ticket{epochs_.next, open_epoch_.size()};
  open_epoch_.push_back(
      auction::online::Arrival{static_cast<auction::UserId>(open_epoch_.size()), bid});
  metrics_.add(kArrivalsSubmitted, 1);
  if (open_epoch_.size() >= config_.online.max_epoch_arrivals) {
    flush_epoch_locked(lock);  // bounded memory under a firehose
  }
  return ticket;
}

std::optional<EpochId> CampaignService::flush_epoch() {
  std::unique_lock<std::mutex> lock(mutex_);
  MCS_EXPECTS(config_.online.enabled, "flush_epoch: online ingestion is not enabled");
  return flush_epoch_locked(lock);
}

std::optional<EpochId> CampaignService::flush_epoch_locked(std::unique_lock<std::mutex>& lock) {
  if (open_epoch_.empty()) {
    return std::nullopt;
  }
  queue_space_.wait(lock, [this] { return queue_.size() < config_.queue_capacity; });
  if (open_epoch_.empty()) {
    return std::nullopt;  // a concurrent flush sealed it while we waited
  }
  return enqueue(lock, Request(std::exchange(open_epoch_, {})));
}

std::optional<EpochOutcome> CampaignService::poll_epoch(EpochId epoch) {
  return take(epochs_, epoch, "poll_epoch", false);
}

EpochOutcome CampaignService::wait_epoch(EpochId epoch) {
  return *take(epochs_, epoch, "wait_epoch", true);
}

std::size_t CampaignService::stream_telemetry(TelemetrySink sink) {
  MCS_EXPECTS(sink != nullptr, "stream_telemetry needs a callable sink");
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  const std::size_t id = next_subscription_++;
  sinks_.push_back(Subscription{id, std::move(sink), 0, false});
  return id;
}

void CampaignService::unsubscribe(std::size_t subscription) {
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  for (std::size_t k = 0; k < sinks_.size(); ++k) {
    if (sinks_[k].id == subscription) {
      sinks_.erase(sinks_.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
  }
  throw common::PreconditionError("unsubscribe: unknown telemetry subscription");
}

ServiceStats CampaignService::stats() const {
  const auto snapshot = metrics_.snapshot();
  const auto value = [&snapshot](Metric metric) {
    return static_cast<std::uint64_t>(snapshot.values[metric].second);
  };
  return ServiceStats{
      .submitted = value(kRoundsSubmitted),
      .completed = value(kRoundsCompleted),
      .replayed = value(kRoundsReplayed),
      .failed = value(kRoundsFailed),
      .degraded = value(kRoundsDegraded),
      .shard_retries = value(kShardRetries),
      .watchdog_fires = value(kWatchdogFires),
      .sink_failures = value(kSinkFailures),
      .sinks_quarantined = value(kSinksQuarantined),
      .journal_append_failures = value(kJournalAppendFailures),
      .arrivals_submitted = value(kArrivalsSubmitted),
      .epochs_flushed = value(kEpochsFlushed),
      .epochs_completed = value(kEpochsCompleted),
      .epochs_replayed = value(kEpochsReplayed),
      .epochs_failed = value(kEpochsFailed),
  };
}

obs::Registry::Snapshot CampaignService::metrics() const { return metrics_.snapshot(); }

template <typename Outcome, typename MakeRecord>
void CampaignService::journal(Outcome& outcome, std::uint64_t id, std::size_t on_disk,
                              const char* kind, const MakeRecord& make_record) {
  // A replayed id is already on disk, and so is a failed replay's (a shape
  // mismatch): appending either again would duplicate the id and break the
  // journal's contiguous-from-0 invariant on the next load.
  if (!journal_ || outcome.replayed_from_journal || id < on_disk) {
    return;
  }
  if (!journal_healthy_) {
    // Quarantined by an earlier failed append: the skipped block keeps the
    // on-disk prefix contiguous, and the lost durability stays visible on
    // every affected round and epoch.
    outcome.journal_error = std::string("journal quarantined by an earlier append failure; ") +
                            kind + " not journaled";
    return;
  }
  try {
    journal_->append(to_text(make_record()), id);
  } catch (const std::exception& e) {
    // One failed append quarantines journaling for this lifetime, for rounds
    // and epochs alike (they share the file): a skipped block would break
    // its sequence's contiguity and brick every later replay. The file keeps
    // its valid prefix; the outcome stands, just not durably.
    journal_healthy_ = false;
    outcome.journal_error = std::string("journal append failed: ") + e.what();
  }
}

void CampaignService::dispatcher_loop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and every submitted round has been served
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      metrics_.add(kQueueDepth, -1);
    }
    queue_space_.notify_one();

    if (request.is_epoch) {
      // Epochs compute inline on the dispatcher: the online mechanism is a
      // single O(n log n) pass, so the watchdog/retry ladder that guards
      // round computation would be pure overhead here.
      EpochOutcome out = compute_epoch(request);
      journal(out, out.epoch, journaled_epochs_.size(), "epoch", [&] {
        return ServiceEpochRecord{out.epoch, out.status, request.arrivals, out.outcome, out.error};
      });
      publish_epoch(std::move(out));
      continue;
    }

    // The round's journaled shape must be captured before run_guarded takes
    // ownership of the request (the watchdog path moves it into the runner).
    const RoundId round = request.id;
    const std::size_t users = request.payload.instance.num_users();
    const std::size_t tasks = request.payload.instance.num_tasks();

    RoundOutcome out;
    try {
      // A dropped handoff still publishes: the round fails LOUDLY — every
      // submitted id stays pollable exactly once, never silently lost.
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kQueueHandoff, round,
                          0);
      out = run_guarded(std::move(request));
    } catch (const std::exception& e) {
      out = RoundOutcome{};
      out.round = round;
      out.status = auction::AuctionStatus::kFailed;
      out.error = e.what();
    }

    journal(out, out.round, journaled_.size(), "round", [&] {
      return ServiceJournalRecord{out.round,      out.status,     users,       tasks,
                                  out.shards_run, out.straddlers, out.outcome, out.error};
    });
    publish(std::move(out));
  }
}

RoundOutcome CampaignService::run_guarded(Request request) {
  // Journal-replayed rounds are instant and never wedge; the watchdog only
  // guards computed rounds.
  if (config_.watchdog_seconds <= 0.0 || request.id < journaled_.size()) {
    return compute(request);
  }

  struct GuardedRun {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Request request;
    RoundOutcome outcome;
  };
  auto run = std::make_shared<GuardedRun>();
  const RoundId round = request.id;
  run->request = std::move(request);

  // One thread per guarded round, not a second pool: the runner only
  // orchestrates (the engine's pool still does the work), and a wedged
  // runner must be abandonable without poisoning any reusable worker.
  std::thread runner([this, run] {
    RoundOutcome outcome;
    try {
      outcome = compute(run->request);
    } catch (const std::exception& e) {
      outcome.round = run->request.id;
      outcome.status = auction::AuctionStatus::kFailed;
      outcome.error = e.what();
    }
    std::lock_guard<std::mutex> lock(run->m);
    run->outcome = std::move(outcome);
    run->done = true;
    run->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(run->m);
  const bool finished =
      run->cv.wait_for(lock, std::chrono::duration<double>(config_.watchdog_seconds),
                       [&run] { return run->done; });
  lock.unlock();
  if (finished) {
    runner.join();
    return std::move(run->outcome);
  }

  // Watchdog fires: abandon the runner (it keeps the shared GuardedRun state
  // alive and is joined at destruction) and synthesize the round's outcome.
  // The escalation ladder's last rung — cooperative deadlines and retries
  // both failed to bring the round home in time.
  abandoned_.push_back(std::move(runner));
  metrics_.add(kWatchdogFires, 1);

  RoundOutcome out;
  out.round = round;
  out.status = auction::AuctionStatus::kTimedOut;
  out.error = "watchdog: round still running after " +
              format_double(config_.watchdog_seconds) + "s; runner abandoned";
  out.latency_seconds = config_.watchdog_seconds;
  return out;
}

RoundOutcome CampaignService::compute(const Request& request) {
  RoundOutcome out;
  out.round = request.id;

  // Durability: a round already settled in the journal is served from disk,
  // bit-identically, without recomputation — unless the resubmitted round's
  // shape diverges from what was journaled, which means the caller is not
  // replaying the same campaign.
  if (request.id < journaled_.size()) {
    try {
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kJournalReplay,
                          request.id, 0);
    } catch (const std::exception& e) {
      // A replay that cannot be read fails the round rather than silently
      // recomputing it — the journaled outcome is the settled truth.
      out.status = auction::AuctionStatus::kFailed;
      out.error = e.what();
      return out;
    }
    const auto& record = journaled_[static_cast<std::size_t>(request.id)];
    if (record.users != request.payload.instance.num_users() ||
        record.tasks != request.payload.instance.num_tasks()) {
      out.status = auction::AuctionStatus::kFailed;
      out.error = "journal replay mismatch: round " + std::to_string(request.id) +
                  " was journaled with " + std::to_string(record.users) + " users / " +
                  std::to_string(record.tasks) + " tasks but resubmitted with " +
                  std::to_string(request.payload.instance.num_users()) + " / " +
                  std::to_string(request.payload.instance.num_tasks());
      return out;
    }
    out.status = record.status;
    out.outcome = record.outcome;
    out.error = record.error;
    out.shards_run = record.shards_run;
    out.straddlers = record.straddlers;
    out.replayed_from_journal = true;
    return out;
  }

  const auto start = std::chrono::steady_clock::now();
  // Retry backoffs never sleep past the watchdog: a retry that cannot start
  // before the round is abandoned is pure waste.
  const auto deadline = common::Deadline::from_budget(config_.watchdog_seconds);
  try {
    // Every shard attempt, first tries and retries alike, runs as a slot of
    // ONE engine batch. The single-shard pass-through is a one-slot batch
    // over the flat instance (bit-identical to the bare engine), and so is a
    // sharded round no shard owns a task of (a zero-task round).
    const auto& flat = request.payload.instance;
    RoundPartition partition;
    if (config_.shards.shard_count() > 1) {
      partition = assign_owners(request.payload, config_.shards);
      out.straddlers = partition.straddlers.size();
      out.shards_run = partition.shards.size();
    } else {
      out.shards_run = 1;
    }
    const std::size_t slots = std::max<std::size_t>(partition.shards.size(), 1);
    // A shard's slot fills its view straight from the submitted round and
    // runs the mechanism on it, so the view builds run in parallel and a
    // malformed slice fails only its own slot. The unmasked-reward oracle
    // re-solves instance copies, so under it the slot builds the AoS slice
    // instead.
    const auction::Engine::SlotRunner run_slot = [&](std::size_t slice,
                                                     const auction::MechanismConfig& config) {
      if (partition.shards.empty()) {
        return auction::multi_task::run_mechanism(flat, config);
      }
      return config.multi_task.masked_rewards
                 ? auction::multi_task::run_mechanism(slice_view(flat, partition, slice), config)
                 : auction::multi_task::run_mechanism(slice_instance(flat, partition, slice),
                                                      config);
    };
    std::vector<std::size_t> retries(slots, 0);
    auto outcomes = engine_.run_isolated(
        slots,
        [&](std::size_t slot, const auction::MechanismConfig& config) {
          return attempt_shard(run_slot, slot, slots, request.id, deadline, config, retries[slot]);
        },
        config_.mechanism);
    out.shard_retries = std::accumulate(retries.begin(), retries.end(), std::size_t{0});
    auto merged = partition.shards.empty()
                      ? std::move(outcomes.front())
                      : merge_outcomes(flat, partition, outcomes,
                                       config_.mechanism.multi_task.partial_coverage,
                                       config_.merge_policy);
    out.status = merged.status;
    out.outcome = std::move(merged.outcome);
    out.error = std::move(merged.error);
  } catch (const std::exception& e) {
    // The owner pass rejected the round (task_cells misaligned with the
    // instance, a task id outside the round, a PoS array misaligned with its
    // tasks) — poison this round only, like the engine's isolated path.
    out.status = auction::AuctionStatus::kFailed;
    out.outcome = auction::MechanismOutcome{};
    out.error = e.what();
  }
  out.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

auction::MechanismOutcome CampaignService::attempt_shard(
    const auction::Engine::SlotRunner& run_slot, std::size_t slot, std::size_t slots,
    RoundId round, const common::Deadline& deadline, const auction::MechanismConfig& config,
    std::size_t& retries) const {
  double backoff = config_.retry.initial_backoff_seconds;
  for (std::uint64_t attempt = 0;; ++attempt) {
    double remaining = 0.0;
    try {
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kShardRun, round,
                          attempt * slots + slot);
      return run_slot(slot, config);
    } catch (const std::exception&) {
      // An injected shard failure lands exactly where a real one would: the
      // last attempt's exception becomes the engine's dead slot, for the
      // merge policy to rule on. A degraded outcome returns, never retries.
      remaining = deadline.remaining_seconds();
      if (attempt + 1 >= config_.retry.max_attempts || remaining <= 0.0) {
        throw;  // out of attempts, or the watchdog is about to fire
      }
    }
    const double sleep_seconds = std::min(backoff, remaining);
    if (sleep_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
    }
    backoff = std::min(backoff * config_.retry.backoff_multiplier,
                       config_.retry.max_backoff_seconds);
    ++retries;
  }
}

EpochOutcome CampaignService::compute_epoch(const Request& request) {
  EpochOutcome out;
  out.epoch = request.id;

  // Durability mirrors rounds: a journaled epoch is served from disk,
  // bit-identically, unless the re-fed arrivals diverge from what was
  // journaled (doubles round-trip exactly, so exact equality is the right
  // test).
  if (request.id < journaled_epochs_.size()) {
    const auto& record = journaled_epochs_[static_cast<std::size_t>(request.id)];
    bool matches = record.arrivals.size() == request.arrivals.size();
    for (std::size_t k = 0; matches && k < record.arrivals.size(); ++k) {
      matches = record.arrivals[k].user == request.arrivals[k].user &&
                record.arrivals[k].bid.cost == request.arrivals[k].bid.cost &&
                record.arrivals[k].bid.pos == request.arrivals[k].bid.pos;
    }
    if (!matches) {
      out.status = auction::AuctionStatus::kFailed;
      out.error = "journal replay mismatch: epoch " + std::to_string(request.id) +
                  " was journaled with " + std::to_string(record.arrivals.size()) +
                  " arrivals that do not match the " + std::to_string(request.arrivals.size()) +
                  " re-fed ones";
      return out;
    }
    out.status = record.status;
    out.outcome = record.outcome;
    out.error = record.error;
    out.replayed_from_journal = true;
    return out;
  }

  const auto start = std::chrono::steady_clock::now();
  try {
    const auction::online::ArrivalStream stream(config_.online.requirement_pos,
                                                request.arrivals);
    out.outcome = auction::online::run_online_mechanism(stream, config_.online.mechanism);
  } catch (const std::exception& e) {
    // A rejected epoch poisons itself only, like a failed round.
    out.status = auction::AuctionStatus::kFailed;
    out.outcome = auction::online::OnlineOutcome{};
    out.error = e.what();
  }
  out.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

void CampaignService::publish_epoch(EpochOutcome outcome) {
  metrics_.add(kOnlineAccepts, static_cast<std::int64_t>(outcome.outcome.accepted));
  metrics_.add(kOnlineThresholdUpdates,
               static_cast<std::int64_t>(outcome.outcome.threshold_updates));
  // Gauge (additive deltas, dispatcher-thread only): the last settled
  // epoch's unspent worst-case budget, in milli-units so the integer
  // registry keeps three decimals.
  const auto remaining_milli = static_cast<std::int64_t>(
      (config_.online.mechanism.budget - outcome.outcome.worst_case_payout) * 1000.0);
  metrics_.add(kOnlineBudgetRemainingMilli, remaining_milli - last_budget_remaining_milli_);
  last_budget_remaining_milli_ = remaining_milli;
  metrics_.add(kEpochsCompleted, 1);
  metrics_.add(kJournalAppendFailures, outcome.journal_error.empty() ? 0 : 1);
  metrics_.add(kEpochsReplayed, outcome.replayed_from_journal ? 1 : 0);
  metrics_.add(kEpochsFailed, outcome.ok() ? 0 : 1);
  const EpochId epoch = outcome.epoch;
  complete(epochs_, epoch, std::move(outcome));
}

void CampaignService::publish(RoundOutcome outcome) {
  RoundTelemetry telemetry;
  telemetry.round = outcome.round;
  telemetry.status = outcome.status;
  telemetry.shards_run = outcome.shards_run;
  telemetry.straddlers = outcome.straddlers;
  telemetry.shard_retries = outcome.shard_retries;
  telemetry.latency_seconds = outcome.latency_seconds;
  telemetry.replayed_from_journal = outcome.replayed_from_journal;
  telemetry.mechanism = outcome.outcome.telemetry;

  // Sinks run BEFORE the outcome becomes pollable, so a caller returning
  // from wait_outcome/drain knows every sink already saw the round — anyone
  // tearing down sink state after a drain cannot race a late delivery. They
  // run outside mutex_ so a slow dashboard cannot stall poll/submit;
  // copying the list keeps unsubscribe-during-delivery safe (the documented
  // caveat: an in-flight call to a just-removed sink may still finish).
  // Quarantined sinks are skipped entirely.
  struct SinkCall {
    std::size_t id = 0;
    TelemetrySink sink;
    bool failed = false;
  };
  std::vector<SinkCall> calls;
  {
    std::lock_guard<std::mutex> lock(sinks_mutex_);
    for (const auto& sub : sinks_) {
      if (!sub.quarantined) {
        calls.push_back(SinkCall{sub.id, sub.sink, false});
      }
    }
  }
  // Each delivery is wrapped: a throwing (or, with sink_slow_seconds, a
  // slow) sink records an error on the round instead of propagating out of
  // the dispatcher thread, and its failure streak feeds the quarantine. The
  // kSinkDispatch hit index is the sink's ordinal in this round's delivery
  // list, so a schedule can target "round r, second sink".
  for (std::size_t ordinal = 0; ordinal < calls.size(); ++ordinal) {
    std::string error;
    const auto begin = std::chrono::steady_clock::now();
    try {
      common::fault_point(config_.fault_injector.get(), common::FailPoint::kSinkDispatch,
                          outcome.round, ordinal);
      calls[ordinal].sink(telemetry);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    if (error.empty() && config_.sink_slow_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
      if (elapsed > config_.sink_slow_seconds) {
        error = "sink exceeded " + format_double(config_.sink_slow_seconds) + "s time budget";
      }
    }
    if (!error.empty()) {
      outcome.sink_errors.push_back("telemetry sink " + std::to_string(calls[ordinal].id) +
                                    ": " + error);
    }
    calls[ordinal].failed = !error.empty();
  }

  // Streaks write back by id under the lock — a sink unsubscribed (or
  // replaced) mid-delivery is simply skipped.
  std::uint64_t sink_failures = 0;
  std::uint64_t newly_quarantined = 0;
  if (!calls.empty()) {
    std::lock_guard<std::mutex> lock(sinks_mutex_);
    for (const auto& call : calls) {
      const auto it = std::find_if(sinks_.begin(), sinks_.end(),
                                   [&call](const Subscription& s) { return s.id == call.id; });
      if (it == sinks_.end()) {
        continue;
      }
      if (!call.failed) {
        it->consecutive_failures = 0;
        continue;
      }
      ++sink_failures;
      ++it->consecutive_failures;
      if (config_.sink_quarantine_failures > 0 && !it->quarantined &&
          it->consecutive_failures >= config_.sink_quarantine_failures) {
        it->quarantined = true;
        ++newly_quarantined;
      }
    }
  }
  // Counted before the outcome becomes pollable: complete()'s lock orders
  // these adds before any stats() read that follows a delivery.
  metrics_.add(kSinkFailures, static_cast<std::int64_t>(sink_failures));
  metrics_.add(kSinksQuarantined, static_cast<std::int64_t>(newly_quarantined));
  metrics_.add(kShardRetries, static_cast<std::int64_t>(outcome.shard_retries));
  metrics_.add(kRoundsCompleted, 1);
  metrics_.add(kJournalAppendFailures, outcome.journal_error.empty() ? 0 : 1);
  metrics_.add(kRoundsReplayed, outcome.replayed_from_journal ? 1 : 0);
  if (outcome.status == auction::AuctionStatus::kDegraded) {
    metrics_.add(kRoundsDegraded, 1);
  } else if (!outcome.ok()) {
    metrics_.add(kRoundsFailed, 1);
  }
  const RoundId round = outcome.round;
  complete(rounds_, round, std::move(outcome));
}

}  // namespace mcs::service
