#include "auction/engine.hpp"

#include <array>
#include <exception>
#include <utility>

#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/deadline.hpp"
#include "obs/telemetry.hpp"

namespace mcs::auction {

namespace {

// Engine-level registry metrics: batch shape plus the per-slot status mix —
// the first signals an operator watches ("how much degraded/timed-out
// traffic are we serving?"). Shared across Engine instances.
struct EngineMetrics {
  obs::Registry::MetricId batches;
  obs::Registry::MetricId auctions;
  std::array<obs::Registry::MetricId, 4> slots;  ///< indexed by AuctionStatus

  static const EngineMetrics& get() {
    static const EngineMetrics metrics{
        obs::Registry::global().metric("engine.batches"),
        obs::Registry::global().metric("engine.auctions"),
        {obs::Registry::global().metric("engine.slots_ok"),
         obs::Registry::global().metric("engine.slots_degraded"),
         obs::Registry::global().metric("engine.slots_timed_out"),
         obs::Registry::global().metric("engine.slots_failed")},
    };
    return metrics;
  }
};

void record_batch(std::size_t size) {
  if (!obs::enabled()) {
    return;
  }
  const EngineMetrics& metrics = EngineMetrics::get();
  obs::Registry::global().add(metrics.batches, 1);
  obs::Registry::global().add(metrics.auctions, static_cast<std::int64_t>(size));
}

void record_status(AuctionStatus status) {
  if (obs::enabled()) {
    obs::Registry::global().add(EngineMetrics::get().slots[static_cast<std::size_t>(status)], 1);
  }
}

MechanismOutcome dispatch(const SingleTaskInstance& instance, const MechanismConfig& config) {
  return single_task::run_mechanism(instance, config);
}

MechanismOutcome dispatch(const MultiTaskInstance& instance, const MechanismConfig& config) {
  return multi_task::run_mechanism(instance, config);
}

MechanismOutcome dispatch(const AuctionInstance& instance, const MechanismConfig& config) {
  return std::visit([&](const auto& typed) { return dispatch(typed, config); }, instance);
}

/// Runs one auction and folds any per-auction failure into the slot. The
/// happy path stores the strict outcome unchanged, so isolation costs
/// healthy auctions nothing but the status bookkeeping.
template <typename Run>
AuctionOutcome isolate(const Run& run) {
  AuctionOutcome slot;
  try {
    slot.outcome = run();
    slot.status = slot.outcome.degraded ? AuctionStatus::kDegraded : AuctionStatus::kOk;
  } catch (const common::DeadlineExceeded& e) {
    slot.status = AuctionStatus::kTimedOut;
    slot.outcome = MechanismOutcome{};
    slot.error = e.what();
  } catch (const std::exception& e) {
    slot.status = AuctionStatus::kFailed;
    slot.outcome = MechanismOutcome{};
    slot.error = e.what();
  }
  record_status(slot.status);
  return slot;
}

}  // namespace

const char* to_string(AuctionStatus status) {
  switch (status) {
    case AuctionStatus::kOk:
      return "ok";
    case AuctionStatus::kDegraded:
      return "degraded";
    case AuctionStatus::kTimedOut:
      return "timed-out";
    case AuctionStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

Engine::Engine(const EngineOptions& options)
    : owned_(options.workers > 0 ? std::make_unique<common::ThreadPool>(options.workers)
                                 : nullptr) {}

common::ThreadPool& Engine::pool() const {
  return owned_ ? *owned_ : common::ThreadPool::shared();
}

std::size_t Engine::worker_count() const { return pool().worker_count(); }

MechanismConfig Engine::effective_config(const MechanismConfig& config) const {
  MechanismConfig adjusted = config;
  if (owned_ && adjusted.reward_workers == 0) {
    adjusted.reward_workers = owned_->worker_count();
  }
  return adjusted;
}

template <EngineInstance Instance>
std::vector<MechanismOutcome> Engine::run(const std::vector<Instance>& batch,
                                          const MechanismConfig& config) const {
  const MechanismConfig adjusted = effective_config(config);
  record_batch(batch.size());
  std::vector<MechanismOutcome> outcomes(batch.size());
  // Inter-auction parallelism: one strided chunk per worker. Inside a pool
  // worker any nested parallel_map degrades to serial, so each auction runs
  // the exact serial code path; a lone auction runs inline on the calling
  // thread, where the critical-bid parallel_map still fans out. Unlike the
  // isolated entries, this keeps for_each_index's rethrow-by-index.
  pool().for_each_index(
      batch.size(),
      [&](std::size_t index) { outcomes[index] = dispatch(batch[index], adjusted); },
      pool().worker_count());
  return outcomes;
}

template <EngineInstance Instance>
std::vector<AuctionOutcome> Engine::run_isolated(const std::vector<Instance>& batch,
                                                 const MechanismConfig& config) const {
  return run_isolated(
      batch.size(),
      [&](std::size_t index, const MechanismConfig& adjusted) {
        return dispatch(batch[index], adjusted);
      },
      config);
}

std::vector<AuctionOutcome> Engine::run_isolated(std::size_t count, const SlotRunner& run_slot,
                                                 const MechanismConfig& config) const {
  const MechanismConfig adjusted = effective_config(config);
  record_batch(count);
  std::vector<AuctionOutcome> slots(count);
  // Same scheduling as run; isolate swallows per-slot exceptions before they
  // can reach for_each_index's rethrow machinery, so sibling auctions always
  // complete.
  pool().for_each_index(
      count,
      [&](std::size_t index) {
        slots[index] = isolate([&] { return run_slot(index, adjusted); });
      },
      pool().worker_count());
  return slots;
}

template <EngineInstance Instance>
MechanismOutcome Engine::run_one(const Instance& instance, const MechanismConfig& config) const {
  record_batch(1);
  return dispatch(instance, effective_config(config));
}

template <EngineInstance Instance>
AuctionOutcome Engine::run_one_isolated(const Instance& instance,
                                        const MechanismConfig& config) const {
  auto slots = run_isolated(
      1, [&](std::size_t, const MechanismConfig& adjusted) { return dispatch(instance, adjusted); },
      config);
  return std::move(slots.front());
}

// The batch and single-auction entries, instantiated for each EngineInstance.
#define MCS_ENGINE_ENTRIES(Instance)                                                               \
  template std::vector<MechanismOutcome> Engine::run(const std::vector<Instance>&,                 \
                                                     const MechanismConfig&) const;                \
  template std::vector<AuctionOutcome> Engine::run_isolated(const std::vector<Instance>&,          \
                                                            const MechanismConfig&) const;         \
  template MechanismOutcome Engine::run_one(const Instance&, const MechanismConfig&) const;        \
  template AuctionOutcome Engine::run_one_isolated(const Instance&, const MechanismConfig&) const
MCS_ENGINE_ENTRIES(SingleTaskInstance);
MCS_ENGINE_ENTRIES(MultiTaskInstance);
MCS_ENGINE_ENTRIES(AuctionInstance);
#undef MCS_ENGINE_ENTRIES

}  // namespace mcs::auction
