// Batched auction engine: the platform-facing entry point for running many
// auctions of either family on the persistent thread pool. Campaign rounds,
// experiment sweeps, and replayed traces are streams of independent sealed-bid
// auctions (Algorithms 2–5 share nothing across instances), so the engine
// parallelizes ACROSS auctions first; a lone auction instead runs on the
// calling thread where the per-winner critical-bid parallelism inside
// run_mechanism still fans out.
//
// Five entry points:
//
//   run(batch)                       strict batch, first exception rethrown
//   run_isolated(batch)              fault-isolated batch
//   run_isolated(count, SlotRunner)  fault-isolated slots that build their input
//   run_one(instance)                strict single auction
//   run_one_isolated(instance)       fault-isolated single auction
//
// The batch and single-auction entries take any EngineInstance. Every
// isolated entry is a run_isolated(count, SlotRunner) call, so all of them
// share one scheduling, capture and slot-metrics path.
//
// Determinism contract: outcomes come back in submission order and are
// bit-identical to calling the per-family run_mechanism serially on each
// instance, whatever the worker count — both parallelism levels only ever
// partition independent, index-addressed work.
//
// Fault isolation: run() keeps the strict contract (first exception by index
// rethrown after the batch completes), while the isolated entries never
// throw for a per-auction failure — each slot instead carries a structured
// AuctionStatus plus the error text, so one malformed instance or blown
// deadline cannot take down its siblings' results.
#pragma once

#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "auction/instance.hpp"
#include "common/thread_pool.hpp"

namespace mcs::auction {

/// The instance types the batch and single-auction entries accept.
template <typename Instance>
concept EngineInstance = std::same_as<Instance, SingleTaskInstance> ||
                         std::same_as<Instance, MultiTaskInstance> ||
                         std::same_as<Instance, AuctionInstance>;

/// How one isolated auction slot ended.
enum class AuctionStatus {
  kOk,        ///< clean outcome, identical to the strict path
  kDegraded,  ///< a fallback produced the outcome (see MechanismOutcome::degraded)
  kTimedOut,  ///< the wall-clock budget expired (common::DeadlineExceeded)
  kFailed,    ///< any other exception (e.g. PreconditionError on bad input)
};

const char* to_string(AuctionStatus status);

/// One slot of an isolated batch: the outcome when the auction produced one
/// (kOk/kDegraded — bit-identical to run_mechanism on that instance), plus
/// the captured error text otherwise.
struct AuctionOutcome {
  AuctionStatus status = AuctionStatus::kOk;
  MechanismOutcome outcome;  ///< default-constructed for kTimedOut/kFailed
  std::string error;         ///< exception what(); empty for kOk/kDegraded

  /// True when `outcome` is meaningful (possibly via a degraded ladder).
  bool ok() const { return status == AuctionStatus::kOk || status == AuctionStatus::kDegraded; }
};

struct EngineOptions {
  /// Worker threads. 0 shares the process-wide pool (the common case: one
  /// engine per process); a positive count gives the engine a dedicated pool
  /// of exactly that size, which then also caps the intra-auction
  /// critical-bid threads — workers = 1 is the fully serial reference path.
  std::size_t workers = 0;
};

class Engine {
 public:
  /// Produces slot `slot`'s outcome under the engine-adjusted config.
  using SlotRunner =
      std::function<MechanismOutcome(std::size_t slot, const MechanismConfig& config)>;

  explicit Engine(const EngineOptions& options = {});

  /// Threads available to a batch (the shared or dedicated pool's size).
  std::size_t worker_count() const;

  /// Runs a batch under one shared config; outcomes align with the batch.
  /// The first exception (by batch index), e.g. a PreconditionError from an
  /// invalid instance or config, is rethrown after the batch completes.
  template <EngineInstance Instance>
  std::vector<MechanismOutcome> run(const std::vector<Instance>& batch,
                                    const MechanismConfig& config = {}) const;

  /// Fault-isolated batch: never throws for a per-auction failure. Healthy
  /// slots are bit-identical to the strict path; a throwing or
  /// deadline-exceeding auction only poisons its own slot, which carries the
  /// structured status and error text instead. (Batch-level errors — e.g.
  /// allocation failure of the outcome vector itself — still throw.)
  template <EngineInstance Instance>
  std::vector<AuctionOutcome> run_isolated(const std::vector<Instance>& batch,
                                           const MechanismConfig& config = {}) const;

  /// Fault-isolated batch of `count` slots that each build their own input:
  /// slot k calls run_slot(k, config) on a pool worker — e.g. to fill one
  /// shard's view straight from a shared round and run the mechanism on it —
  /// so input preparation runs in parallel too, and a slot whose build
  /// throws fails alone. A lone slot runs inline on the calling thread,
  /// where the critical-bid computations still fan out over the pool.
  /// run_slot must be safe to call concurrently.
  std::vector<AuctionOutcome> run_isolated(std::size_t count, const SlotRunner& run_slot,
                                           const MechanismConfig& config = {}) const;

  /// Single-auction convenience: runs on the calling thread with the
  /// engine's worker budget applied to the critical-bid computations.
  template <EngineInstance Instance>
  MechanismOutcome run_one(const Instance& instance, const MechanismConfig& config = {}) const;

  /// Isolated single-auction convenience: a one-slot run_isolated.
  template <EngineInstance Instance>
  AuctionOutcome run_one_isolated(const Instance& instance,
                                  const MechanismConfig& config = {}) const;

 private:
  common::ThreadPool& pool() const;
  /// A dedicated pool's size becomes the default critical-bid budget, so an
  /// Engine{workers = w} never uses more than w threads at either level.
  MechanismConfig effective_config(const MechanismConfig& config) const;

  std::unique_ptr<common::ThreadPool> owned_;  ///< null when sharing
};

}  // namespace mcs::auction
