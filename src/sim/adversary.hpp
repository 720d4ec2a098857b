// Seed-replayable attack harness — the adversarial half of the scenario
// sweep (ROADMAP item 2). The paper proves strategyproofness and individual
// rationality for isolated, truthfully-reporting users under independent
// execution uncertainty; this layer wraps any auction with exactly the
// hostile conditions that trust model excludes and MEASURES what survives:
//
//   (a) ε-DP PoS report noising (sim/privacy.hpp) — the mechanism runs on
//       privatized reports while utilities and coverage follow true types;
//   (b) correlated mass failures — per-round weather events drawn through
//       sim::draw_cell_failure, exportable as common::FaultInjector fail_at
//       coordinates so a weather event also kills the owning service shard;
//   (c) Sybil / collusion probes — identity splitting and coalition bid
//       shading with joint-utility accounting against the TRUE types;
//   (d) reputation-weighted PoS priors — a multi-round loop that discounts
//       declared contributions by a caller-supplied prior (the concrete
//       weighting lives in platform/reputation.hpp, which closes the loop
//       with a ReputationTracker; the layering keeps sim below platform).
//
// Determinism contract (pinned by tests/sim_adversary_test.cpp): every draw
// comes from a stream that is a PURE function of (seed, attack axis, round
// [, user]) — the FaultInjector discipline — so an attack schedule replays
// bit-for-bit, per-round realizations are independent of how many rounds
// were materialized before them, and a single user's noise can be replayed
// in isolation (which is what the strategic-deviation probes need: a
// deviation re-noises the deviated report with the SAME draws, i.e. common
// random numbers across the deviation grid).
//
// The sweep that drives all of it and counts fast-vs-oracle divergences
// lives bench-side, in bench/harness/adversarial_sweep.hpp. See DESIGN.md §14
// and the EXPERIMENTS.md "Adversarial & privacy sweep" chapter.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "auction/engine.hpp"
#include "auction/instance.hpp"
#include "common/rng.hpp"
#include "sim/failures.hpp"
#include "sim/privacy.hpp"

namespace mcs::sim {

// ---------------------------------------------------------------------------
// Pure attack streams
// ---------------------------------------------------------------------------

/// The independent randomness lanes of the harness. Streams derived for
/// different axes never correlate even at equal (seed, round).
enum class AttackAxis : std::uint64_t {
  kPrivacy = 1,     ///< per-(round, user) report noising
  kCellFailure,     ///< per-round weather event draw
  kSybil,           ///< sybil target / clone-count draws
  kCoalition,       ///< coalition membership / shade draws
  kReputation,      ///< per-round execution draws of the feedback loop
  kInstance,        ///< hostile instance generation
  kMisreport,       ///< strategic-deviation grids of the property probes
};

/// Rng seeded by a pure hash of (seed, axis, round): any thread, any
/// materialization order, same stream.
common::Rng attack_stream(std::uint64_t seed, AttackAxis axis, std::uint64_t round);

/// Per-user refinement, pure in (seed, axis, round, user) — the lane the
/// report channel uses so one user's noise replays in isolation.
common::Rng attack_user_stream(std::uint64_t seed, AttackAxis axis, std::uint64_t round,
                               auction::UserId user);

// ---------------------------------------------------------------------------
// Attack configuration & per-round schedule
// ---------------------------------------------------------------------------

struct AttackConfig {
  std::uint64_t seed = 0x5eedULL;
  /// Report channel applied to every declared PoS before the mechanism runs.
  PrivacyModel privacy;
  /// Per-round weather events (empty cells + zero prob = disabled).
  CellFailureModel cell_failures;

  void validate() const;
};

/// The materialized per-round attack realizations. Same config.seed → same
/// schedule, bit for bit; round r's entry never depends on how many rounds
/// were drawn before it.
struct AttackSchedule {
  std::uint64_t seed = 0;
  std::vector<CellFailureEvent> events;  ///< one per round
};

AttackSchedule make_attack_schedule(const AttackConfig& config, std::size_t rounds);

/// Composes the schedule with common::FaultInjector: one (round, shard)
/// fail_at coordinate per realized weather event, `shard_of` mapping the
/// struck cell to its owning shard (service::ShardMap::shard_of in the
/// sharded service; any pure map works). Feed the result into a
/// FailPointSpec::fail_at on kShardRun and the weather event also takes down
/// the shard that owns the cell — the blast-radius composition the chaos
/// bench measures.
std::vector<std::pair<std::uint64_t, std::uint64_t>> schedule_fail_at(
    const AttackSchedule& schedule, const std::function<std::size_t(geo::CellId)>& shard_of);

/// The report stream of (round, user) under this config — the lane both the
/// instance noising and the deviation probes draw from.
common::Rng report_stream(const AttackConfig& config, std::uint64_t round,
                          auction::UserId user);

/// The platform's view of a round: every user's declared PoS pushed through
/// the privacy channel on her own report_stream. Pure in (config, round,
/// instance); a disabled channel returns the instance unchanged.
auction::SingleTaskInstance noised_reports(const AttackConfig& config,
                                           const auction::SingleTaskInstance& instance,
                                           std::uint64_t round);
auction::MultiTaskInstance noised_reports(const AttackConfig& config,
                                          const auction::MultiTaskInstance& instance,
                                          std::uint64_t round);

// ---------------------------------------------------------------------------
// Sybil probes: identity splitting
// ---------------------------------------------------------------------------

/// `user` replaced by `clones` identities that jointly replicate her type:
/// each clone carries cost c/k and a PoS vector scaled to contribution q/k
/// per task, so combined cost and combined contribution are conserved. Clone
/// 0 keeps the original id; clones 1..k-1 are appended at the end (ids n,
/// n+1, ...), so every other user keeps her id.
struct SingleTaskSybilSplit {
  auction::SingleTaskInstance instance;
  std::vector<auction::UserId> identities;
};
struct MultiTaskSybilSplit {
  auction::MultiTaskInstance instance;
  std::vector<auction::UserId> identities;
};

SingleTaskSybilSplit split_identity(const auction::SingleTaskInstance& instance,
                                    auction::UserId user, std::size_t clones);
MultiTaskSybilSplit split_identity(const auction::MultiTaskInstance& instance,
                                   auction::UserId user, std::size_t clones);

/// Outcome of one strategic deviation probe, accounted against TRUE types.
struct DeviationProbe {
  double truthful_utility = 0.0;  ///< expected utility of the honest play
  double deviated_utility = 0.0;  ///< joint expected utility of the attack
  double gain = 0.0;              ///< deviated - truthful
  bool profitable = false;        ///< gain > tolerance
};

/// Does splitting into `clones` identities beat bidding honestly as one?
/// The sybils' joint utility sums each clone's EC expected utility at her
/// true (split) success probability — payment superadditivity under identity
/// splitting is exactly false-name vulnerability.
DeviationProbe probe_sybil_split(const auction::SingleTaskInstance& truth,
                                 auction::UserId user, std::size_t clones,
                                 const auction::MechanismConfig& config,
                                 double tolerance = 1e-6);
DeviationProbe probe_sybil_split(const auction::MultiTaskInstance& truth,
                                 auction::UserId user, std::size_t clones,
                                 const auction::MechanismConfig& config,
                                 double tolerance = 1e-6);

// ---------------------------------------------------------------------------
// Coalition probes: joint bid shading
// ---------------------------------------------------------------------------

/// Joint expected utility of `members` when the mechanism runs on `declared`
/// while their true types live in `truth` (same shape): losers contribute 0,
/// winners contribute (p_true - p̄)·α. The bookkeeping unit of every
/// coalition probe.
double joint_expected_utility(const auction::SingleTaskInstance& truth,
                              const auction::SingleTaskInstance& declared,
                              std::span<const auction::UserId> members,
                              const auction::MechanismConfig& config);
double joint_expected_utility(const auction::MultiTaskInstance& truth,
                              const auction::MultiTaskInstance& declared,
                              std::span<const auction::UserId> members,
                              const auction::MechanismConfig& config);

struct CoalitionProbe {
  std::vector<auction::UserId> members;
  double truthful_joint_utility = 0.0;
  double best_joint_utility = 0.0;
  double best_shade = 1.0;  ///< the grid point that maximized joint utility
  double gain = 0.0;
  bool profitable = false;
};

/// Sweeps a UNIFORM contribution-space shade s over the grid: every member's
/// declared contribution (total, for multi-task) becomes s·q. Individual SP
/// says no member gains ALONE; the probe measures whether the coalition's
/// JOINT utility can beat the truthful joint utility — the paper makes no
/// group-strategyproofness claim, so this is a measurement, not a test
/// oracle.
CoalitionProbe probe_coalition_shading(const auction::SingleTaskInstance& truth,
                                       std::vector<auction::UserId> members,
                                       std::span<const double> shade_grid,
                                       const auction::MechanismConfig& config,
                                       double tolerance = 1e-6);
CoalitionProbe probe_coalition_shading(const auction::MultiTaskInstance& truth,
                                       std::vector<auction::UserId> members,
                                       std::span<const double> shade_grid,
                                       const auction::MechanismConfig& config,
                                       double tolerance = 1e-6);

// ---------------------------------------------------------------------------
// Reputation-weighted PoS priors (multi-round feedback)
// ---------------------------------------------------------------------------

/// Multiplicative contribution-space discount for one user, queried before
/// each round's winner determination. platform::reputation_weight supplies
/// the concrete tracker-backed weighting; tests can pass any pure function.
using PriorWeightFn = std::function<double(auction::UserId)>;

/// Per-winner settlement feedback: the user declared `declared_any_success`
/// overall and either delivered or not. Wire to ReputationTracker::record to
/// close the loop.
using RoundObservation =
    std::function<void(auction::UserId, double declared_any_success, bool succeeded)>;

struct FeedbackConfig {
  std::size_t rounds = 16;
  std::uint64_t seed = 1;  ///< execution draws (AttackAxis::kReputation)
  auction::MechanismConfig mechanism;
};

struct FeedbackRound {
  std::size_t round = 0;
  bool feasible = false;
  std::vector<auction::UserId> winners;
  std::vector<bool> winner_success;  ///< realized any-task success, true types
  double total_cost = 0.0;
};

/// Copy of `declared` with every user's declared contribution vector scaled
/// by weights[user] in contribution space (direction preserved). Weights
/// must lie in (0, 1] — a prior can discount a declaration, never inflate
/// it past what the user claimed.
auction::MultiTaskInstance scale_declared_contributions(
    const auction::MultiTaskInstance& declared, std::span<const double> weights);

/// The loop: each round applies `prior` to the DECLARED reports, runs the
/// mechanism on the weighted instance, realizes execution from the TRUE
/// types (one Bernoulli per winner on her true any-success probability,
/// drawn from the round's pure kReputation stream), and feeds every winner's
/// (declared, realized) pair to `observe` — whose tracker the next round's
/// `prior` reads. Systematic over-claimers thus lose winner-determination
/// weight round over round instead of riding their inflated declarations
/// forever.
std::vector<FeedbackRound> run_reputation_feedback(const auction::MultiTaskInstance& truth,
                                                   const auction::MultiTaskInstance& declared,
                                                   const FeedbackConfig& config,
                                                   const PriorWeightFn& prior,
                                                   const RoundObservation& observe);

// ---------------------------------------------------------------------------
// Hostile instance generator (shared by the sweep, the differential
// adversarial_equivalence_test, and the property fuzz)
// ---------------------------------------------------------------------------

enum class HostileShape {
  kRandom,           ///< the differential suites' baseline distribution
  kTiedCosts,        ///< every cost identical — pure tie-break pressure
  kNearBoundary,     ///< requirement at ~95% of the population's capacity
  kZeroPosTail,      ///< a third of the users declare PoS 0 (dead weight)
  kMixedMagnitude,   ///< costs spanning 1e-3 .. 1e3 in one instance
};
inline constexpr std::array<HostileShape, 5> kHostileShapes = {
    HostileShape::kRandom, HostileShape::kTiedCosts, HostileShape::kNearBoundary,
    HostileShape::kZeroPosTail, HostileShape::kMixedMagnitude};

const char* to_string(HostileShape shape);

auction::SingleTaskInstance hostile_single_task(std::size_t users, HostileShape shape,
                                                std::uint64_t seed);
auction::MultiTaskInstance hostile_multi_task(std::size_t users, std::size_t tasks,
                                              HostileShape shape, std::uint64_t seed);

}  // namespace mcs::sim
